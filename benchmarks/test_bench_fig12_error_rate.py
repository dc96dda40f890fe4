"""Figure 12 — sensitivity of every scheduler to the physical error rate (d=7)."""

from repro.analysis import format_table, run_axis_sweep

from conftest import SEEDS, sensitivity_suite

ERROR_RATES = (1e-3, 3e-4, 1e-4, 3e-5, 1e-5)


def test_bench_fig12_error_rate_sensitivity(benchmark, schedulers, engine):
    circuits = sensitivity_suite()

    def run():
        return run_axis_sweep("error-rate", schedulers, circuits,
                              values=ERROR_RATES, seeds=SEEDS, engine=engine)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(results.grid_rows(["physical_error_rate"]),
                       title="Figure 12: sensitivity to physical error rate"))

    by_key = {(r["benchmark"], r["scheduler"], r["physical_error_rate"]):
              r["mean_cycles"]
              for r in results.aggregate("benchmark", "scheduler",
                                         "physical_error_rate")}
    names = sorted(results.benchmarks())
    for name in names:
        # All schemes are relatively insensitive to p (Section 5.2.2): the
        # swing between the worst and best error rate stays small.
        for scheduler in ("greedy", "autobraid", "rescq"):
            values = [by_key[(name, scheduler, p)] for p in ERROR_RATES]
            assert max(values) <= min(values) * 1.35
        # RESCQ keeps its advantage at every error rate.
        for p in ERROR_RATES:
            assert by_key[(name, "rescq", p)] < by_key[(name, "autobraid", p)]
