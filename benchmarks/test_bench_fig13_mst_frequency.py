"""Figure 13 — RESCQ's sensitivity to the MST recomputation period k."""

from repro.analysis import format_table, run_axis_sweep

from conftest import SEEDS, sensitivity_suite

PERIODS = (25, 50, 100, 200)


def test_bench_fig13_mst_period_sensitivity(benchmark, engine):
    circuits = sensitivity_suite()

    def run():
        return run_axis_sweep("mst-period", ["rescq"], circuits,
                              values=PERIODS, seeds=SEEDS, engine=engine)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(results.grid_rows(["mst_period"]),
                       title="Figure 13: RESCQ sensitivity to MST period k"))

    by_key = {(r["benchmark"], r["mst_period"]): r["mean_cycles"]
              for r in results.aggregate("benchmark", "mst_period")}
    for name in sorted(results.benchmarks()):
        values = [by_key[(name, k)] for k in PERIODS]
        # Performance deteriorates only negligibly as k increases
        # (Section 5.2.3): the whole sweep stays within ~20%.
        assert max(values) <= min(values) * 1.2
