"""Figure 11 — sensitivity of every scheduler to the code distance (p=1e-4)."""

from repro.analysis import format_table, run_axis_sweep

from conftest import SEEDS, sensitivity_suite

DISTANCES = (5, 7, 9, 11, 13)


def test_bench_fig11_distance_sensitivity(benchmark, schedulers, engine):
    circuits = sensitivity_suite()

    def run():
        return run_axis_sweep("distance", schedulers, circuits,
                              values=DISTANCES, seeds=SEEDS, engine=engine)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(results.grid_rows(["distance"]),
                       title="Figure 11: sensitivity to code distance"))

    by_key = {(r["benchmark"], r["scheduler"], r["distance"]): r["mean_cycles"]
              for r in results.aggregate("benchmark", "scheduler", "distance")}
    benchmarks_names = sorted(results.benchmarks())
    for name in benchmarks_names:
        # Execution time improves (or at least does not get worse) as d grows,
        # for every scheduler (Section 5.2.1).
        for scheduler in ("greedy", "autobraid", "rescq"):
            low_d = by_key[(name, scheduler, DISTANCES[0])]
            high_d = by_key[(name, scheduler, DISTANCES[-1])]
            assert high_d <= low_d * 1.1
        # RESCQ stays ahead of the baselines at every distance.
        for d in DISTANCES:
            assert by_key[(name, "rescq", d)] < by_key[(name, "autobraid", d)]

    # RESCQ is less sensitive to d than the baseline: its relative swing
    # across the sweep is no larger (Section 5.2.1).
    for name in benchmarks_names:
        rescq_swing = (by_key[(name, "rescq", DISTANCES[0])]
                       / by_key[(name, "rescq", DISTANCES[-1])])
        base_swing = (by_key[(name, "autobraid", DISTANCES[0])]
                      / by_key[(name, "autobraid", DISTANCES[-1])])
        assert rescq_swing <= base_swing * 1.3
