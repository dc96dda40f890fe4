"""Ablation study — the contribution of each RESCQ design choice.

DESIGN.md calls out three mechanisms: parallel preparation, eager correction
preparation, and activity-weighted MST routing.  This harness disables each
in turn and reports the slowdown relative to full RESCQ, alongside the static
baseline for context.
"""

from repro import SimulationConfig, default_layout
from repro.analysis import format_table
from repro.exec import plan_jobs
from repro.scheduling import AutoBraidScheduler, RescqScheduler
from repro.sim import geometric_mean

from conftest import SEEDS, sensitivity_suite


def run_scheduler(scheduler, circuit, config, engine):
    """Run one (scheduler, circuit) cell for SEEDS seeds through the engine."""
    jobs = plan_jobs([scheduler], circuit, config, default_layout(circuit),
                     SEEDS)
    return engine.run(jobs)


VARIANTS = {
    "rescq (full)": {},
    "no parallel preparation": {"parallel_preparation": False},
    "no eager correction prep": {"eager_correction_prep": False},
    "no MST routing (BFS paths)": {"use_mst_routing": False},
    "no parallel + no eager": {"parallel_preparation": False,
                               "eager_correction_prep": False},
}


def run_ablations(engine):
    circuits = sensitivity_suite()
    base_config = SimulationConfig()
    rows = []
    reference = {}
    for label, overrides in VARIANTS.items():
        config = base_config.with_updates(**overrides)
        per_benchmark = []
        for circuit in circuits:
            results = run_scheduler(RescqScheduler(), circuit, config, engine)
            per_benchmark.append(
                sum(r.total_cycles for r in results) / len(results))
        mean_cycles = geometric_mean(per_benchmark)
        if label == "rescq (full)":
            reference["cycles"] = mean_cycles
        rows.append({"variant": label, "geomean_cycles": round(mean_cycles, 1),
                     "slowdown_vs_full": round(
                         mean_cycles / reference.get("cycles", mean_cycles), 3)})
    # Static baseline for context.
    per_benchmark = []
    for circuit in circuits:
        results = run_scheduler(AutoBraidScheduler(), circuit, base_config,
                                engine)
        per_benchmark.append(sum(r.total_cycles for r in results) / len(results))
    baseline_cycles = geometric_mean(per_benchmark)
    rows.append({"variant": "autobraid (static baseline)",
                 "geomean_cycles": round(baseline_cycles, 1),
                 "slowdown_vs_full": round(baseline_cycles / reference["cycles"],
                                           3)})
    return rows


def test_bench_ablations(benchmark, engine):
    rows = benchmark.pedantic(run_ablations, args=(engine,), rounds=1,
                              iterations=1)
    print()
    print(format_table(rows, title="Ablation: contribution of RESCQ mechanisms"))

    by_variant = {row["variant"]: row["slowdown_vs_full"] for row in rows}
    # Every ablation costs cycles (or is at worst neutral within noise).
    for label in VARIANTS:
        assert by_variant[label] >= 0.95
    # Disabling both preparation optimisations hurts at least as much as
    # disabling either one alone.
    assert (by_variant["no parallel + no eager"]
            >= max(by_variant["no parallel preparation"],
                   by_variant["no eager correction prep"]) - 0.05)
    # Even the most ablated RESCQ variant stays well ahead of the baseline.
    assert by_variant["autobraid (static baseline)"] > by_variant[
        "no parallel + no eager"]
