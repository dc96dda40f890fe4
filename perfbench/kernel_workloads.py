"""The simulator workloads: ``fig10`` and ``tiles4k``.

``fig10``
    The ten laptop-scale Figure 10 circuits x greedy/autobraid/rescq x two
    simulation seeds per circuit (drawn from ``--seed``), layouts prebuilt
    in set-up.  The run repeats passes over this fixed job set; every
    second pass runs on newly built layouts.
``tiles4k``
    ``clifford_rz_circuit(n=1000, depth=2, seed=3)`` on its 4096-tile STAR
    layout, RESCQ only, with eight simulation seeds drawn from ``--seed``.
    Rounds of one seed on a newly built layout (cold routing caches)
    followed by four more seeds warm repeat until the window ends.

A "fresh" job runs on newly built layouts; a "hit" job runs on layouts
whose routing caches are warm.  Every job's result is
checked (each gate retired exactly once, after its DAG predecessors, and
``total_cycles == max(end_cycle)``) and its digest must repeat on every
later pass.
"""

from __future__ import annotations

import gc
import math
import random
import time
from typing import Dict, List, Optional, Tuple

from common import (SETUP_REPEATS, calibration_loop, median, normalised,
                    percentile, ratio, result_digest)

SCHEDULERS = ("greedy", "autobraid", "rescq")
#: Passes over the fig10 job set in a fixed-work (traced) run.
FIG10_FIXED_PASSES = 4
#: Every this-many-th fig10 pass runs on newly built layouts.
FIG10_FRESH_EVERY = 2
#: tiles4k circuit: depth 2 keeps warm jobs near 1 s, so a run holds enough
#: samples; the generator seed is pinned so runs differ only in simulation
#: seeds, not in the circuit.
TILES4K_DEPTH = 2
TILES4K_CIRCUIT_SEED = 3
#: Simulation seeds differ in wall time, so warm samples rotate through
#: many of them instead of repeating a few.
TILES4K_SIM_SEEDS = 8
TILES4K_WARM = 4
TILES4K_FIXED_ROUNDS = 2


def fig10_circuits():
    from repro.workloads import (dnn_circuit, gcm_circuit,
                                 hamiltonian_simulation_circuit,
                                 ising_circuit, qaoa_fermionic_swap_circuit,
                                 qaoa_vanilla_circuit, qft_circuit,
                                 qugan_circuit, vqe_circuit, wstate_circuit)
    return [
        ising_circuit(12),
        qft_circuit(10),
        qugan_circuit(11),
        gcm_circuit(10, generator_terms=30),
        dnn_circuit(10, layers=3),
        wstate_circuit(12),
        hamiltonian_simulation_circuit(12),
        qaoa_vanilla_circuit(10, rounds=1),
        qaoa_fermionic_swap_circuit(10, rounds=1),
        vqe_circuit(10),
    ]


class KernelWorkload:
    """Job set, set-up and measurement loop of one simulator workload."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        rng = random.Random(seed)
        if name == "fig10":
            self.circuit_seed = None
            #: Two simulation seeds per circuit, shared by the schedulers.
            self.sim_seeds = [(rng.randrange(2 ** 31), rng.randrange(2 ** 31))
                              for _ in range(10)]
        else:
            self.circuit_seed = TILES4K_CIRCUIT_SEED
            self.sim_seeds = [tuple(rng.randrange(2 ** 31)
                                    for _ in range(TILES4K_SIM_SEEDS))]
        self.circuits: list = []
        self.layouts: list = []
        self.build_s: List[float] = []
        self.layout_s: List[float] = []

    # -- set-up ------------------------------------------------------------------

    def _build_circuits(self):
        if self.name == "fig10":
            return fig10_circuits()
        from repro.workloads.scenarios import clifford_rz_circuit
        return [clifford_rz_circuit(n=1000, depth=TILES4K_DEPTH,
                                    seed=self.circuit_seed)]

    def setup_once(self) -> Tuple[float, float]:
        """Build circuits and layouts; ``(wall, normalised wall)``."""
        from repro.sim.runner import default_layout
        before = calibration_loop()
        start = time.perf_counter()
        circuits = self._build_circuits()
        built = time.perf_counter()
        layouts = [default_layout(circuit) for circuit in circuits]
        done = time.perf_counter()
        self.build_s.append(built - start)
        self.layout_s.append(done - built)
        self.circuits, self.layouts = circuits, layouts
        return done - start, normalised(done - start, before,
                                        calibration_loop())

    def setup(self) -> Tuple[float, float]:
        """Build circuits and layouts :data:`SETUP_REPEATS` times; medians
        of the walls and of the normalised walls.

        The last build is kept, so the first pass runs on fresh layouts.
        """
        walls = [self.setup_once() for _ in range(SETUP_REPEATS)]
        return (median([wall for wall, _ in walls]),
                median([scaled for _, scaled in walls]))

    # -- the job set ---------------------------------------------------------------

    def job_set(self) -> List[Tuple[str, int, str, int]]:
        """``(key, circuit index, scheduler, sim seed)`` in run order."""
        if self.name == "fig10":
            return [(f"{circuit.name}/{scheduler}/{sim_seed}", index,
                     scheduler, sim_seed)
                    for index, circuit in enumerate(self.circuits)
                    for scheduler in SCHEDULERS
                    for sim_seed in self.sim_seeds[index]]
        name = self.circuits[0].name
        return [(f"{name}/rescq/{sim_seed}", 0, "rescq", sim_seed)
                for sim_seed in self.sim_seeds[0]]

    def rebuild_layouts(self) -> None:
        """Fresh layouts: routing caches live on the layout object."""
        from repro.sim.runner import default_layout
        # Layouts and their routing caches reference each other; collect the
        # old ones first so peak memory does not depend on the round count.
        self.layouts = []
        gc.collect()
        self.layouts = [default_layout(circuit) for circuit in self.circuits]

    def job_stream(self, fixed: bool):
        """``(pass, fresh, rebuild, job)`` in run order; endless unless
        ``fixed``.

        fig10 repeats passes over its job set; every
        :data:`FIG10_FRESH_EVERY`-th pass is fresh, on newly built layouts.
        tiles4k repeats rounds: one seed on a newly built layout, then the
        next :data:`TILES4K_WARM` seeds of a rotation warm, so the warm
        samples of a run cover distinct seeds.  ``rebuild`` asks for new
        layouts before the job; the first fresh jobs use the layouts built
        in set-up.  A fixed run is :data:`FIG10_FIXED_PASSES` passes or
        :data:`TILES4K_FIXED_ROUNDS` rounds.
        """
        jobs = self.job_set()
        number = 0
        while not fixed or number < (FIG10_FIXED_PASSES
                                     if self.name == "fig10"
                                     else TILES4K_FIXED_ROUNDS):
            if self.name == "fig10":
                fresh = number % FIG10_FRESH_EVERY == 0
                for position, job in enumerate(jobs):
                    yield (number, fresh, fresh and number > 0
                           and position == 0, job)
            else:
                yield number, True, number > 0, jobs[number % len(jobs)]
                for offset in range(TILES4K_WARM):
                    yield number, False, False, jobs[
                        (number * TILES4K_WARM + offset) % len(jobs)]
            number += 1


class _Checker:
    """Per-job output checks: invariants once per job, digests every pass."""

    def __init__(self) -> None:
        self.dags: Dict[int, object] = {}
        self.digests: Dict[str, str] = {}
        self.errors: List[str] = []

    def _dag(self, index: int, circuit):
        dag = self.dags.get(index)
        if dag is None:
            from repro.circuits import GateDependencyGraph
            dag = self.dags[index] = GateDependencyGraph(
                circuit.without_free_gates())
        return dag

    def check(self, key: str, index: int, circuit, result) -> bool:
        digest = result_digest(result)
        known = self.digests.get(key)
        if known is not None:
            if known != digest:
                self.errors.append(f"{key}: result digest changed between "
                                   f"passes")
                return False
            return True
        self.digests[key] = digest
        problem = invariant_violation(result, self._dag(index, circuit))
        if problem:
            self.errors.append(f"{key}: {problem}")
            return False
        return True


def invariant_violation(result, dag) -> Optional[str]:
    """Why ``result`` breaks the gate-lifecycle invariants, or ``None``."""
    traces = result.traces
    position = {}
    for order, trace in enumerate(traces):
        if trace.gate_index in position:
            return f"gate {trace.gate_index} retired twice"
        position[trace.gate_index] = order
    if len(position) != len(dag):
        return f"{len(position)} of {len(dag)} gates retired"
    ends = {trace.gate_index: trace.end_cycle for trace in traces}
    for trace in traces:
        if not trace.scheduled_cycle <= trace.end_cycle:
            return f"gate {trace.gate_index} ends before it is released"
    for gate in dag.nodes:
        for successor in dag.successors(gate):
            if position[successor] < position[gate]:
                return (f"gate {successor} retired before its predecessor "
                        f"{gate}")
            if ends[successor] < ends[gate] or \
                    traces[position[successor]].scheduled_cycle < ends[gate]:
                return (f"gate {successor} released before its predecessor "
                        f"{gate} ended")
    if traces and result.total_cycles != max(ends.values()):
        return (f"total_cycles {result.total_cycles} != max(end_cycle) "
                f"{max(ends.values())}")
    return None


def rescq_cycle_ratio(first_pass: Dict[str, object]) -> float:
    """Geomean over circuits of min(greedy, autobraid) / rescq mean cycles."""
    cycles: Dict[Tuple[str, str], List[int]] = {}
    for result in first_pass.values():
        cycles.setdefault((result.benchmark, result.scheduler),
                          []).append(result.total_cycles)
    logs = []
    for benchmark in sorted({key[0] for key in cycles}):
        def mean(scheduler):
            values = cycles.get((benchmark, scheduler))
            return sum(values) / len(values) if values else None
        rescq = mean("rescq")
        baselines = [value for value in (mean("greedy"), mean("autobraid"))
                     if value is not None]
        if rescq and baselines:
            logs.append(math.log(min(baselines) / rescq))
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def model_figures(first_pass: Dict[str, object]) -> Dict[str, float]:
    """Exact modelled figures of one pass over the job set."""
    rescq = [result for result in first_pass.values()
             if result.scheduler == "rescq"]
    rz = [trace for result in rescq for trace in result.traces
          if trace.kind == "rz"]
    return {
        "sim_cycles": float(sum(result.total_cycles
                                for result in first_pass.values())),
        "model.rescq_cycle_ratio": rescq_cycle_ratio(first_pass),
        "model.injections_per_rz": ratio(
            sum(trace.injections for trace in rz), len(rz)),
        "model.data_idle_fraction": ratio(
            sum(result.idle_fraction() for result in rescq), len(rescq)),
    }


def latency_samples(name: str, records, job_count: int
                    ) -> Tuple[List[float], List[float]]:
    """``(fresh, hit)`` latency samples.

    A tiles4k sample is one job.  A fig10 sample is one complete pass over
    its 60 jobs (the wall to regenerate the comparison): the jobs differ by
    up to 50x in wall, and percentiles over that mixture jump between job
    kinds from run to run.
    """
    if name != "fig10":
        return ([record[4] for record in records if record[1]],
                [record[4] for record in records if not record[1]])
    passes: Dict[int, List[float]] = {}
    fresh_pass: Dict[int, bool] = {}
    for number, fresh, _key, _scheduler, wall, *_rest in records:
        passes.setdefault(number, []).append(wall)
        fresh_pass[number] = fresh
    complete = [number for number, walls in passes.items()
                if len(walls) == job_count]
    return ([sum(passes[number]) for number in complete
             if fresh_pass[number]],
            [sum(passes[number]) for number in complete
             if not fresh_pass[number]])


def run(name: str, seed: int, seconds: float, fixed: bool,
        tracer=None) -> dict:
    """One phase of a simulator workload; returns the phase record."""
    from repro import SimulationConfig
    from repro.scheduling import SCHEDULER_REGISTRY

    workload = KernelWorkload(name, seed)
    setup_raw_s, setup_s = workload.setup()
    if tracer is not None:
        tracer.install()
    config = SimulationConfig(profile_enabled=tracer is not None)
    checker = _Checker()
    # (pass, fresh, key, scheduler, wall, cycles, segment): a job's wall is
    # normalised by the calibration loops loops[segment] and
    # loops[segment + 1] that bracket its latency sample (a tiles4k job, a
    # whole fig10 pass).
    records = []
    loops = [calibration_loop()]
    first_pass: Dict[str, object] = {}
    profiles = []
    failed = 0
    window_start = time.perf_counter()
    job_count = len(workload.job_set())
    for number, fresh, rebuild, (key, index, scheduler_name, sim_seed) in \
            workload.job_stream(fixed):
        # Stop once every job ran and the next one would likely end past
        # the window (tiles4k jobs take seconds each).
        if not fixed and len(first_pass) == job_count and \
                time.perf_counter() - window_start + records[-1][4] \
                > seconds:
            break
        if rebuild:
            workload.rebuild_layouts()
        circuit, layout = workload.circuits[index], workload.layouts[index]
        scheduler = SCHEDULER_REGISTRY.create(scheduler_name)
        start = time.perf_counter()
        if tracer is None:
            result = scheduler.run(circuit, layout, config, seed=sim_seed)
        else:
            result = tracer.call("sim.job", scheduler.run, circuit, layout,
                                 config, seed=sim_seed)
        wall = time.perf_counter() - start
        if not checker.check(key, index, circuit, result):
            failed += 1
        records.append((number, fresh, key, scheduler_name, wall,
                        result.total_cycles, len(loops) - 1))
        if name != "fig10" or len(records) % job_count == 0:
            loops.append(calibration_loop())
        first_pass.setdefault(key, result)
        if tracer is not None:
            profiles.append((scheduler_name, len(result.traces),
                             result.profile))

    if tracer is not None:
        tracer.uninstall()
        # Every span nests inside a job, so self times add up to job wall.
        attributed = sum(total[2] for total in tracer.totals.values())
        job_wall = tracer.totals["sim.job"][1]
        if abs(attributed - job_wall) > 1e-6 * job_wall:
            failed += 1
            checker.errors.append(f"span self times sum to {attributed}s, "
                                  f"job wall is {job_wall}s")
    if records[-1][6] == len(loops) - 1:
        loops.append(calibration_loop())
    walls = [record[4] for record in records]
    scaled = [record[:4] + (normalised(record[4], loops[record[6]],
                                       loops[record[6] + 1]),) + record[5:]
              for record in records]
    scaled_walls = [record[4] for record in scaled]
    fresh, hits = latency_samples(name, scaled, job_count)
    raw_fresh, raw_hits = latency_samples(name, records, job_count)
    figures = model_figures(first_pass)
    cycles = sum(record[5] for record in records)
    e2e = {
        "setup_s": setup_s,
        "requests_per_s": len(records) / sum(scaled_walls),
        "sim_cycles_per_s": cycles / sum(scaled_walls),
        "sim_cycles": figures["sim_cycles"],
        "hit_latency_p50_s": percentile(hits, 0.5),
        "hit_latency_p90_s": percentile(hits, 0.9),
        "fresh_latency_p50_s": percentile(fresh, 0.5),
        "fresh_latency_p90_s": percentile(fresh, 0.9),
    }
    phase = {
        "attempted": len(records), "failed": failed,
        "errors": checker.errors[:5], "digests": checker.digests,
        "e2e": e2e, "exact": figures,
        "info": {"jobs": len(records), "fresh_samples": len(fresh),
                 "hit_samples": len(hits),
                 "job_wall_s": sum(walls),
                 "calibration_loops": len(loops),
                 "calibration_loop_s": median(loops),
                 "raw": {"build_s": setup_raw_s,
                         "sim_cycles_per_s": cycles / sum(walls),
                         "hit_latency_p50_s": percentile(raw_hits, 0.5),
                         "fresh_latency_p50_s": percentile(raw_fresh,
                                                           0.5)}},
    }
    if tracer is not None:
        phase["layers"] = kernel_layers(tracer, workload, records, profiles,
                                        figures)
    return phase


def kernel_layers(tracer, workload, records, profiles,
                  figures) -> Dict[str, float]:
    """Per-layer metrics of a traced simulator phase, per job."""
    jobs = len(records)

    def counter(name, scheduler=None):
        return sum(profile.get(name, 0.0) for kind, _gates, profile
                   in profiles if scheduler is None or kind == scheduler)

    layers: Dict[str, float] = {
        "circuits.build_s": median(workload.build_s),
        "fabric.layout_s": median(workload.layout_s),
    }
    for span in ("lattice.enumerate_plans", "lattice.path",
                 "scheduling.schedule_pass", "scheduling.mst_path",
                 "scheduling.queue_ops", "kernel.activity_snapshot",
                 "rus.sample", "kernel.retire"):
        layers[f"{span}.calls"] = tracer.calls(span) / jobs
        layers[f"{span}.self_s"] = tracer.self_seconds(span) / jobs
    layers["scheduling.mst_tick.self_s"] = \
        tracer.self_seconds("scheduling.mst_tick") / jobs
    layers["kernel.handle_event.self_s"] = \
        tracer.self_seconds("kernel.handle_event") / jobs
    layers["kernel.dispatch_other_s"] = tracer.self_seconds("sim.job") / jobs
    layers["lattice.plan_cache_hit_ratio"] = ratio(
        counter("routing_plan_cache_hits"), counter("routing_queries"))
    rescq_gates = sum(gates for kind, gates, _profile in profiles
                      if kind == "rescq")
    layers["scheduling.passes_per_gate"] = ratio(
        counter("scheduling_passes", "rescq"), rescq_gates)
    layers["scheduling.mst_builds"] = counter("mst_builds") / jobs
    layers["kernel.events"] = counter("events") / jobs
    static = [record[4] for record in records if record[3] != "rescq"]
    layers["scheduling.static.job_wall_s"] = \
        sum(static) / len(static) if static else 0.0
    seen = set()
    first = []
    for (_kind, _gates, profile), record in zip(profiles, records):
        if record[2] not in seen:
            seen.add(record[2])
            first.append(profile)
    for phase in ("prep", "injection", "cnot", "hadamard"):
        layers[f"model.{phase}_cycles"] = sum(
            profile.get(f"sim_{phase}_cycles", 0.0) for profile in first)
    layers["model.injection_success_ratio"] = ratio(
        tracer.counters.get("injection_successes", 0.0),
        tracer.counters.get("injection_outcomes", 0.0))
    for name in ("model.rescq_cycle_ratio", "model.injections_per_rz",
                 "model.data_idle_fraction"):
        layers[name] = figures[name]
    return layers
