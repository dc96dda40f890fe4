"""The repository benchmark: one command per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig10 --seed 1 --seconds 30 --trace 0

Workloads: ``fig10`` and ``tiles4k`` (the simulator, see
``kernel_workloads.py``), ``serve`` and ``serve-faults`` (the experiment
service behind the shard router, see ``serve_workloads.py``).  ``--seed``
drives every generated input: simulation seeds, scenario seeds, the
request schedule and the fault plan.

``--trace 0`` runs the workload for ``--seconds`` in a fresh process and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed amount of the
same work twice, each in a fresh process, once untraced and once with
layer spans (``tracer.py``); it reports the per-layer metrics plus the
tracing overhead, and requires both runs to produce identical results.
Spans are written to ``.perfbench/spans-<workload>-<seed>.ndjson``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the full
record (provenance, every figure with its sample counts, the failed
fraction and any error).  The command exits non-zero when an output check
fails, and without a result when the program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (ROOT, SETUP_REPEATS, WORK, median, provenance,
                    use_source_tree)

WORKLOADS = ("fig10", "tiles4k", "serve", "serve-faults")
KERNEL = ("fig10", "tiles4k")

#: (name, unit) of every end-to-end metric, reported on every workload.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("requests_per_s", "1/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("sim_cycles", "cycles"),
    ("hit_latency_p50_s", "s"),
    ("hit_latency_p90_s", "s"),
    ("fresh_latency_p50_s", "s"),
    ("fresh_latency_p90_s", "s"),
)


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    metrics: List[Tuple[str, str]] = [
        ("circuits.build_s", "s"), ("fabric.layout_s", "s")]
    for span in ("lattice.enumerate_plans", "lattice.path",
                 "scheduling.schedule_pass", "scheduling.mst_path",
                 "scheduling.queue_ops", "kernel.activity_snapshot",
                 "rus.sample", "kernel.retire"):
        metrics += [(f"{span}.calls", "1/job"), (f"{span}.self_s", "s/job")]
    metrics += [
        ("lattice.plan_cache_hit_ratio", "ratio"),
        ("scheduling.passes_per_gate", "1/gate"),
        ("scheduling.mst_tick.self_s", "s/job"),
        ("scheduling.mst_builds", "1/job"),
        ("scheduling.static.job_wall_s", "s/job"),
        ("kernel.events", "1/job"),
        ("kernel.handle_event.self_s", "s/job"),
        ("kernel.dispatch_other_s", "s/job"),
        ("model.prep_cycles", "cycles"),
        ("model.injection_cycles", "cycles"),
        ("model.cnot_cycles", "cycles"),
        ("model.hadamard_cycles", "cycles"),
        ("model.injections_per_rz", "1/rz"),
        ("model.injection_success_ratio", "ratio"),
        ("model.data_idle_fraction", "ratio"),
        ("model.rescq_cycle_ratio", "ratio"),
    ]
    for span in ("api.envelope_parse", "exec.fingerprint",
                 "service.submit_plan", "api.row_encode"):
        metrics.append((f"{span}.self_s", "s/req"))
    for span in ("api.validate_expand", "exec.cache_get", "exec.cache_put"):
        metrics += [(f"{span}.calls", "1/req"), (f"{span}.self_s", "s/req")]
    metrics += [
        ("exec.cache_hit_ratio", "ratio"),
        ("service.executor_wait_s", "s/job"),
        ("service.deduped", "count"),
        ("service.rejected", "count"),
        ("cluster.shard_streams", "1/req"),
        ("cluster.router_overhead_s", "s"),
    ]
    metrics += [(f"cluster.{key}", "count") for key in
                ("retried", "recovered", "gave_up", "backoff_waits",
                 "faults_fired")]
    metrics.append(("trace.overhead_fraction", "ratio"))
    return tuple(metrics)


PER_LAYER = _per_layer()

#: Wall budget of the whole command; phases share it.
TOTAL_TIMEOUT_S = 170.0


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def run_phase(workload: str, seed: int, seconds: float, fixed: bool,
              traced: bool, timeout: float, spans: Optional[str] = None,
              import_only: bool = False
              ) -> Tuple[Optional[dict], List[str]]:
    """Run ``phase.py`` in a fresh process group; ``(record, problems)``.

    Every process the phase started must be gone when it exits; leftovers
    are killed, waited for and reported as a problem.
    """
    command = [sys.executable, os.path.join(ROOT, "perfbench", "phase.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--fixed", str(int(fixed)),
               "--traced", str(int(traced))]
    if spans:
        command += ["--spans", spans]
    if import_only:
        command += ["--import-only", "1"]
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, PYTHONDONTWRITEBYTECODE="1")
    problems: List[str] = []
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             start_new_session=True)
    try:
        out, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, err = child.communicate()
        problems.append(f"{workload} phase exceeded {timeout:.0f}s")
    deadline = time.monotonic() + 5.0
    while _group_alive(child.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _group_alive(child.pid):
        problems.append(f"{workload} phase left processes running")
        os.killpg(child.pid, signal.SIGKILL)
        while _group_alive(child.pid):
            time.sleep(0.05)
    text = err.decode("utf-8", "replace")
    sys.stderr.write(text)
    if "leaked semaphore" in text or "leaked shared_memory" in text:
        problems.append(f"{workload} phase leaked semaphores")
    if child.returncode != 0:
        problems.append(f"{workload} phase exited with {child.returncode}")
        return None, problems
    lines = out.decode("utf-8").strip().splitlines()
    try:
        return json.loads(lines[-1]), problems
    except (IndexError, ValueError):
        problems.append(f"{workload} phase printed no record")
        return None, problems


def _metrics(values: Dict[str, float],
             specs: Tuple[Tuple[str, str], ...]) -> Dict[str, dict]:
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in specs}


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Tuple[dict, dict]:
    """Run the phases; returns ``(result line, full record)``."""
    started = time.monotonic()
    problems: List[str] = []
    record: Dict[str, object] = {"provenance": provenance(workload, seed),
                                 "trace": trace, "seconds": seconds}
    if not trace:
        imports = [run_phase(workload, seed, seconds, False, False, 60.0,
                             import_only=True)
                   for _ in range(SETUP_REPEATS)]
        problems = [problem for _record, found in imports
                    for problem in found]
        phase, found = run_phase(workload, seed, seconds, False, False,
                                 TOTAL_TIMEOUT_S - (time.monotonic()
                                                    - started))
        problems += found
        phases = [phase]
        values = dict(phase["e2e"]) if phase else {}
        if phase and not problems:
            # Set-up = imports (median of fresh processes) + the phase's
            # median build or cluster start, both normalised.
            values["setup_s"] += median([record["normalised_s"]
                                         for record, _ in imports])
            phase["info"]["imports_s"] = [record["import_s"]
                                          for record, _ in imports]
        specs = END_TO_END
    else:
        untraced, found = run_phase(workload, seed, seconds, True, False,
                                    TOTAL_TIMEOUT_S / 2)
        problems += found
        remaining = TOTAL_TIMEOUT_S - (time.monotonic() - started)
        spans = os.path.join(WORK, f"spans-{workload}-{seed}.ndjson")
        traced, found = run_phase(workload, seed, seconds, True, True,
                                  remaining, spans=spans)
        problems += found
        phases = [untraced, traced]
        values = {}
        if untraced and traced:
            problems += _compare(untraced, traced)
            values = dict(traced["layers"])
            work = "job_wall_s" if workload in KERNEL else "window_s"
            values["trace.overhead_fraction"] = \
                traced["info"][work] / untraced["info"][work] - 1.0
            record["absent"] = traced.get("absent", [])
            record["spans"] = os.path.relpath(spans, ROOT)
        specs = PER_LAYER
    attempted = sum(phase["attempted"] for phase in phases if phase)
    failed = sum(phase["failed"] for phase in phases if phase)
    errors = [error for phase in phases if phase for error in phase["errors"]]
    if problems or None in phases:
        failed += max(1, len(problems))
        attempted = max(attempted, failed)
    correct = failed == 0
    record.update({
        "workload": workload, "correct": correct,
        "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted if attempted else 1.0,
        "errors": (problems + errors)[:10],
        "exact": [phase["exact"] for phase in phases if phase],
        "info": [phase["info"] for phase in phases if phase],
        "metrics": _metrics(values, specs) if values else {},
    })
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}
    return line, record


def _compare(untraced: dict, traced: dict) -> List[str]:
    """Traced and untraced runs of the same work must agree exactly."""
    problems = []
    if untraced["digests"] != traced["digests"]:
        differing = sorted(key for key in untraced["digests"]
                           if traced["digests"].get(key)
                           != untraced["digests"][key])
        problems.append(f"traced results differ from untraced ones: "
                        f"{differing[:3]}")
    if untraced["exact"] != traced["exact"]:
        problems.append(f"modelled figures differ between traced and "
                        f"untraced runs: {untraced['exact']} vs "
                        f"{traced['exact']}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    use_source_tree()
    os.makedirs(WORK, exist_ok=True)
    line, record = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
