"""Shared helpers: paths, percentiles, provenance and result digests."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Sequence

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches, temp files and span dumps (git-ignored).
WORK = os.path.join(ROOT, ".perfbench")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` (no install needed)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program sources at {SRC}/repro; run "
                         f"from the root of a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1]) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (``ru_maxrss`` is KiB here)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Wall of :func:`calibration_loop` on the reference host.
REFERENCE_LOOP_S = 0.02


def calibration_loop() -> float:
    """Wall of a fixed pure-Python loop that uses no program code: a
    host-speed yardstick, about 20 ms."""
    start = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value % 7
    return time.perf_counter() - start


def calibration_loop_s(repeats: int = 3) -> float:
    return statistics.median(calibration_loop() for _ in range(repeats))


def normalised(wall: float, before: float, after: float) -> float:
    """``wall`` scaled to the reference host's speed.

    ``before`` and ``after`` are :func:`calibration_loop` walls measured
    right before and right after the timed work.  The shared host this
    benchmark runs on changes its pure-Python speed by 20-60% over tens of
    seconds; the calibration loop slows with it, so the ratio holds steady
    where the raw wall does not.
    """
    return wall * REFERENCE_LOOP_S * 2.0 / (before + after)


def _git_revision() -> str:
    try:
        # The ceiling keeps git from reporting an enclosing repository when
        # the checkout itself carries no git metadata.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over every ``src/`` Python file (path + bytes), sorted.

    Identifies the measured program even where the checkout carries no git
    metadata.
    """
    digest = hashlib.sha256()
    paths = []
    for directory, _dirs, files in os.walk(SRC):
        paths.extend(os.path.join(directory, name) for name in files
                     if name.endswith(".py"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def provenance(workload: str, seed: int) -> Dict[str, object]:
    import networkx
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_revision": _git_revision(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_loop_s": calibration_loop_s(),
    }


def result_digest(result) -> str:
    """Digest of a simulation result's canonical content.

    Covers the modelled outcome (cycles, every gate trace, per-qubit busy
    cycles, policy metadata) and leaves out the observability-only
    ``profile``, so traced and untraced runs must agree.
    """
    payload = (result.benchmark, result.scheduler, result.seed,
               result.total_cycles, result.num_qubits,
               [tuple(vars(trace).values()) for trace in result.traces],
               sorted(result.data_busy_cycles.items()),
               sorted(result.metadata.items()))
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

