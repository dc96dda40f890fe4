"""One measured phase of one workload, in a fresh process.

``run.py`` starts this script once per phase.  It prints the phase record
as one JSON line at the end of its standard output::

    python3 perfbench/phase.py --workload fig10 --seed 1 --seconds 30 \
        --fixed 0 --traced 0

The entry point sits under the ``__main__`` guard because the service
workloads start spawn-method worker pools, whose children re-import this
file as ``__mp_main__``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from common import (WORK, calibration_loop_s, normalised,  # noqa: E402
                    peak_rss_mb, use_source_tree)

KERNEL = ("fig10", "tiles4k")
SERVICE = ("serve", "serve-faults")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=KERNEL + SERVICE, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--fixed", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans to this file")
    parser.add_argument("--import-only", type=int, choices=(0, 1), default=0,
                        help="print the import time and exit")
    args = parser.parse_args()

    use_source_tree()
    import repro  # noqa: F401  (import time is part of set-up)
    if args.workload in KERNEL:
        import kernel_workloads as workloads
    else:
        import serve_workloads as workloads
    import_s = time.perf_counter() - _STARTED
    if args.import_only:
        loop = calibration_loop_s()
        print(json.dumps({"import_s": import_s,
                          "normalised_s": normalised(import_s, loop, loop)}))
        return 0

    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
    os.makedirs(WORK, exist_ok=True)
    phase = workloads.run(args.workload, args.seed, args.seconds,
                          bool(args.fixed), tracer)
    phase["e2e"]["peak_rss_mb"] = peak_rss_mb()
    phase["info"]["import_s"] = import_s
    if tracer is not None:
        phase["absent"] = list(tracer.absent)
        phase["info"]["spans_kept"] = len(tracer.spans)
        phase["info"]["spans_dropped"] = tracer.dropped
        if args.spans:
            tracer.write(args.spans, header={"workload": args.workload,
                                             "seed": args.seed})
    sys.stdout.write(json.dumps(phase, sort_keys=True) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
