"""perfbench's trace targets still name methods of the program.

perfbench's tracer wraps the methods it names by ``"module:Class.method"``
string; a renamed or moved method silently turns its per-layer metric into
an ``absent`` target.  This loads ``perfbench/tracer.py`` (read-only: it is
executed, never written) and resolves every target through the tracer's
own ``resolve()``, with the same callable check its installer applies.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: Targets whose methods the program no longer has; CI's kernel-bench
#: "Trace targets resolve" step imports this set and allows exactly these.
KNOWN_STALE = {
    "repro.scheduling.rescq:RescqPolicy.handle_event_batch",
    "repro.rus.injection:InjectionModel.sample_outcomes_batch",
    "repro.kernel.lifecycle:GateLifecycle.retire_many",
    "repro.exec.cache:SQLiteCache.get",
    "repro.exec.cache:SQLiteCache.put",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrappable(tracer, target: str) -> bool:
    """Would the tracer install a wrapper on ``target``?"""
    found = tracer.resolve(target)
    if found is None:
        return False
    raw = found[2]
    return isinstance(raw, (classmethod, staticmethod)) or callable(raw)


def test_every_trace_target_resolves():
    tracer = load_tracer()
    targets = [target for _name, group in tracer.SPAN_TARGETS
               for target in group] + [tracer.OUTCOME_TARGET]
    absent = {target for target in targets if not wrappable(tracer, target)}
    assert sorted(absent - KNOWN_STALE) == []
