"""Schedulers (RESCQ and static baselines) plus their supporting structures.

Scheduler implementations are registered by name in :data:`SCHEDULER_REGISTRY`
(the instance re-exported as :data:`repro.api.SCHEDULERS`), which is what the
CLI, :class:`~repro.api.spec.ExperimentSpec` and external plugins resolve
scheduler names through::

    from repro.scheduling import SCHEDULER_REGISTRY

    @SCHEDULER_REGISTRY.register("my-policy")
    class MyScheduler(Scheduler):
        name = "my-policy"
        ...
"""

from ..api.registry import Registry
from .base import Scheduler, gate_kind
from .mst import AncillaMst, AsyncMstPipeline, IncrementalMst, activity_array
from .queues import AncillaQueue, QueueEntry, QueueSet
from .rescq import RescqScheduler
from .static import AutoBraidScheduler, GreedyScheduler, StaticLayerScheduler

__all__ = [
    "Scheduler",
    "gate_kind",
    "RescqScheduler",
    "GreedyScheduler",
    "AutoBraidScheduler",
    "StaticLayerScheduler",
    "SCHEDULER_REGISTRY",
    "DEFAULT_SCHEDULER_NAMES",
    "AncillaMst",
    "AsyncMstPipeline",
    "IncrementalMst",
    "activity_array",
    "AncillaQueue",
    "QueueEntry",
    "QueueSet",
]

#: Name -> zero-argument scheduler factory.  ``create(name)`` yields a fresh
#: instance, so registered entries must be default-constructible classes (or
#: factories closing over their parameters).
SCHEDULER_REGISTRY: Registry = Registry("scheduler")
SCHEDULER_REGISTRY.register("greedy", GreedyScheduler)
SCHEDULER_REGISTRY.register("autobraid", AutoBraidScheduler)
SCHEDULER_REGISTRY.register("rescq", RescqScheduler)

#: The three schedulers the paper's headline comparison runs, in the order
#: Figure 10 lists them.
DEFAULT_SCHEDULER_NAMES = ("greedy", "autobraid", "rescq")
