"""repro.cluster: shard a ``rescq serve`` fleet behind one front end.

PR 6's :mod:`repro.service` made a single host deduplicate perfectly; this
package makes N such hosts act as *one* deduplicating service:

* :mod:`~repro.cluster.hashring` — rendezvous (HRW) hashing of job
  fingerprints onto shard URLs, giving a stable, coordination-free
  placement with a natural next-ranked fallback order;
* :mod:`~repro.cluster.router` — the ``rescq route`` asyncio front end:
  expands a spec, fans per-shard sub-plans out over the wire, and merges
  the NDJSON row streams back into one canonical, plan-ordered response;
* :mod:`~repro.cluster.membership` — the live shard set: a
  LIVE/SUSPECT/DEAD/DRAINING state machine fed by health probes and
  connect failures, replacing the static start-up shard list;
* :mod:`~repro.cluster.chaos` — deterministic fault injection: a
  :class:`FaultPlan` schedule applied by a TCP :class:`ChaosProxy`
  between router and shard, so failure handling is *tested*, not hoped;
* :mod:`~repro.cluster.harness` — an in-process N-shard + router cluster
  used by the tests and the service load benchmark (optionally under a
  fault plan via :meth:`ClusterHarness.with_faults`).

Shards stay shared-nothing and the router stays stateless.  Cluster-wide
dedup comes from placement alone: HRW sends every fingerprint to the same
owner shard, whose private :class:`~repro.exec.cache.DirectoryCache` holds
its results.  A job re-placed after a fault re-executes on the next-ranked
shard rather than reading from a shared cache tier.
"""

from .chaos import ChaosProxy, Fault, FaultPlan
from .harness import ClusterHarness
from .hashring import hrw_score, rank_nodes
from .membership import (DEAD, DRAINING, LIVE, SUSPECT, ShardInfo, ShardSet,
                         membership_rows)
from .router import RouterStats, ShardRouter

__all__ = ["ChaosProxy", "ClusterHarness", "DEAD", "DRAINING", "Fault",
           "FaultPlan", "LIVE", "RouterStats", "ShardInfo", "ShardRouter",
           "ShardSet", "SUSPECT", "hrw_score", "membership_rows",
           "rank_nodes"]
