"""The service wire format: submission envelopes and job-status records.

``rescq serve`` accepts an :class:`~repro.api.spec.ExperimentSpec` over
HTTP.  The body may be the bare spec JSON (so committed spec files POST
directly: ``curl --data-binary @examples/headline.json ...``) or an
envelope that wraps the spec with delivery options::

    {
      "spec": { "name": "fig10-headline", "benchmarks": ["VQE_n13"], ... },
      "request_id": "ci-e2e-1",
      "include_status": true
    }

``include_status`` asks the server to attach a per-row :class:`JobStatus`
(fingerprint + resolution source) to the NDJSON stream.  It defaults to
off so that repeated submissions of the same spec produce byte-identical
row streams — the property the service e2e test pins.

``indices`` restricts the submission to a **sub-plan**: the server expands
the spec as usual (expansion is deterministic, so every process derives the
identical job plan from the same spec) and runs only the jobs at the given
plan positions.  This is the shard fan-out wire format of the
:class:`~repro.cluster.router.ShardRouter` — shipping ``(spec, indices)``
instead of serialised jobs keeps the protocol canonical and tiny — but it
works for any client that wants a slice of a plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from .spec import ExperimentSpec, SpecValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.jobs import SimJob

__all__ = ["EnvelopeError", "JobStatus", "SubmissionEnvelope",
           "SubmissionReport"]


class EnvelopeError(ValueError):
    """A submission payload does not describe a runnable request."""


@dataclass(frozen=True)
class SubmissionEnvelope:
    """One experiment submission: the spec plus delivery options."""

    spec: ExperimentSpec
    request_id: Optional[str] = None
    include_status: bool = False
    #: Plan positions to run (``None`` = the whole plan).  Required to be
    #: strictly increasing so a sub-plan's row stream maps back onto plan
    #: positions unambiguously.
    indices: Optional[Tuple[int, ...]] = None

    _KEYS = ("spec", "request_id", "include_status", "indices")

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SubmissionEnvelope":
        """Accept either a bare spec object or a full envelope."""
        if not isinstance(payload, Mapping):
            raise EnvelopeError(
                f"submission must be a JSON object (a spec or an envelope "
                f"with a 'spec' key), got {type(payload).__name__}")
        try:
            if "spec" not in payload:
                return cls(spec=ExperimentSpec.from_dict(payload))
            unknown = sorted(set(payload) - set(cls._KEYS))
            if unknown:
                raise EnvelopeError(
                    f"unknown envelope keys {unknown}; accepted keys: "
                    f"{sorted(cls._KEYS)}")
            request_id = payload.get("request_id")
            if request_id is not None and not isinstance(request_id, str):
                raise EnvelopeError(
                    f"request_id must be a string, got {request_id!r}")
            include_status = payload.get("include_status", False)
            if not isinstance(include_status, bool):
                raise EnvelopeError(
                    f"include_status must be a boolean, "
                    f"got {include_status!r}")
            indices = payload.get("indices")
            if indices is not None:
                indices = cls._check_indices(indices)
            return cls(spec=ExperimentSpec.from_dict(payload["spec"]),
                       request_id=request_id,
                       include_status=include_status,
                       indices=indices)
        except SpecValidationError as exc:
            raise EnvelopeError(str(exc)) from None

    @staticmethod
    def _check_indices(indices) -> Tuple[int, ...]:
        if not isinstance(indices, (list, tuple)):
            raise EnvelopeError(
                f"indices must be a list of plan positions, got {indices!r}")
        checked = []
        for index in indices:
            if isinstance(index, bool) or not isinstance(index, int) \
                    or index < 0:
                raise EnvelopeError(
                    f"indices entries must be non-negative integers, "
                    f"got {index!r}")
            if checked and index <= checked[-1]:
                raise EnvelopeError(
                    f"indices must be strictly increasing, got {index} "
                    f"after {checked[-1]}")
            checked.append(index)
        if not checked:
            raise EnvelopeError("indices is empty; omit it to run the "
                                "whole plan")
        return tuple(checked)

    def select(self, jobs: List["SimJob"]) -> List[Tuple[int, "SimJob"]]:
        """The ``(plan position, job)`` pairs this submission runs.

        ``jobs`` is the spec's whole expanded plan; :attr:`indices` are
        selected from it in plan order (all of it when ``None``).  Raises
        :class:`EnvelopeError` for an index past the end of the plan.
        """
        if self.indices is None:
            return list(enumerate(jobs))
        if self.indices[-1] >= len(jobs):
            raise EnvelopeError(
                f"indices entry {self.indices[-1]} is out of range for a "
                f"plan of {len(jobs)} job(s)")
        return [(index, jobs[index]) for index in self.indices]

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"spec": self.spec.to_dict()}
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.include_status:
            payload["include_status"] = True
        if self.indices is not None:
            payload["indices"] = list(self.indices)
        return payload


@dataclass(frozen=True)
class JobStatus:
    """How one planned job was resolved by the service."""

    #: Resolution sources: executed fresh, served from the result cache, or
    #: joined onto an identical in-flight execution.
    SOURCES = ("executed", "cache", "deduped")

    fingerprint: str = ""
    benchmark: str = ""
    scheduler: str = ""
    seed: int = 0
    params: Dict[str, object] = field(default_factory=dict)
    source: str = "executed"

    def to_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "benchmark": self.benchmark,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "params": dict(self.params),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobStatus":
        return cls(
            fingerprint=str(payload.get("fingerprint", "")),
            benchmark=str(payload.get("benchmark", "")),
            scheduler=str(payload.get("scheduler", "")),
            seed=int(payload.get("seed", 0)),
            params=dict(payload.get("params", {})),
            source=str(payload.get("source", "executed")),
        )


@dataclass(frozen=True)
class SubmissionReport:
    """The trailing summary record of one NDJSON response stream."""

    name: str
    jobs: int
    executed: int
    cache_hits: int
    deduped: int
    request_id: Optional[str] = None
    #: Jobs that failed (router streams keep going past a failed shard and
    #: account for the loss here).  Serialised only when non-zero so healthy
    #: summaries keep their historical byte layout.
    errors: int = 0

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "type": "summary",
            "name": self.name,
            "jobs": self.jobs,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
        }
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.errors:
            payload["errors"] = self.errors
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SubmissionReport":
        return cls(
            name=str(payload.get("name", "")),
            jobs=int(payload.get("jobs", 0)),
            executed=int(payload.get("executed", 0)),
            cache_hits=int(payload.get("cache_hits", 0)),
            deduped=int(payload.get("deduped", 0)),
            request_id=payload.get("request_id"),
            errors=int(payload.get("errors", 0)),
        )
