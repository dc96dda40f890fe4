"""The per-process plan memo behind :func:`repro.service.httpcore.read_submission`.

A spec is expanded (circuits, layouts, job fingerprints) once per process
and its plan reused by every later submission of the same spec, whatever
its ``indices``.  These tests pin what the memo may and may not change:
the rows, the fingerprints, the 400s; and that it misses on any spec edit
and on a rewritten ``.qasm`` file, and holds no more than its bound.
"""

import asyncio
import json

import pytest

from repro.api.envelope import SubmissionEnvelope
from repro.api.spec import ExperimentSpec
from repro.canonical import canonical_dumps
from repro.cluster import ClusterHarness, ShardRouter
from repro.cluster.router import _Request
from repro.service import httpcore
from repro.service.httpcore import (HttpError, PlanMemo, plan_weight,
                                    read_submission)

from test_http_frontends import experiment_server, running


BASE = {"name": "memo", "benchmarks": ["scenario:clifford_t:n=4,depth=3"],
        "schedulers": ["rescq"], "seeds": [0, 1],
        "config": {"mst_period": 10}}

#: One valid edit of each spec field.
EDITS = {
    "name": "memo-renamed",
    "benchmarks": ["scenario:clifford_t:n=4,depth=4"],
    "schedulers": ["greedy"],
    "config": {"mst_period": 11},
    "grid": {"distance": [5]},
    "seeds": [0, 2],
    "layout": "compact",
    "compression": 0.25,
    "layout_seed": 1,
}


def body(spec=None, **envelope):
    return json.dumps({"spec": spec or BASE, **envelope}).encode("utf-8")


def submit(payload):
    return asyncio.run(read_submission(payload))


@pytest.fixture
def memo(monkeypatch):
    """A fresh memo in place of the process's, so counts start at zero."""
    fresh = PlanMemo(httpcore.PLAN_MEMO_ENTRIES, httpcore.PLAN_MEMO_WEIGHT)
    monkeypatch.setattr(httpcore, "PLAN_MEMO", fresh)
    return fresh


@pytest.fixture
def expansions(monkeypatch):
    """Counts ``ExperimentSpec.expand`` calls."""
    calls = []
    original = ExperimentSpec.expand

    def counted(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(ExperimentSpec, "expand", counted)
    return calls


def test_spec_fields_are_all_edited():
    assert sorted(EDITS) == sorted(ExperimentSpec.from_dict(BASE).to_dict())


def test_repeat_submission_expands_once(memo, expansions):
    sub = submit(body(indices=[1]))
    first = submit(body())
    second = submit(body(request_id="again", include_status=True))
    assert len(expansions) == 1
    assert memo.stats() == {"hits": 2, "misses": 1, "entries": 1}
    assert [pos for pos, _job in first.planned] == [0, 1]
    assert [job for _pos, job in second.planned] == \
        [job for _pos, job in first.planned]
    assert sub.planned == [first.planned[1]]
    # Every fingerprint was computed off the event loop, on the miss.
    assert all(job._fingerprint is not None for _pos, job in first.planned)
    assert first.spec_bytes == second.spec_bytes == \
        ExperimentSpec.from_dict(BASE).to_json(indent=None).encode("utf-8")


def test_fingerprints_match_a_fresh_expansion(memo):
    submit(body())
    held = submit(body()).planned
    fresh = ExperimentSpec.from_dict(BASE).expand()
    assert [job.fingerprint() for _pos, job in held] == \
        [job.fingerprint() for job in fresh]


@pytest.mark.parametrize("field", sorted(EDITS))
def test_editing_any_spec_field_misses(memo, expansions, field):
    submit(body())
    edited = submit(body({**BASE, field: EDITS[field]}))
    assert len(expansions) == 2
    assert memo.stats() == {"hits": 0, "misses": 2, "entries": 2}
    assert edited.spec_bytes != submit(body()).spec_bytes


def test_invalid_spec_is_400_every_time_and_never_stored(memo, expansions):
    bad = body({**BASE, "benchmarks": ["no_such_benchmark"]})
    for _ in range(2):
        with pytest.raises(HttpError) as info:
            submit(bad)
        assert info.value.status == 400
        assert "unknown benchmark 'no_such_benchmark'" in info.value.message
    assert len(expansions) == 2
    assert memo.stats() == {"hits": 0, "misses": 2, "entries": 0}


def test_out_of_range_indices_is_400_on_every_submission(memo):
    for _ in range(2):
        with pytest.raises(HttpError) as info:
            submit(body(indices=[2]))
        assert info.value.status == 400
        assert "out of range" in info.value.message
    # The spec's plan is valid and held; only the selection failed.
    assert [pos for pos, _job in submit(body(indices=[1])).planned] == [1]
    assert memo.stats() == {"hits": 2, "misses": 1, "entries": 1}


def test_memo_evicts_least_recently_used_at_the_entry_bound(
        monkeypatch, expansions):
    monkeypatch.setattr(httpcore, "PLAN_MEMO", PlanMemo(2, 10**6))
    specs = [body({**BASE, "seeds": [seed]}) for seed in range(3)]
    submit(specs[0])
    submit(specs[1])
    submit(specs[0])          # seed 0 is now the most recently used
    submit(specs[2])          # evicts seed 1
    assert httpcore.PLAN_MEMO.stats()["entries"] == 2
    assert len(expansions) == 3
    submit(specs[0])
    assert len(expansions) == 3
    submit(specs[1])
    assert len(expansions) == 4


def test_memo_holds_no_more_than_its_weight():
    def plan(depths=(3,), seeds=(0,)):
        return ExperimentSpec.from_dict({
            **BASE, "seeds": list(seeds),
            "benchmarks": [f"scenario:clifford_t:n=4,depth={depth}"
                           for depth in depths]}).expand()

    memo = PlanMemo(10, 2 * plan_weight(plan()))
    memo.put("a", plan(seeds=[0]))
    memo.put("b", plan(seeds=[1]))
    assert memo.stats()["entries"] == 2
    memo.put("c", plan(seeds=[2]))      # over the weight: evicts "a"
    assert memo.get("a") is None and memo.get("c") is not None
    # A plan heavier than the whole budget is not stored at all.
    heavy = plan(depths=(3, 4, 5))
    assert plan_weight(heavy) > memo.max_weight
    memo.put("heavy", heavy)
    assert memo.get("heavy") is None and memo.get("b") is not None


def test_rewritten_qasm_file_is_planned_again(memo, expansions, tmp_path):
    path = tmp_path / "bell.qasm"
    header = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
    path.write_text(header + "h q[0];\ncx q[0],q[1];\n")
    spec = {**BASE, "benchmarks": [str(path)]}
    first = submit(body(spec)).planned
    submit(body(spec))
    assert len(expansions) == 1
    path.write_text(header + "h q[0];\ncx q[0],q[1];\nrz(0.3) q[1];\n")
    edited = submit(body(spec)).planned
    assert len(expansions) == 2
    assert [job.fingerprint() for _pos, job in edited] != \
        [job.fingerprint() for _pos, job in first]
    assert len(edited[0][1].circuit) == len(first[0][1].circuit) + 1


def _rows(stream):
    return [line for line in stream.splitlines()
            if b'"type":"summary"' not in line]


def test_rows_are_byte_identical_to_a_memo_less_run(monkeypatch):
    """Whole plans and sub-plans stream the same rows with and without
    the memo, and the second submission of a spec is a memo hit."""
    server, _break_stats = experiment_server()
    spec = {**BASE, "name": "memo-rows", "config": {"mst_period": 13}}
    with running(server):
        def post(**envelope):
            status, _headers, data = httpcore.blocking_request(
                "127.0.0.1", server.port, "POST", "/experiments",
                {"spec": spec, **envelope})
            assert status == 200, data
            return data

        monkeypatch.setattr(httpcore, "PLAN_MEMO", PlanMemo(0, 0))
        plain = [post(), post(indices=[1])]
        monkeypatch.setattr(httpcore, "PLAN_MEMO", PlanMemo(8, 10**6))
        memoised = [post(indices=[1]), post(), post()]
        assert httpcore.PLAN_MEMO.stats() == {
            "hits": 2, "misses": 1, "entries": 1}
    assert _rows(memoised[1]) == _rows(memoised[2]) == _rows(plain[0])
    assert _rows(memoised[0]) == _rows(plain[1]) == _rows(plain[0])[1:]


def test_cluster_plans_a_fresh_spec_once():
    """Router and shards share one process (and so one memo) here: the
    router's miss is the only expansion, and every shard lookup and the
    repeat are hits, which every ``GET /stats`` reports."""
    spec = {**BASE, "name": "memo-cluster", "seeds": [0, 1, 2, 3]}
    with ClusterHarness(shards=2, max_workers=1) as cluster:
        def stats():
            status, _headers, data = cluster.request("GET", "/stats")
            assert status == 200
            return json.loads(data)

        before = stats()["plan_memo"]
        first = cluster.request("POST", "/experiments", {"spec": spec})[2]
        second = cluster.request("POST", "/experiments", {"spec": spec})[2]
        after = stats()
    assert _rows(first) == _rows(second) and len(_rows(first)) == 4
    assert after["plan_memo"]["misses"] - before["misses"] == 1
    # One router hit on the repeat, and one per shard exchange.
    assert after["plan_memo"]["hits"] - before["hits"] >= 3
    assert all(shard["plan_memo"] == after["plan_memo"]
               for shard in after["shards"].values())


@pytest.mark.parametrize("include_status", [False, True])
def test_shard_envelope_splices_the_canonical_spec_bytes(include_status):
    envelope = SubmissionEnvelope.from_payload({
        "spec": {**BASE, "name": "m\u00e9mo", "grid": {"distance": [5, 7]}},
        "request_id": "r-1", "include_status": include_status})
    spec_bytes = canonical_dumps(envelope.spec.to_dict()).encode("utf-8")
    request = _Request(envelope, spec_bytes, {}, None)
    expected = SubmissionEnvelope(spec=envelope.spec,
                                  include_status=include_status,
                                  indices=(1, 3))
    assert ShardRouter._sub_envelope(request, [3, 1]) == \
        canonical_dumps(expected.to_dict()).encode("utf-8")
