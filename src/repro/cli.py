"""Command-line interface: ``python -m repro`` / ``rescq``.

Subcommands
-----------

``list``
    Print the Table 3 benchmark registry (paper vs generated gate counts),
    sorted by benchmark name.
``run``
    Execute one benchmark under one or more schedulers and print cycles.
    The benchmark may be a registered name (``qft_n18``), a
    ``scenario:<family>:key=value,...`` generator name, or a path to an
    OpenQASM 2.0 file (``rescq run path/to/file.qasm``).
``gen``
    Build a seeded scenario circuit (``rescq gen --list`` shows the
    families) and emit it as OpenQASM or appendix-B.7 text, optionally with
    its Table 3-style characteristics.
``sweep``
    Run one of the registered sensitivity sweeps (``rescq sweep --help``
    lists the axes) on a benchmark.
``exp``
    Run a declarative experiment from a JSON
    :class:`~repro.api.spec.ExperimentSpec` file, e.g.
    ``rescq exp examples/headline.json``.
``prep``
    Print the Figure 16 preparation-statistics table.
``serve``
    Run the sharded experiment service: an HTTP endpoint that accepts
    :class:`~repro.api.spec.ExperimentSpec` JSON on ``POST /experiments``
    and streams results back as NDJSON, deduplicating identical jobs
    against a shared result cache and across concurrent requests.  With
    ``--max-pending`` the service refuses work over its pending-jobs
    high-water mark with ``429`` + ``Retry-After`` instead of queueing
    unboundedly.
``route``
    Run the cluster shard router in front of N ``serve`` instances:
    rendezvous-hashes each planned job onto its owning shard, fans
    sub-plans out, and merges the NDJSON streams back into one plan-ordered
    response (see :mod:`repro.cluster`).  The router tracks live shard
    membership (``--health-interval``, ``--dead-after``) and re-routes
    jobs lost to a shard dying mid-stream (``--max-attempts``,
    ``--request-deadline``, ``--retry-seed``).
``cluster``
    Inspect a running router: ``cluster status URL`` prints the shard
    membership table (state, failure counters, last error per shard).
``cache``
    Inspect or maintain a result cache directory: ``stats``,
    ``gc --older-than AGE`` and ``verify``.

Both ``serve`` and ``route`` print a machine-parsable readiness line on
stdout once their socket is bound::

    RESCQ_READY role=serve host=127.0.0.1 port=43017

ending in the actually-bound port, so scripts driving ``--port 0``
(ephemeral ports) read the port from that line instead of grepping logs.

``run`` and ``sweep`` are thin spec builders: each constructs the equivalent
:class:`~repro.api.spec.ExperimentSpec` and executes it through
:func:`~repro.api.facade.run_experiment`, so their tables are byte-identical
to running the same spec through ``exp``.  All three accept ``--jobs N`` (fan
simulation jobs out over N spawned worker processes, about 1 s of start-up)
and ``--cache DIR`` (memoise finished jobs on disk); they print an ``[exec]``
accounting line after the table, and the table itself is byte-identical for
every ``--jobs`` value.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional, Sequence

from .analysis.report import format_circuit_stats, format_table
from .api.axes import AXIS_REGISTRY
from .api.facade import build_engine, render_experiment, run_experiment
from .api.registries import DEFAULT_SCHEDULER_NAMES, SCHEDULERS
from .api.spec import ExperimentSpec, SpecValidationError
from .circuits import to_artifact_format, to_qasm
from .rus import PreparationModel
from .service.service import ExperimentService
from .workloads import (
    SCENARIO_FAMILIES,
    ScenarioError,
    scenario_name,
    table3_rows,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    # repro.__version__ is resolved from the installed package metadata (with
    # a source-tree fallback) at import time.
    from . import __version__
    parser = argparse.ArgumentParser(
        prog="rescq",
        description="RESCQ reproduction: realtime scheduling for continuous-"
                    "angle QEC architectures")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table 3 benchmarks")

    run_parser = sub.add_parser("run", help="run one benchmark")
    run_parser.add_argument("benchmark",
                            help="benchmark name (e.g. qft_n18), scenario "
                                 "name (scenario:<family>:key=value,...) or "
                                 "path to an OpenQASM 2.0 file (*.qasm)")
    run_parser.add_argument("--schedulers",
                            default=",".join(DEFAULT_SCHEDULER_NAMES),
                            help="comma-separated scheduler names "
                                 f"(registered: {', '.join(SCHEDULERS.names())})")
    run_parser.add_argument("--distance", type=int, default=7)
    run_parser.add_argument("--error-rate", type=float, default=1e-4)
    run_parser.add_argument("--mst-period", type=int, default=25)
    run_parser.add_argument("--compression", type=float, default=0.0)
    run_parser.add_argument("--seeds", type=int, default=3)
    run_parser.add_argument("--profile", action="store_true",
                            help="collect and print per-phase kernel "
                                 "counters (simulated cycles per phase, "
                                 "routing/MST wall time)")
    run_parser.add_argument("--profile-out", metavar="FILE.json", default=None,
                            help="write the aggregated kernel profile as a "
                                 "canonical-JSON record to FILE.json "
                                 "(implies --profile)")
    _add_engine_arguments(run_parser)

    sweep_parser = sub.add_parser("sweep", help="run a sensitivity sweep")
    sweep_parser.add_argument("kind", choices=AXIS_REGISTRY.names(),
                              help="registered sweep axis")
    sweep_parser.add_argument("benchmark", help="benchmark name, e.g. qft_n18")
    sweep_parser.add_argument("--seeds", type=int, default=2)
    _add_engine_arguments(sweep_parser)

    exp_parser = sub.add_parser(
        "exp", help="run a declarative experiment from a JSON spec file")
    exp_parser.add_argument("spec", help="path to an ExperimentSpec JSON file")
    exp_parser.add_argument("--csv", metavar="PATH", default=None,
                            help="also write seed-level results as CSV")
    exp_parser.add_argument("--json", metavar="PATH", default=None,
                            help="also write seed-level results as JSON")
    _add_engine_arguments(exp_parser)

    gen_parser = sub.add_parser(
        "gen", help="generate a seeded scenario circuit")
    gen_parser.add_argument("family", nargs="?", default=None,
                            help="scenario family name (see --list)")
    gen_parser.add_argument("--list", action="store_true", dest="list_families",
                            help="list the scenario families and their "
                                 "parameters")
    gen_parser.add_argument("--set", dest="params", action="append",
                            default=[], metavar="KEY=VALUE",
                            help="generator parameter override (repeatable), "
                                 "e.g. --set depth=24 --set t_density=0.3")
    gen_parser.add_argument("--seed", type=int, default=None,
                            help="shorthand for --set seed=N")
    gen_parser.add_argument("--format", choices=("qasm", "artifact"),
                            default="qasm",
                            help="output format: OpenQASM 2.0 (default) or "
                                 "the appendix B.7 artifact text")
    gen_parser.add_argument("--out", metavar="PATH", default=None,
                            help="write the circuit to PATH instead of stdout")
    gen_parser.add_argument("--stats", action="store_true",
                            help="also print the Table 3-style "
                                 "characteristics of the generated circuit")

    prep_parser = sub.add_parser("prep", help="Figure 16 preparation statistics")
    prep_parser.add_argument("--distances", default="5,7,9,11,13")
    prep_parser.add_argument("--error-rates", default="1e-3,1e-4,1e-5")

    serve_parser = sub.add_parser(
        "serve", help="run the HTTP experiment service")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8765,
                              help="TCP port (0 picks a free port)")
    serve_parser.add_argument("--jobs", type=int, default=None, metavar="N",
                              help="worker processes (default: CPU count)")
    serve_parser.add_argument("--cache", default=None, metavar="PATH",
                              help="shared result cache directory (PATH or "
                                   "dir:PATH)")
    serve_parser.add_argument("--job-timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="kill a single simulation after this many "
                                   "seconds (default: no limit)")
    serve_parser.add_argument("--max-attempts", type=int, default=2,
                              help="tries a job gets when its worker process "
                                   "dies mid-run (default: 2)")
    serve_parser.add_argument("--max-pending", type=int, default=None,
                              metavar="N",
                              help="admission-control high-water mark: "
                                   "refuse new submissions with 429 while "
                                   "N or more jobs are pending (default: "
                                   "unbounded)")
    serve_parser.add_argument("--retry-after", type=float, default=1.0,
                              metavar="SECONDS",
                              help="Retry-After hint sent with 429 "
                                   "admission refusals (default: 1)")

    route_parser = sub.add_parser(
        "route", help="run the cluster shard router over serve instances")
    route_parser.add_argument("shards", nargs="+", metavar="URL",
                              help="backend serve base URLs, e.g. "
                                   "http://127.0.0.1:8765")
    route_parser.add_argument("--host", default="127.0.0.1")
    route_parser.add_argument("--port", type=int, default=8766,
                              help="TCP port (0 picks a free port)")
    route_parser.add_argument("--connect-timeout", type=float, default=5.0,
                              metavar="SECONDS",
                              help="per-shard connect budget before the "
                                   "router retries the next-ranked shard "
                                   "(default: 5)")
    route_parser.add_argument("--probe-timeout", type=float, default=2.0,
                              metavar="SECONDS",
                              help="per-shard /healthz and /stats probe "
                                   "budget (default: 2)")
    route_parser.add_argument("--health-interval", type=float, default=5.0,
                              metavar="SECONDS",
                              help="seconds between background health-probe "
                                   "rounds; 0 disables the probe loop "
                                   "(default: 5)")
    route_parser.add_argument("--dead-after", type=int, default=3,
                              metavar="N",
                              help="consecutive probe/connect failures "
                                   "before a shard is declared DEAD "
                                   "(default: 3)")
    route_parser.add_argument("--max-attempts", type=int, default=4,
                              metavar="N",
                              help="retry attempts per request, shared by "
                                   "placement and mid-stream recovery "
                                   "(default: 4)")
    route_parser.add_argument("--request-deadline", type=float, default=None,
                              metavar="SECONDS",
                              help="per-request wall budget; retries and "
                                   "Retry-After hints never extend past it "
                                   "(default: unbounded)")
    route_parser.add_argument("--retry-seed", type=int, default=None,
                              metavar="SEED",
                              help="seed the backoff-jitter RNG for "
                                   "reproducible retry timing (default: "
                                   "unseeded)")

    cluster_parser = sub.add_parser(
        "cluster", help="inspect a running cluster router")
    cluster_parser.add_argument("action", choices=("status",),
                                help="status: print the router's shard "
                                     "membership table")
    cluster_parser.add_argument("url", metavar="URL",
                                help="router base URL, e.g. "
                                     "http://127.0.0.1:8766")
    cluster_parser.add_argument("--timeout", type=float, default=10.0,
                                metavar="SECONDS",
                                help="HTTP budget for the status request "
                                     "(default: 10)")

    cache_parser = sub.add_parser(
        "cache", help="inspect or maintain a result cache")
    cache_parser.add_argument("action", choices=("stats", "gc", "verify"),
                              help="stats: entry/byte counts; gc: delete old "
                                   "entries; verify: integrity-check every "
                                   "entry (exit 1 if corrupt)")
    cache_parser.add_argument("path",
                              help="cache directory (PATH or dir:PATH)")
    cache_parser.add_argument("--older-than", default=None, metavar="AGE",
                              help="gc cutoff age, e.g. 45s, 30m, 12h or 7d "
                                   "(bare numbers are seconds)")
    return parser


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for simulation jobs "
                             "(default: 1, serial)")
    parser.add_argument("--cache", default=None, metavar="PATH",
                        help="on-disk result cache directory (PATH or "
                             "dir:PATH); repeated runs skip "
                             "already-measured points")


def _engine_from_args(args: argparse.Namespace) -> ExperimentService:
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    try:
        return build_engine(jobs=args.jobs, cache=args.cache)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--cache {args.cache!r} is not usable: {exc}")


def _exec_line(engine: ExperimentService) -> str:
    """The ``[exec]`` accounting line printed after every batch table."""
    stats = engine.stats
    text = (f"[exec] jobs={stats.jobs} executed={stats.executed} "
            f"cache_hits={stats.cache_hits}")
    if engine.cache is not None:
        text += f" {engine.cache.stats.describe()}"
    return text


def _scheduler_names(names: str) -> List[str]:
    schedulers = []
    for name in names.split(","):
        name = name.strip().lower()
        if name not in SCHEDULERS:
            raise SystemExit(f"unknown scheduler {name!r}; "
                             f"choose from {SCHEDULERS.names()}")
        schedulers.append(name)
    return schedulers


def _run_spec(spec: ExperimentSpec, engine: ExperimentService):
    try:
        return run_experiment(spec, engine)
    except SpecValidationError as exc:
        raise SystemExit(str(exc))


def _command_list() -> int:
    rows = sorted(table3_rows(), key=lambda row: str(row["name"]))
    print(format_table(rows, title="Table 3 benchmarks"))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    config = {"distance": args.distance,
              "physical_error_rate": args.error_rate,
              "mst_period": args.mst_period}
    profile = bool(args.profile or args.profile_out)
    if profile:
        config["profile_enabled"] = True
    spec = ExperimentSpec(
        name=args.benchmark,
        benchmarks=(args.benchmark,),
        schedulers=tuple(_scheduler_names(args.schedulers)),
        config=config,
        seeds=args.seeds,
        compression=args.compression,
    )
    with _engine_from_args(args) as engine:
        results = _run_spec(spec, engine)
    print(render_experiment(spec, results))
    if profile:
        rows = results.profile_rows()
        if rows:
            print()
            print(format_table(rows, title="kernel profile (summed over seeds)"))
        else:
            print("[profile] no profiled results (cache hits carry no "
                  "profile; rerun without --cache)")
        if args.profile_out:
            _write_profile_record(args.profile_out, spec, rows)
            print(f"[profile] wrote {args.profile_out}")
    print(_exec_line(engine))
    return 0


def _write_profile_record(path: str, spec: ExperimentSpec, rows) -> None:
    """Archive the aggregated profile as a canonical-JSON record.

    Canonical serialisation (sorted keys, no NaN, normalised ``-0.0``) keeps
    the file byte-stable for a given run, so bench jobs can diff archived
    hot-path breakdowns next to ``BENCH_kernel.json``.
    """
    from .canonical import canonical_dumps
    record = {
        "kind": "kernel_profile",
        "benchmark": spec.name,
        "schedulers": list(spec.schedulers),
        "seeds": spec.seeds,
        "config": dict(spec.config),
        "profile_rows": list(rows),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(record, indent=2))
        handle.write("\n")


def _command_sweep(args: argparse.Namespace) -> int:
    axis = AXIS_REGISTRY.get(args.kind)
    spec = ExperimentSpec(
        name=args.benchmark,
        benchmarks=(args.benchmark,),
        schedulers=axis.default_schedulers,
        grid={axis.parameter: axis.default_values},
        seeds=args.seeds,
        layout_seed=axis.layout_seed,
    )
    with _engine_from_args(args) as engine:
        results = _run_spec(spec, engine)
    print(render_experiment(spec, results))
    print(_exec_line(engine))
    return 0


def _command_exp(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec.load(args.spec)
    except OSError as exc:
        raise SystemExit(f"cannot read spec {args.spec!r}: {exc}")
    except SpecValidationError as exc:
        raise SystemExit(f"invalid spec {args.spec!r}: {exc}")
    with _engine_from_args(args) as engine:
        results = _run_spec(spec, engine)
    print(render_experiment(spec, results))
    print(_exec_line(engine))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(results.to_csv())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(results.to_json() + "\n")
    return 0


def _command_gen(args: argparse.Namespace) -> int:
    if args.list_families or args.family is None:
        if args.family is None and not args.list_families:
            raise SystemExit(
                "gen: name a scenario family or pass --list; families: "
                f"{SCENARIO_FAMILIES.names()}")
        rows = [{
            "family": name,
            "description": family.description,
            "parameters": " ".join(
                f"{p.name}={p.default}" for p in family.parameters),
        } for name, family in SCENARIO_FAMILIES.items()]
        print(format_table(rows, title="scenario generator families"))
        return 0
    if args.family not in SCENARIO_FAMILIES:
        raise SystemExit(f"gen: unknown scenario family {args.family!r}; "
                         f"families: {SCENARIO_FAMILIES.names()}")
    family = SCENARIO_FAMILIES.get(args.family)
    overrides = {}
    for item in args.params:
        key, equals, value_text = item.partition("=")
        if not equals or not key or not value_text:
            raise SystemExit(f"gen: malformed --set {item!r}; use KEY=VALUE")
        if key in overrides:
            raise SystemExit(f"gen: parameter {key!r} set twice")
        try:
            overrides[key] = family.parameter(key).parse(value_text,
                                                         family.name)
        except ScenarioError as exc:
            raise SystemExit(f"gen: {exc}")
    if args.seed is not None:
        if "seed" in overrides:
            raise SystemExit("gen: seed given both via --seed and --set "
                             "seed=...; use one")
        overrides["seed"] = args.seed
    try:
        name = scenario_name(args.family, **overrides)
        circuit = family.build(**overrides)
    except ScenarioError as exc:
        raise SystemExit(f"gen: {exc}")
    circuit.name = name
    if args.format == "qasm":
        text = to_qasm(circuit)
    else:
        text = to_artifact_format(circuit)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise SystemExit(f"gen: cannot write {args.out!r}: {exc}")
        print(f"[gen] wrote {args.out} ({name})")
    else:
        print(text, end="")
    if args.stats:
        # To stderr so `rescq gen ... --stats > c.qasm` still emits a valid
        # circuit file on stdout.
        print(format_circuit_stats([circuit], title="generated circuit"),
              file=sys.stderr)
    return 0


def _command_prep(args: argparse.Namespace) -> int:
    distances = [int(token) for token in args.distances.split(",")]
    error_rates = [float(token) for token in args.error_rates.split(",")]
    rows = []
    for p in error_rates:
        for d in distances:
            model = PreparationModel(distance=d, physical_error_rate=p)
            rows.append({
                "p": p,
                "d": d,
                "expected_attempts": round(model.expected_attempts(), 3),
                "expected_cycles": round(model.expected_cycles(), 3),
            })
    print(format_table(rows, title="Figure 16: |m_theta> preparation statistics"))
    return 0


def _run_until_signalled(start, stop) -> None:
    """Run ``await start()``, wait for SIGINT/SIGTERM, run ``await stop()``.

    The one event loop of ``rescq serve`` and ``rescq route``: ``start``
    binds and prints the readiness line, ``stop`` drains and prints the
    stopped line.
    """
    import asyncio
    import signal

    async def main() -> None:
        loop = asyncio.get_event_loop()
        stopping = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stopping.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await start()
        await stopping.wait()
        await stop()

    asyncio.run(main())


def _command_serve(args: argparse.Namespace) -> int:
    from .exec.cache import open_cache_backend
    from .service import ExperimentServer, ExperimentService, ServiceExecutor

    if args.jobs is not None and args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    cache = None
    if args.cache:
        try:
            cache = open_cache_backend(args.cache)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--cache {args.cache!r} is not usable: {exc}")
    try:
        executor = ServiceExecutor(max_workers=args.jobs,
                                   job_timeout=args.job_timeout,
                                   max_attempts=args.max_attempts)
        service = ExperimentService(executor=executor, cache=cache,
                                    max_pending=args.max_pending,
                                    retry_after=args.retry_after)
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    server = ExperimentServer(service, host=args.host, port=args.port)

    async def start() -> None:
        await server.start()
        print(f"[serve] listening on http://{server.host}:{server.port} "
              f"({executor.describe()}, cache={args.cache or 'off'}, "
              f"max_pending={args.max_pending or 'unbounded'})",
              flush=True)
        # Machine-parsable readiness line; port last so scripts can read it
        # with a bare `sed 's/.*port=//'`.
        print(f"RESCQ_READY role=serve host={server.host} "
              f"port={server.port}", flush=True)

    async def stop() -> None:
        print("[serve] draining...", flush=True)
        await server.stop(drain=True)
        print(f"[serve] stopped; {service.describe()}", flush=True)

    _run_until_signalled(start, stop)
    return 0


def _command_route(args: argparse.Namespace) -> int:
    from .cluster import ShardRouter

    import random as random_module

    rng = (random_module.Random(args.retry_seed)
           if args.retry_seed is not None else None)
    try:
        router = ShardRouter(args.shards, host=args.host, port=args.port,
                             connect_timeout=args.connect_timeout,
                             probe_timeout=args.probe_timeout,
                             health_interval=args.health_interval,
                             dead_after=args.dead_after,
                             max_attempts=args.max_attempts,
                             request_deadline=args.request_deadline,
                             rng=rng)
    except ValueError as exc:
        raise SystemExit(f"route: {exc}")

    async def start() -> None:
        await router.start()
        await router.probe_once()  # so the readiness line reports live counts
        print(f"[route] routing over {len(router.shards)} shard(s): "
              f"{', '.join(router.shards)}", flush=True)
        # ``port=`` stays last: the e2e scripts extract it with
        # ``sed 's/.*port=//'``.
        print(f"RESCQ_READY role=route host={router.host} "
              f"shards={router.membership.live_count}/"
              f"{len(router.membership)} "
              f"port={router.port}", flush=True)

    async def stop() -> None:
        print("[route] draining...", flush=True)
        await router.stop()
        stats = router.stats
        print(f"[route] stopped; requests={stats.requests} "
              f"jobs={stats.jobs} retried={stats.retried} "
              f"recovered={stats.recovered} gave_up={stats.gave_up} "
              f"rejected={stats.rejected} failed={stats.failed}", flush=True)

    _run_until_signalled(start, stop)
    return 0


def _command_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import json as json_module

    from .cluster.membership import membership_rows
    from .service.httpcore import blocking_request, parse_http_url

    try:
        host, port, base = parse_http_url(args.url)
    except ValueError as exc:
        raise SystemExit(f"cluster: {exc}")
    try:
        status, _headers, data = blocking_request(
            host, port, "GET", f"{base}/shards", timeout=args.timeout)
    except (OSError, asyncio.TimeoutError) as exc:
        raise SystemExit(f"cluster: cannot reach {args.url}: {exc}")
    if status != 200:
        raise SystemExit(f"cluster: {args.url} answered HTTP {status}: "
                         f"{data[:200].decode('utf-8', 'replace')}")
    try:
        snapshot = json_module.loads(data.decode("utf-8"))["membership"]
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"cluster: malformed /shards payload from "
                         f"{args.url}: {exc}")
    counts = snapshot.get("counts", {})
    total = sum(value for value in counts.values() if isinstance(value, int))
    print(f"[cluster] {args.url}: {counts.get('live', 0)}/{total} live "
          f"(suspect={counts.get('suspect', 0)} "
          f"dead={counts.get('dead', 0)} "
          f"draining={counts.get('draining', 0)}; "
          f"dead_after={snapshot.get('dead_after', '?')})")
    print(format_table(membership_rows(snapshot),
                       title="Shard membership"))
    return 0


def _parse_age(text: str) -> float:
    """Parse a gc age: bare seconds or a number with an s/m/h/d suffix."""
    scales = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    scale = 1.0
    number = text.strip()
    if number and number[-1].lower() in scales:
        scale = scales[number[-1].lower()]
        number = number[:-1]
    try:
        seconds = float(number) * scale
    except ValueError:
        raise SystemExit(f"cache gc: malformed age {text!r}; use e.g. "
                         f"45s, 30m, 12h or 7d")
    if not 0 <= seconds < math.inf:
        raise SystemExit(f"cache gc: age must be >= 0, got {text!r}")
    return seconds


def _command_cache(args: argparse.Namespace) -> int:
    import os.path

    from .exec.cache import DirectoryCache, cache_directory

    try:
        directory = cache_directory(args.path)
        if not os.path.exists(directory):
            raise SystemExit(f"cache: no cache at {args.path!r}")
        backend = DirectoryCache(directory)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cache: cannot open {args.path!r}: {exc}")
    if args.action == "stats":
        entries = list(backend.entries())
        total = sum(entry.size_bytes for entry in entries)
        print(f"[cache] {args.path}: {len(entries)} entries, "
              f"{total} bytes")
        return 0
    if args.action == "gc":
        if args.older_than is None:
            raise SystemExit("cache gc: pass --older-than AGE "
                             "(e.g. 45s, 30m, 12h, 7d)")
        removed = backend.gc(_parse_age(args.older_than))
        print(f"[cache] {args.path}: removed {removed} entries older "
              f"than {args.older_than}")
        return 0
    check = backend.verify()
    print(f"[cache] {args.path}: {check.describe()}")
    for fingerprint in check.corrupt:
        print(f"[cache] corrupt: {fingerprint}")
    return 0 if check.is_healthy else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "exp":
        return _command_exp(args)
    if args.command == "gen":
        return _command_gen(args)
    if args.command == "prep":
        return _command_prep(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "route":
        return _command_route(args)
    if args.command == "cluster":
        return _command_cluster(args)
    if args.command == "cache":
        return _command_cache(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
