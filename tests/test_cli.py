"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.cli import build_parser, main


def cli_process(*argv):
    """``subprocess`` arguments that run ``python -m repro *argv``."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(repo_root, "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return {"args": [sys.executable, "-m", "repro", *argv], "text": True,
            "env": env, "cwd": repo_root}


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "qft_n18"])
        assert args.benchmark == "qft_n18"
        assert args.distance == 7
        assert args.seeds == 3

    def test_sweep_kinds(self):
        args = build_parser().parse_args(["sweep", "mst-period", "qft_n18"])
        assert args.kind == "mst-period"

    def test_version_reports_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("rescq ")
        assert out.strip().split()[-1][0].isdigit()


class TestCommands:
    def test_list_prints_table3(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "qft_n160" in out
        assert "paper_rz" in out

    def test_list_is_sorted_by_name(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split()[0] for line in lines[3:] if line.strip()]
        assert names == sorted(names)

    def test_prep_prints_figure16_table(self, capsys):
        assert main(["prep", "--distances", "5,7", "--error-rates", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "expected_attempts" in out
        assert out.count("\n") >= 4

    def test_run_small_benchmark(self, capsys):
        code = main(["run", "VQE_n13", "--schedulers", "autobraid,rescq",
                     "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rescq" in out and "autobraid" in out
        assert "mean_cycles" in out

    def test_run_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            main(["run", "VQE_n13", "--schedulers", "magic"])

    def test_run_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "not_a_benchmark"])
        assert "not_a_benchmark" in str(excinfo.value)


class TestExpCommand:
    def spec_payload(self):
        return {
            "name": "cli-exp-test",
            "benchmarks": ["VQE_n13"],
            "schedulers": ["autobraid", "rescq"],
            "seeds": 1,
        }

    def write_spec(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exp_runs_spec_file(self, tmp_path, capsys):
        assert main(["exp", self.write_spec(tmp_path, self.spec_payload())]) == 0
        out = capsys.readouterr().out
        assert "rescq" in out and "autobraid" in out
        assert "[exec] jobs=2 executed=2" in out

    def test_exp_matches_equivalent_run_byte_for_byte(self, tmp_path, capsys):
        payload = self.spec_payload()
        payload["name"] = "VQE_n13"
        assert main(["exp", self.write_spec(tmp_path, payload)]) == 0
        exp_out = capsys.readouterr().out
        assert main(["run", "VQE_n13", "--schedulers", "autobraid,rescq",
                     "--seeds", "1"]) == 0
        run_out = capsys.readouterr().out
        assert exp_out == run_out

    def test_exp_writes_csv_and_json(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, self.spec_payload())
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        assert main(["exp", spec, "--csv", str(csv_path),
                     "--json", str(json_path)]) == 0
        capsys.readouterr()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("benchmark,scheduler,seed")
        rows = json.loads(json_path.read_text())
        assert len(rows) == 2
        assert {row["scheduler"] for row in rows} == {"autobraid", "rescq"}

    def test_exp_cached_rerun_executes_zero_jobs(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, self.spec_payload())
        cache = str(tmp_path / "cache")
        assert main(["exp", spec, "--cache", cache]) == 0
        first = capsys.readouterr().out
        assert main(["exp", spec, "--cache", cache]) == 0
        second = capsys.readouterr().out
        assert ("[exec] jobs=2 executed=2 cache_hits=0 hits=0 misses=2 "
                "stores=2") in first.splitlines()
        assert ("[exec] jobs=2 executed=0 cache_hits=2 hits=2 misses=0 "
                "stores=0") in second.splitlines()

        def table(text):
            return [line for line in text.splitlines()
                    if not line.startswith("[exec]")]
        assert table(first) == table(second)

    def test_exp_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["exp", str(tmp_path / "nope.json")])
        assert "cannot read spec" in str(excinfo.value)

    def test_exp_invalid_spec_errors(self, tmp_path):
        payload = self.spec_payload()
        payload["schedulers"] = ["warp-drive"]
        with pytest.raises(SystemExit) as excinfo:
            main(["exp", self.write_spec(tmp_path, payload)])
        assert "warp-drive" in str(excinfo.value)

    def test_exp_sweep_spec_prints_sweep_table(self, tmp_path, capsys):
        payload = self.spec_payload()
        payload["grid"] = {"mst_period": [25, 50]}
        payload["schedulers"] = ["rescq"]
        assert main(["exp", self.write_spec(tmp_path, payload)]) == 0
        out = capsys.readouterr().out
        assert "mst-period sweep for VQE_n13" in out
        assert "mst_period" in out


class TestGenCommand:
    def test_gen_list_prints_families(self, capsys):
        assert main(["gen", "--list"]) == 0
        out = capsys.readouterr().out
        assert "clifford_t" in out and "congestion" in out
        assert "t_density" in out

    def test_gen_without_family_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen"])
        assert "--list" in str(excinfo.value)

    def test_gen_emits_qasm_to_stdout(self, capsys):
        assert main(["gen", "clifford_t", "--set", "n=4", "--set", "depth=3",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OPENQASM 2.0;")
        assert "qreg q[4];" in out

    def test_gen_is_deterministic(self, capsys):
        argv = ["gen", "clifford_rz", "--set", "n=5", "--set", "depth=4",
                "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_gen_artifact_format(self, capsys):
        assert main(["gen", "clifford_t", "--set", "n=4", "--set", "depth=2",
                     "--format", "artifact"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].isdigit()

    def test_gen_writes_file_and_run_consumes_it(self, tmp_path, capsys):
        path = tmp_path / "scenario.qasm"
        assert main(["gen", "congestion", "--set", "n=6", "--set", "layers=2",
                     "--out", str(path), "--stats"]) == 0
        captured = capsys.readouterr()
        assert f"wrote {path}" in captured.out
        assert "rz_per_cnot" in captured.err  # --stats table goes to stderr
        assert main(["run", str(path), "--schedulers", "rescq",
                     "--seeds", "1"]) == 0
        run_out = capsys.readouterr().out
        assert "mean_cycles" in run_out

    def test_gen_stats_keeps_stdout_a_valid_circuit(self, capsys):
        assert main(["gen", "clifford_t", "--set", "n=4", "--set", "depth=2",
                     "--stats"]) == 0
        captured = capsys.readouterr()
        from repro.circuits import parse_qasm
        assert len(parse_qasm(captured.out)) > 0  # stdout parses cleanly
        assert "rz_per_cnot" in captured.err

    def test_gen_seed_flag_conflicts_with_set_seed(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "clifford_t", "--set", "seed=1", "--seed", "2"])
        assert "use one" in str(excinfo.value)

    @pytest.mark.parametrize("argv,needle", [
        (["gen", "warp_core"], "unknown scenario family"),
        (["gen", "clifford_t", "--set", "depth"], "KEY=VALUE"),
        (["gen", "clifford_t", "--set", "n=0"], ">= 2"),
        (["gen", "clifford_t", "--set", "t_density=2"], "<= 1.0"),
        (["gen", "clifford_t", "--set", "n=2", "--set", "n=3"], "twice"),
        (["gen", "clifford_t", "--set", "warp=1"], "no parameter"),
    ])
    def test_gen_invalid_parameters_error(self, argv, needle):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert needle in str(excinfo.value)


class TestRunErrorPaths:
    def test_run_scenario_benchmark(self, capsys):
        assert main(["run", "scenario:clifford_t:n=5,depth=3,seed=1",
                     "--schedulers", "greedy", "--seeds", "1"]) == 0
        assert "mean_cycles" in capsys.readouterr().out

    def test_run_malformed_qasm_reports_position(self, tmp_path):
        path = tmp_path / "broken.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[1];\nif (c==1) x q[0];\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(path)])
        message = str(excinfo.value)
        assert "broken.qasm:3" in message
        assert "classical" in message

    def test_run_missing_qasm_file_errors(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(tmp_path / "absent.qasm")])
        assert "cannot read" in str(excinfo.value)

    def test_run_bad_scenario_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "scenario:clifford_t:n=1"])
        assert ">= 2" in str(excinfo.value)


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.jobs is None
        assert args.cache is None
        assert args.max_attempts == 2

    def test_serve_accepts_port_zero(self):
        args = build_parser().parse_args(["serve", "--port", "0",
                                          "--jobs", "2"])
        assert args.port == 0 and args.jobs == 2

    def test_serve_rejects_zero_jobs(self):
        with pytest.raises(SystemExit, match="--jobs"):
            main(["serve", "--jobs", "0"])

    @pytest.mark.parametrize("flag,message", [
        ("--retry-after", "retry_after must be positive"),
        ("--job-timeout", "job_timeout must be positive"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_serve_rejects_non_finite_seconds(self, flag, message, value):
        with pytest.raises(SystemExit, match=message):
            main(["serve", flag, value])


class TestParseAge:
    @pytest.mark.parametrize("text,expected", [
        ("90", 90.0), ("30s", 30.0), ("5m", 300.0), ("2h", 7200.0),
        ("1d", 86400.0), ("1.5h", 5400.0), ("0", 0.0),
    ])
    def test_valid_ages(self, text, expected):
        from repro.cli import _parse_age
        assert _parse_age(text) == expected

    @pytest.mark.parametrize("text", ["", "soon", "1w", "-5m"])
    def test_invalid_ages(self, text):
        from repro.cli import _parse_age
        with pytest.raises(SystemExit, match="cache gc"):
            _parse_age(text)


class TestCacheCommand:
    def populate(self, spec):
        from repro.exec.cache import open_cache_backend
        from repro.sim import SimulationResult
        backend = open_cache_backend(spec)
        for seed in range(2):
            backend.put(f"{seed:064x}", SimulationResult(
                "bench", "rescq", seed=seed, total_cycles=10, num_qubits=2,
                traces=[], data_busy_cycles={}))
        return spec

    def test_stats_counts_entries(self, tmp_path, capsys):
        spec = self.populate(str(tmp_path / "cache"))
        assert main(["cache", "stats", spec]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out and "bytes" in out

    def test_stats_on_prefixed_spec(self, tmp_path, capsys):
        spec = self.populate(f"dir:{tmp_path / 'cache'}")
        assert main(["cache", "stats", spec]) == 0
        assert "2 entries" in capsys.readouterr().out

    def test_regular_file_is_refused_with_a_hint(self, tmp_path):
        leftover = tmp_path / "results"
        leftover.write_bytes(b"not a cache directory")
        with pytest.raises(SystemExit,
                           match="is not a directory; a result cache is a "
                                 "directory of <fingerprint>.json files"):
            main(["cache", "stats", str(leftover)])

    def test_network_cache_url_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit,
                           match="network cache tier was removed; pass a "
                                 "cache directory"):
            main(["cache", "stats", "http://127.0.0.1:1"])
        assert list(tmp_path.iterdir()) == []

    def test_verify_healthy_exits_zero(self, tmp_path, capsys):
        spec = self.populate(str(tmp_path / "cache"))
        assert main(["cache", "verify", spec]) == 0
        assert "entries=2 ok=2 ok" in capsys.readouterr().out

    def test_verify_corrupt_exits_one(self, tmp_path, capsys):
        spec = self.populate(str(tmp_path / "cache"))
        (tmp_path / "cache" / ("b" * 64 + ".json")).write_text("{broken")
        assert main(["cache", "verify", spec]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT(1)" in out
        assert f"corrupt: {'b' * 64}" in out

    def test_gc_requires_older_than(self, tmp_path):
        spec = self.populate(str(tmp_path / "cache"))
        with pytest.raises(SystemExit, match="--older-than"):
            main(["cache", "gc", spec])

    def test_gc_with_large_age_keeps_everything(self, tmp_path, capsys):
        spec = self.populate(str(tmp_path / "cache"))
        assert main(["cache", "gc", spec, "--older-than", "7d"]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert main(["cache", "stats", spec]) == 0
        assert "2 entries" in capsys.readouterr().out

    @pytest.mark.parametrize("age", ["nan", "inf", "nanh"])
    def test_gc_rejects_non_finite_age(self, tmp_path, age):
        spec = self.populate(str(tmp_path / "cache"))
        with pytest.raises(SystemExit, match="age must be >= 0"):
            main(["cache", "gc", spec, "--older-than", age])
        assert main(["cache", "stats", spec]) == 0

    def test_gc_with_zero_age_removes_everything(self, tmp_path, capsys):
        spec = self.populate(str(tmp_path / "cache"))
        assert main(["cache", "gc", spec, "--older-than", "0s"]) == 0
        assert "removed 2 entries" in capsys.readouterr().out

    def test_missing_path_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no cache at"):
            main(["cache", "stats", str(tmp_path / "absent")])

    def test_prefixed_spec_checks_the_real_location(self, tmp_path):
        with pytest.raises(SystemExit, match="no cache at"):
            main(["cache", "stats", f"dir:{tmp_path / 'absent'}"])


class TestProcessExitCodes:
    """The satellite contract: error paths exit non-zero with stderr text."""

    def run_cli(self, *argv):
        return subprocess.run(**cli_process(*argv), capture_output=True)

    def test_malformed_qasm_input(self, tmp_path):
        path = tmp_path / "broken.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[2];\nreset q[0];\n")
        proc = self.run_cli("run", str(path))
        assert proc.returncode == 1
        assert "broken.qasm:3" in proc.stderr
        assert "reset is not supported" in proc.stderr

    def test_unknown_benchmark_name(self):
        proc = self.run_cli("run", "not_a_benchmark")
        assert proc.returncode == 1
        assert "unknown benchmark 'not_a_benchmark'" in proc.stderr
        assert "scenario:<family>" in proc.stderr

    def test_invalid_gen_parameters(self):
        proc = self.run_cli("gen", "clifford_t", "--set", "depth=-3")
        assert proc.returncode == 1
        assert "must be >= 1" in proc.stderr

    def test_invalid_gen_choice_uses_argparse_exit_code(self):
        proc = self.run_cli("gen", "clifford_t", "--format", "midi")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr


class TestServeRouteProcesses:
    """``serve`` and ``route`` announce readiness and stop on SIGTERM."""

    @staticmethod
    def start(*argv):
        proc = subprocess.Popen(**cli_process(*argv), stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        # A process that never gets ready is killed, which ends the read.
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        lines = []
        try:
            for line in proc.stdout:
                lines.append(line)
                if line.startswith("RESCQ_READY"):
                    return proc, line.split("port=")[1].strip()
        finally:
            watchdog.cancel()
        proc.wait(timeout=60)
        pytest.fail(f"no RESCQ_READY line from {argv}: {''.join(lines)}")

    @staticmethod
    def terminate(proc):
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
        return proc.returncode, out

    def test_serve_and_route_ready_then_stop_on_sigterm(self):
        serve, serve_port = self.start("serve", "--port", "0", "--jobs", "1")
        try:
            route, _route_port = self.start(
                "route", f"http://127.0.0.1:{serve_port}", "--port", "0")
            code, out = self.terminate(route)
            assert code == 0, out
            assert "[route] draining..." in out
            assert "[route] stopped; requests=0" in out
        finally:
            code, out = self.terminate(serve)
        assert code == 0, out
        assert "[serve] draining..." in out
        assert "[serve] stopped;" in out
