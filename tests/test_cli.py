"""Tests for the repro-chem command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.parallel import clear_caches, configure_store
from repro.parallel.service import RemoteMemoStore


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "-O", "44", "-V", "260", "--nodes", "5", "--tile", "40"]
        )
        assert args.command == "simulate"
        assert args.occupied == 44 and args.virtual == 260

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro-chem {repro.__version__}"

    def test_serve_and_query_args(self):
        args = build_parser().parse_args(["serve", "--port", "0", "--single-flight"])
        assert args.command == "serve"
        assert args.port == 0 and args.single_flight and args.preset == "fast"
        # Inert, but perfbench's serve workload still passes it.
        args = build_parser().parse_args(["serve", "--private-arenas"])
        assert args.command == "serve"
        args = build_parser().parse_args(
            ["query", "predict", "--url", "serve://h:7601", "--features", "44,260,5,40"]
        )
        assert args.command == "query"
        assert args.action == "predict" and args.features == ["44,260,5,40"]


class TestCommands:
    def test_simulate_prints_breakdown(self, capsys):
        code = main(["simulate", "-O", "44", "-V", "260", "--nodes", "5", "--tile", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "runtime:" in out and "node-hours" in out

    def test_simulate_infeasible_reports_error(self, capsys):
        code = main(
            ["simulate", "-O", "146", "-V", "1568", "--nodes", "1", "--tile", "80"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "Infeasible" in err

    def test_generate_data_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "data.csv"
        code = main(
            ["generate-data", "--machine", "aurora", "--rows", "150", "--output", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        assert "150 rows" in capsys.readouterr().out


class TestMemoFlags:
    """The ``--memo-dir`` / ``REPRO_MEMO_DIR`` wiring of the CLI."""

    @pytest.fixture(autouse=True)
    def _isolated_store(self):
        configure_store(None)
        clear_caches()
        yield
        configure_store(None)
        clear_caches()

    def test_memo_dir_accepted_on_compare_models_and_active_learn(self):
        args = build_parser().parse_args(["compare-models", "--memo-dir", "/tmp/m"])
        assert args.memo_dir == "/tmp/m"
        args = build_parser().parse_args(["active-learn", "--memo-dir", "/tmp/m"])
        assert args.memo_dir == "/tmp/m"

    def test_memo_dir_defaults_to_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO_DIR", "/tmp/from-env")
        args = build_parser().parse_args(["compare-models"])
        assert args.memo_dir == "/tmp/from-env"
        monkeypatch.delenv("REPRO_MEMO_DIR")
        args = build_parser().parse_args(["compare-models"])
        assert args.memo_dir is None

    def test_memo_dir_tilde_expands(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        from repro.parallel.store import make_store

        store = make_store(
            build_parser().parse_args(["compare-models", "--memo-dir", "~/m"]).memo_dir
        )
        assert store.root == tmp_path / "m"

    def test_compare_models_memo_dir_makes_second_run_fit_free(
        self, tmp_path, capsys, monkeypatch, small_aurora_dataset
    ):
        import repro.data.datasets as datasets

        monkeypatch.setattr(
            datasets, "build_dataset", lambda *args, **kwargs: small_aurora_dataset
        )
        argv = [
            "compare-models",
            "--models",
            "PR",
            "DT",
            "--max-train",
            "50",
            "--memo-dir",
            str(tmp_path / "memo"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "[memo] dir=" in first

        configure_store(None)
        clear_caches()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "fits=0" in second  # fully warm: zero model fits
        # Identical results, replayed from the store.
        strip = lambda out: [line for line in out.splitlines() if "[memo]" not in line]
        assert strip(first) == strip(second)


class TestMemoServe:
    """The ``memo-serve`` subcommand: the operational front of the memo service."""

    def test_parser_accepts_memo_serve(self):
        args = build_parser().parse_args(
            ["memo-serve", "--memo-dir", "/tmp/m", "--port", "0"]
        )
        assert args.command == "memo-serve"
        assert args.host == "127.0.0.1" and args.port == 0

    def test_memo_serve_end_to_end(self, tmp_path):
        """Run the real subcommand in a subprocess (--port 0), parse the
        announced URL, and exercise the store through it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1]) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "memo-serve",
                "--memo-dir",
                str(tmp_path / "served"),
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on memo://" in banner, banner
            url = banner.rsplit("listening on ", 1)[1].strip()
            store = RemoteMemoStore(url)
            assert store.ping()
            store.put("cli", ("k", 1), {"v": [1, 2, 3]})
            assert store.get("cli", ("k", 1)) == {"v": [1, 2, 3]}
            store.close()
            assert (tmp_path / "served" / "objects").is_dir()
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestResilienceFlags:
    """ISSUE 9: retry/timeout knobs and the clean-failure contract."""

    def test_parser_accepts_resilience_knobs(self):
        args = build_parser().parse_args(
            ["query", "ping", "--url", "serve://h:1", "--timeout", "2.5",
             "--retries", "4"]
        )
        assert args.timeout == 2.5 and args.retries == 4
        args = build_parser().parse_args(
            ["cluster-status", "--dispatcher", "cluster://h:1", "--retries", "3"]
        )
        assert args.retries == 3

    @staticmethod
    def _dead_port() -> int:
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_query_unreachable_server_exits_cleanly(self, capsys):
        url = f"serve://127.0.0.1:{self._dead_port()}"
        code = main(
            ["query", "stq", "-O", "44", "-V", "260", "--url", url,
             "--timeout", "1.0", "--retries", "0"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("query:")
        assert "Traceback" not in err

    def test_query_malformed_url_exits_cleanly(self, capsys):
        code = main(
            ["query", "ping", "--url", "not-a-url", "--retries", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("query:")
        assert "Traceback" not in err

    def test_cluster_status_retries_then_exits_cleanly(self, capsys):
        url = f"cluster://127.0.0.1:{self._dead_port()}"
        code = main(
            ["cluster-status", "--dispatcher", url, "--timeout", "0.5",
             "--retries", "1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cluster-status:")
        assert "Traceback" not in err
