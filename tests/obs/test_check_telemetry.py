"""The CI telemetry check, ``.github/scripts/check_telemetry.py``.

The ``chaos`` and ``serve-fleet`` CI jobs run the script against real
processes.  Here it runs against in-process servers: a report written by
``repro-chem query fleet-stats`` over two serve replicas, plus a wire
scrape of a memo server.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro import cli
from repro.parallel.service import MemoServer, RemoteMemoStore
from repro.serve import ServeClient, ServeServer

_SCRIPT = Path(__file__).resolve().parents[2] / ".github" / "scripts" / "check_telemetry.py"


@pytest.fixture(scope="module")
def check_telemetry():
    spec = importlib.util.spec_from_file_location("check_telemetry", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.fixture()
def fleet(tiny_advisor):
    servers = [ServeServer(tiny_advisor).start() for _ in range(2)]
    yield [srv.url for srv in servers]
    for srv in servers:
        srv.shutdown()


def _fleet_stats(urls, tmp_path, capsys) -> str:
    """Write `repro-chem query fleet-stats` output to a file, like CI does."""
    assert cli.main(["query", "fleet-stats", "--url", ",".join(urls)]) == 0
    report = tmp_path / "fleet-telemetry.json"
    report.write_text(capsys.readouterr().out)
    return str(report)


def test_passes_on_a_serving_fleet_and_memo_server(
    check_telemetry, fleet, probe_X, tmp_path, capsys
):
    for url in fleet:
        with ServeClient(url) as client:
            client.predict(probe_X)
    with MemoServer(tmp_path / "memo") as memo:
        store = RemoteMemoStore(memo.url)
        try:
            store.put("ns", "k", 1)
        finally:
            store.close()
        report = _fleet_stats(fleet, tmp_path, capsys)
        assert check_telemetry([report, "--replicas", "2", "--memo", memo.url]) == 0
        out = capsys.readouterr().out
    for url in fleet:
        assert f"{url}: schema_version=1, 1 requests served" in out
    assert f"{memo.url}: schema_version=1," in out


def test_fails_on_a_replica_that_served_nothing(
    check_telemetry, fleet, probe_X, tmp_path, capsys
):
    with ServeClient(fleet[0]) as client:
        client.predict(probe_X)
    report = _fleet_stats(fleet, tmp_path, capsys)
    with pytest.raises(SystemExit, match=f"{fleet[1]}: no requests served"):
        check_telemetry([report, "--replicas", "2"])


def test_fails_on_a_missing_replica(check_telemetry, fleet, probe_X, tmp_path, capsys):
    with ServeClient(fleet[0]) as client:
        client.predict(probe_X)
    report = _fleet_stats(fleet[:1], tmp_path, capsys)
    with pytest.raises(SystemExit, match="expected 2 replicas"):
        check_telemetry([report, "--replicas", "2"])


def test_passes_a_post_kill_report_with_one_replica(
    check_telemetry, tiny_advisor, probe_X, tmp_path, capsys
):
    # The serve-fleet job's post-kill shape: fleet-stats over a dead and a
    # live replica exits 1 and lists only the live one in its report.
    with ServeServer(tiny_advisor) as dead:
        pass
    with ServeServer(tiny_advisor) as live:
        with ServeClient(live.url) as client:
            client.predict(probe_X)
        urls = f"{dead.url},{live.url}"
        assert cli.main(["query", "fleet-stats", "--url", urls, "--timeout", "2"]) == 1
        captured = capsys.readouterr()
    assert f"query: fleet-stats: {dead.url}" in captured.err
    report = tmp_path / "fleet-postkill.json"
    report.write_text(captured.out)
    assert check_telemetry([str(report), "--replicas", "1"]) == 0
    assert f"{live.url}: schema_version=1, 1 requests served" in capsys.readouterr().out
