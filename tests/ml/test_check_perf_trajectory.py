"""The CI speed-floor check, ``.github/scripts/check_perf_trajectory.py``.

The ``memo-service`` CI job runs the script on the report of
``benchmarks/perf_trajectory.py``.  Here it runs on synthetic reports.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / ".github" / "scripts" / "check_perf_trajectory.py"


@pytest.fixture(scope="module")
def check():
    spec = importlib.util.spec_from_file_location("check_perf_trajectory", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def report(tmp_path, hist_speedup=3.0, rows1=200.0):
    doc = {
        "fit": {"engines": {"hist_speedup": hist_speedup, "exact_s": 30.0, "hist_s": 10.0}},
        "predict": {"rows1": {"speedup": rows1}},
    }
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(doc))
    return path, doc


def test_passes_at_the_floors(check, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    path, _ = report(tmp_path)
    assert check([str(path)]) == 0
    out = capsys.readouterr().out
    assert "hist fit speedup at GB-750xdepth-10: 3.00x >= 3x" in out
    assert "1-row packed predict speedup: 200.00x >= 200x" in out


@pytest.mark.parametrize(
    "below",
    [dict(hist_speedup=np.nextafter(3.0, 0.0)), dict(rows1=np.nextafter(200.0, 0.0))],
    ids=["hist_speedup", "rows1"],
)
def test_fails_just_below_each_floor(check, tmp_path, monkeypatch, below):
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    path, _ = report(tmp_path, **below)
    with pytest.raises(SystemExit, match="speedup"):
        check([str(path)])


@pytest.mark.parametrize("section", ["fit", "predict"])
def test_fails_on_a_missing_key(check, tmp_path, monkeypatch, section):
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    path, doc = report(tmp_path)
    missing = doc["fit"]["engines"] if section == "fit" else doc["predict"]["rows1"]
    missing.pop("hist_speedup" if section == "fit" else "speedup")
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match="report has no"):
        check([str(path)])


def test_appends_the_job_summary(check, tmp_path, monkeypatch):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    path, doc = report(tmp_path)
    assert check([str(path)]) == 0
    text = summary.read_text()
    assert text.startswith("### GB fit engines + packed prediction (BENCH.json)")
    body = text.split("```json\n", 1)[1].rsplit("\n```", 1)[0]
    assert json.loads(body) == {"fit_engines": doc["fit"]["engines"], "predict": doc["predict"]}
