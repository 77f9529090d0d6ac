"""``benchmarks/benchutils.emit_json`` writes only into ``$BENCH_JSON_DIR``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "benchutils.py"


@pytest.fixture()
def benchutils():
    spec = importlib.util.spec_from_file_location("benchutils", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unset_dir_writes_nothing(benchutils, tmp_path, monkeypatch):
    monkeypatch.delenv("BENCH_JSON_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert benchutils.emit_json("unit", {"x": 1}) is None
    assert list(tmp_path.iterdir()) == []


def test_set_dir_receives_the_document(benchutils, tmp_path, monkeypatch):
    out = tmp_path / "bench-results"
    monkeypatch.setenv("BENCH_JSON_DIR", str(out))
    monkeypatch.chdir(tmp_path)
    path = benchutils.emit_json("unit", {"x": 1})
    assert Path(path) == out / "BENCH_unit.json"
    document = json.loads(Path(path).read_text())
    assert document["benchmark"] == "unit"
    assert document["results"] == {"x": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["bench-results"]
