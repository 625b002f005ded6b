"""The benchmark reaches into the library by name; every name must resolve.

The tracer wraps library functions, and the workloads read the construction
tables and the case lists, so a rename fails here rather than in a benchmark
run.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(monkeypatch, name: str, folder: str = "perfbench"):
    """Load <folder>/<name>.py by path."""
    path = ROOT / folder / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{folder}_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_resolve(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    assert tracing.LAYERS
    for layer in tracing.LAYERS:
        owner = importlib.import_module(f"reflector.{layer.module}")
        for part in layer.path.split("."):
            assert hasattr(owner, part), f"{layer.name}: reflector.{layer.module}.{layer.path}"
            owner = getattr(owner, part)
        assert callable(owner), layer.name


def test_benchmark_workloads_build(monkeypatch):
    """One pass of every declared workload builds; no item is called."""
    workloads = _load(monkeypatch, "workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}
    for name, make in workloads.WORKLOADS.items():
        items = make(1).pass_items()
        assert items, name
        for item in items:
            assert callable(item.call) and callable(item.check), item.label


def test_census_pass_checks_clean(monkeypatch):
    """One pass of the census workload runs, and every class number is the expected one."""
    workloads = _load(monkeypatch, "workloads")
    for item in workloads.WORKLOADS["census"](1).pass_items():
        assert item.check(item.call()) == [], item.label


def test_certify_pass_checks_clean(monkeypatch):
    """One pass of the certify workload runs, and every check on the verdict table is clean."""
    workloads = _load(monkeypatch, "workloads")
    for item in workloads.WORKLOADS["certify"](1).pass_items():
        assert item.check(item.call()) == [], item.label


def test_query_pass_checks_clean(monkeypatch):
    """One pass of the query workload runs, and every CLI request gives the expected JSON."""
    workloads = _load(monkeypatch, "workloads")
    for item in workloads.WORKLOADS["query"](1).pass_items():
        assert item.check(item.call()) == [], item.label


def test_traced_passes_report_their_work(monkeypatch):
    """A traced census pass counts its 2 classes, every traced candidate check of a
    certify pass passes, and uninstalling restores every name the tracer rebound."""
    tracing = _load(monkeypatch, "tracing")
    workloads = _load(monkeypatch, "workloads")
    census = workloads.WORKLOADS["census"](1).pass_items()
    certify = workloads.WORKLOADS["certify"](1).pass_items()
    holders = tracing._reflector_modules()
    holders += [v for m in holders for v in vars(m).values()
                if isinstance(v, type) and v.__module__.startswith("reflector.")]
    before = [(holder, dict(vars(holder))) for holder in holders]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for item in census + certify:
            assert item.check(item.call()) == [], item.label
    finally:
        tracer.uninstall()
    for holder, names in before:
        now = vars(holder)
        assert all(now[name] is value for name, value in names.items()), holder
    metrics = tracer.metrics(1, lambda start, end: end - start)
    assert metrics["classify.class_number.calls"] == len(census)
    assert metrics["classify.class_number.classes"] == 2
    assert metrics["reflcheck.check_candidate.calls"] > 0
    assert metrics["reflcheck.check_candidate.passed"] == metrics["reflcheck.check_candidate.calls"]


def test_the_sweep_covers_the_2u_rows_and_runs_one(monkeypatch):
    """tools/sweep_2u.py sweeps the 55 2U rows of the tables, and a cheap row runs in
    its own process to its class number.  The sweep module imports no library, the
    untimed warm-up fills the sweep's bytecode cache with the library's modules,
    and the timed child finds every module it imports there: it may write
    bytecode, yet the cache is unchanged."""
    from reflector.classify import table_rows

    monkeypatch.delitem(sys.modules, "reflector")
    sweep = _load(monkeypatch, "sweep_2u", "tools")
    assert "reflector" not in sys.modules
    want = [row for row in table_rows() if row[1].startswith("2U+")]
    found = sweep.rows()
    assert [row[:5] for row in found] == want and len(want) == 55
    row = next(row for row in found if row[1] == "2U+A2")
    assert sweep.classnumber_argv(row)[:5] == ["classnumber", "--rank", "2", "--prime", "3"]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    with sweep.bytecode_cache(sweep.SRC) as cache:
        def stamps():
            return {p: p.stat().st_mtime_ns for p in Path(cache).rglob("*.pyc")}

        warm = stamps()
        names = {p.name.split(".")[0] for p in warm if p.parent.name == "reflector"}
        assert {"__init__", "cli", "classify", "discforms", "roots"} <= names
        record = sweep.run_row(row, sweep.SRC, cache)
        assert stamps() == warm
    assert (record["exit"], record["count"]) == (0, 1)
    assert record["wall_s"] > 0 and record["maxrss_mb"] > 0
