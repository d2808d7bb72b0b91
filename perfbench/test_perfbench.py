"""Tests of the benchmark itself: span arithmetic, metric names, guards,
and a tiny-scale run of each workload through the driver.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

import run as bench
from calib import CAL_REF_S, calibrate, scale
from spans import Tracer, self_times
from workload import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
LAYERS = ("cli", "exec", "topology", "core", "engine", "routing", "traffic", "metrics")


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_times_subtract_child_spans_and_rollups():
    spans = [
        ("exec.run", 0.0, 10.0, -1, None),
        ("exec.cell", 1.0, 9.0, 0, "c"),
        ("engine.drain", 2.0, 8.0, 1, "c"),
        ("exec.store_save", 9.0, 9.5, 0, None),
    ]
    rollups = [(2, "routing.decide", 100, 4.0, "c")]
    got = self_times(spans, rollups)
    # run: 10 - (8 + 0.5); cell: 8 - 6; save: 0.5
    assert got["exec"] == pytest.approx(1.5 + 2.0 + 0.5)
    assert got["engine"] == pytest.approx(6.0 - 4.0)
    assert got["routing"] == pytest.approx(4.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_tracer_records_parents_cells_and_outermost_rollups():
    tr = Tracer(clock=FakeClock())
    dest = tr.rollup("traffic.dest", lambda x: x)
    nested = tr.rollup("traffic.dest", lambda x: dest(x))  # a wrapping pattern
    drain = tr.span("engine.drain", lambda: [nested(1), nested(2)])
    tr.cell = "abc"
    cell = tr.begin("exec.cell")
    drain()
    tr.end(cell)
    data = tr.to_dict()
    names = [s[0] for s in data["spans"]]
    assert names == ["exec.cell", "engine.drain"]
    assert data["spans"][1][3] == 0  # drain's parent is the cell span
    assert data["spans"][1][4] == "abc"
    ((parent, name, calls, secs, cell_id),) = data["rollups"]
    assert (parent, name, calls, cell_id) == (1, "traffic.dest", 2, "abc")
    assert secs == 2.0  # one clock tick per outermost call, inner ones untimed


def test_tracer_rejects_misnested_spans():
    tr = Tracer(clock=FakeClock())
    a = tr.begin("exec.run")
    tr.begin("exec.cell")
    with pytest.raises(RuntimeError):
        tr.end(a)


# ----------------------------------------------------------------------
# host-speed scaling
# ----------------------------------------------------------------------
def test_scale_reads_times_at_the_reference_speed():
    # A core running the loop at half the reference speed doubles every
    # time taken on it; scaling takes the factor back out.
    assert scale(3.0, [2 * CAL_REF_S, 2 * CAL_REF_S]) == pytest.approx(1.5)
    assert scale(3.0, [CAL_REF_S, 3 * CAL_REF_S]) == pytest.approx(1.5)
    assert calibrate() > 0


def test_process_time_excludes_its_own_calibrations():
    usage = type("Usage", (), {"ru_maxrss": 2048})()
    report = {"cal": [CAL_REF_S, CAL_REF_S]}
    proc = bench.Proc(10.0, 1.0, [CAL_REF_S, CAL_REF_S], usage, report)
    assert proc.busy == pytest.approx(10.0 - 2 * CAL_REF_S)
    assert proc.wall == pytest.approx(proc.busy)
    assert proc.setup == pytest.approx(1.0)
    assert proc.rss_mb == 2.0


# ----------------------------------------------------------------------
# BENCHMARK.json and the driver agree
# ----------------------------------------------------------------------
def test_benchmark_json_names_valid_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == ["h6_table2", "h3_scenarios_oracle"]
    assert set(gated) <= set(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"]]
    names += list(per_layer)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in list(e2e.values()) + list(per_layer.values()):
        assert UNIT.fullmatch(unit), unit
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["name"].partition(".")[0] in LAYERS + ("trace",)


# ----------------------------------------------------------------------
# guards
# ----------------------------------------------------------------------
def _cell(backend="compiled", lowered=True):
    return {"digest": "d" * 64, "backend": backend, "lowered": lowered}


def test_guard_rejects_a_cell_on_the_python_backend():
    wl = WORKLOADS["h6_table2"]
    bench.check_cells(wl, [_cell()] * wl.cells)
    with pytest.raises(bench.CheckFailed, match="backend 'python'"):
        bench.check_cells(wl, [_cell()] * (wl.cells - 1) + [_cell("python")])


def test_guard_rejects_a_cell_on_the_wrong_traffic_path():
    lowered = WORKLOADS["h2_fig2_sweep"]
    unlowered = WORKLOADS["h3_scenarios_oracle"]
    with pytest.raises(bench.CheckFailed, match="unlowered traffic path"):
        bench.check_cells(lowered, [_cell(lowered=False)] * lowered.cells)
    with pytest.raises(bench.CheckFailed, match="lowered traffic path"):
        bench.check_cells(unlowered, [_cell(lowered=True)] * unlowered.cells)


def test_traced_calls_reveal_the_traffic_path():
    trace = {
        "spans": [
            ["exec.cell", 0, 1, -1, "low"],
            ["exec.cell", 1, 2, -1, "unl"],
            ["engine.drain", 1, 2, 1, "unl"],
        ],
        "rollups": [[2, "traffic.dest", 5, 0.1, "unl"]],
    }
    assert bench.inferred_paths(trace) == {"low": "lowered", "unl": "unlowered"}


def test_guard_fails_when_the_kernel_is_absent(tmp_path):
    with pytest.raises(bench.BenchError, match="does not load"):
        bench.check_kernel(ROOT, tmp_path / "_ckernel.so")


def test_guard_fails_when_the_kernel_cannot_be_built(tmp_path):
    with pytest.raises(bench.BenchError, match="_ckernel.c"):
        bench.build_kernel(tmp_path, tmp_path / "work")
    src = tmp_path / "src/repro/engine"
    src.mkdir(parents=True)
    (src / "_ckernel.c").write_text("this is not C\n")
    (tmp_path / "setup.py").write_text((ROOT / "setup.py").read_text())
    with pytest.raises(bench.BenchError, match="building the compiled kernel"):
        bench.build_kernel(tmp_path, tmp_path / "work")


# ----------------------------------------------------------------------
# tiny-scale runs of every workload through the driver
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("perfbench")
    try:
        bench.build_kernel(ROOT, work)
    except bench.BenchError as exc:  # no C toolchain here
        pytest.skip(f"compiled kernel not buildable: {exc}")
    return work


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_run_shows_the_structure_the_code_implies(name, work):
    wl = WORKLOADS[name]
    out = bench.run(name, 3, 0, True, root=ROOT, work=work, smoke=True)
    assert out["correct"], out["error"]
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(m) == set(bench.PER_LAYER)
    assert m["exec.cells_computed"] == wl.cells
    assert m["exec.cells_cached"] == wl.cells
    assert m["core.constructs"] == wl.cells
    assert m["core.retained_sims"] > 0
    if wl.path == "lowered":
        assert m["engine.lowered_cells"] == wl.cells
        assert m["traffic.dest_calls"] == 0
        assert m["metrics.sink_calls"] == 0
    else:
        assert m["engine.lowered_cells"] == 0
        assert m["traffic.dest_calls"] > 0
        assert m["metrics.sink_calls"] > 0
        assert m["metrics.oracle_verify_s"] > 0
    assert not list(work.glob("run-*")), "run directory left behind"


def test_smoke_untraced_run_reports_every_end_to_end_metric(work):
    out = bench.run("h6_table2", 3, 0, False, root=ROOT, work=work, smoke=True)
    assert out["correct"], out["error"]
    assert out["pairs"] == 1
    assert out["attempted"] == WORKLOADS["h6_table2"].cells
    assert out["failed"] == 0
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(m) == set(bench.END_TO_END)
    # setup_s pools set-up processes too, so it need not be below wall_s.
    assert m["setup_s"] > 0 and m["wall_s"] > 0
    assert m["rerun_s"] > 0 and m["peak_rss_mb"] > 0


def test_lowered_min_cells_make_no_python_decide_calls(work, tmp_path):
    ctx = {
        "workload": "h6_table2",
        "seed": 3,
        "kernel": bench.build_kernel(ROOT, work),
        "root": ROOT,
        "env": bench.clean_env(ROOT),
        "run_dir": tmp_path,
        "smoke": True,
    }
    pair = bench.run_pair(ctx, True, 0, 1)
    trace = pair.compute.report["trace"]
    min_cells = {d for d, e in pair.entries.items() if e["result"]["routing"] == "min"}
    assert len(min_cells) == 1
    decide = [r for r in trace["rollups"] if r[1] == "routing.decide"]
    assert decide, "non-minimal cells call decide"
    assert not [r for r in decide if r[4] in min_cells]
