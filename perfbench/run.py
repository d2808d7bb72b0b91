"""End-to-end benchmark of the dragonfly simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload h6_table2 --seed 1 --seconds 20 --trace 0

The driver builds the compiled engine kernel from the checkout's
``src/repro/engine/_ckernel.c`` (through the checkout's ``setup.py``,
into ``.bench_build/perfbench/``, never into ``src/``), then spawns the
workload as fresh single processes with ``jobs=1``, a fresh result
store and every ``REPRO_*`` variable removed from the environment.

One *pair* is a compute process against an empty store followed by
``RERUNS`` rerun processes against the store it filled (a user
re-rendering the figure).  ``--trace 0`` repeats untraced pairs, each
followed by a set-up process (it exits when the first drain begins),
until ``--seconds`` have passed (at least one pair), then spawns set-up
processes and reruns until it has ``SETUP_SAMPLES`` and
``RERUN_SAMPLES`` of them, and reports the medians of the end-to-end
metrics.  Every time is scaled to a reference host speed by a fixed
loop timed on the same core around and inside each process
(:mod:`calib`); the driver pins itself and its processes to one core
for that.  ``--trace 1`` alternates untraced compute processes with
traced pairs of one rerun each and
reports the per-layer metrics of the traced pairs (medians), whose
counts and times cover the traced compute process and its rerun, plus
the tracing overhead.

Outside the timed processes the driver checks the outputs: every cell
ran on the compiled backend and on the traffic path the workload
declares, every process exited 0, the rerun computed nothing, the
``results_digest`` over the stored payloads is the same in every pair,
oracle verdicts passed where the workload audits, and the shortest
stored cell recomputed on the python backend gives the same payload.
The last line of standard output is one JSON object (see
``BENCHMARK.json`` for the metric list).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
from statistics import median

from calib import calibrate, scale
from spans import self_times
from workload import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
WORKLOAD_PY = HERE / "workload.py"

#: Fewest set-up and rerun samples a ``--trace 0`` run takes: when the
#: pairs that fit in --seconds give fewer, extra processes are spawned.
SETUP_SAMPLES = 5
RERUN_SAMPLES = 15
#: Rerun processes per untraced pair: a rerun is short, so it is sampled more.
RERUNS = 3
#: A workload process still running after this many seconds is killed.
PROC_TIMEOUT = 100


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, for one metric list of ``BENCHMARK.json``."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


#: End-to-end metrics (``--trace 0``) and per-layer metrics (``--trace 1``).
END_TO_END = metric_units("end_to_end")
PER_LAYER = metric_units("per_layer")

#: Span name -> the per-layer time metric that sums it.
SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "exec.run": "exec.run_s",
    "exec.store_save": "exec.store_save_s",
    "exec.store_load": "exec.store_load_s",
    "topology.build": "topology.build_s",
    "topology.service_table": "topology.build_s",
    "core.construct": "core.construct_s",
    "core.collect": "core.collect_s",
    "engine.drain": "engine.drain_s",
    "engine.post_horizon_drain": "engine.post_horizon_drain_s",
    "metrics.oracle_verify": "metrics.oracle_verify_s",
}

#: Span name -> the per-layer count metric that counts it.
SPAN_COUNTS = {
    "exec.store_save": "exec.store_saves",
    "exec.store_load": "exec.store_loads",
    "topology.build": "topology.builds",
    "core.construct": "core.constructs",
}

#: Rollup name -> (calls metric, seconds metric).
ROLLUP_METRICS = {
    "routing.decide": ("routing.decide_calls", "routing.decide_s"),
    "traffic.dest": ("traffic.dest_calls", "traffic.dest_s"),
    "metrics.sink": ("metrics.sink_calls", "metrics.sink_s"),
}

#: Store-root files that are not result entries.
NON_RESULT = {"shard.json", "failures.json"}


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, no kernel)."""


class CheckFailed(Exception):
    """An output check failed: the run's results are not correct."""


# ----------------------------------------------------------------------
# the compiled kernel
# ----------------------------------------------------------------------
def kernel_key(root: pathlib.Path) -> str:
    """Cache key of a kernel build: its sources and this interpreter."""
    h = hashlib.sha256()
    for rel in ("src/repro/engine/_ckernel.c", "setup.py"):
        h.update((root / rel).read_bytes())
    h.update(sys.version.encode())
    return h.hexdigest()[:20]


def build_kernel(root: pathlib.Path, work: pathlib.Path) -> pathlib.Path:
    """Build (or reuse) the kernel of *root*'s sources under *work*.

    Runs the checkout's own ``setup.py build_ext`` with the build and
    library directories under *work*, so the flags are the commit's and
    nothing is written into ``src/``.  Raises :class:`BenchError` when no
    kernel comes out; never falls back to the python backend.
    """
    if not (root / "src/repro/engine/_ckernel.c").is_file():
        raise BenchError(f"{root} holds no src/repro/engine/_ckernel.c")
    name = "_ckernel" + sysconfig.get_config_var("EXT_SUFFIX")
    final = work / "ckernel" / kernel_key(root)
    if (final / name).is_file():
        return final / name
    work.mkdir(parents=True, exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="build-", dir=work))
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "setup.py",
                "-q",
                "build_ext",
                "--build-lib",
                str(tmp / "lib"),
                "--build-temp",
                str(tmp / "tmp"),
            ],
            cwd=root,
            env=clean_env(root),
            capture_output=True,
            text=True,
            timeout=600,
        )
        built = tmp / "lib/repro/engine" / name
        if proc.returncode != 0 or not built.is_file():
            raise BenchError(
                "building the compiled kernel failed:\n" + proc.stdout + proc.stderr
            )
        final.mkdir(parents=True, exist_ok=True)
        os.replace(built, final / name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final / name


def check_kernel(root: pathlib.Path, kernel: pathlib.Path) -> None:
    """Raise :class:`BenchError` unless *kernel* loads as the default."""
    proc = subprocess.run(
        [sys.executable, str(WORKLOAD_PY), "--check-kernel", str(kernel)],
        cwd=root,
        env=clean_env(root),
        capture_output=True,
        text=True,
        timeout=PROC_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"compiled kernel does not load:\n{proc.stderr}")


# ----------------------------------------------------------------------
# spawning workload processes
# ----------------------------------------------------------------------
def clean_env(root: pathlib.Path) -> dict[str, str]:
    """The environment without ``REPRO_*`` and with only src/ on the path."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env["PYTHONPATH"] = str(root / "src")
    return env


class Proc:
    """One finished workload process as seen from outside.

    ``busy`` is its host seconds from spawn to exit less the calibrations
    it ran itself; ``wall`` and ``setup`` are scaled to the reference
    speed by every calibration taken around and inside it (:mod:`calib`).
    """

    def __init__(self, wall, setup, cals, usage, report) -> None:
        inner = report["cal"]
        self.busy = wall - sum(inner)
        self.wall = scale(self.busy, cals + inner)
        self.setup = scale(setup, cals + inner) if setup is not None else None
        self.rss_mb = usage.ru_maxrss / 1024
        self.report = report


def spawn(
    ctx: dict,
    store: pathlib.Path,
    trace: bool,
    tag: str,
    setup_only: bool = False,
    calibrate_cells: bool = False,
) -> Proc:
    """Run one workload process to exit; time it and read its report.

    The host-speed loop is timed right before the spawn and right after
    the exit, and with *calibrate_cells* also inside the process as each
    drain begins and as each cell ends.  With *setup_only* the process
    exits as soon as the first drain begins.
    """
    run_dir: pathlib.Path = ctx["run_dir"]
    report = run_dir / f"{tag}.report.json"
    spec = run_dir / f"{tag}.spec.json"
    spec.write_text(
        json.dumps(
            {
                "workload": ctx["workload"],
                "seed": ctx["seed"],
                "store": str(store),
                "report": str(report),
                "kernel": str(ctx["kernel"]),
                "trace": trace,
                "setup_only": setup_only,
                "calibrate": calibrate_cells,
                "smoke": ctx.get("smoke", False),
            }
        )
    )
    log = run_dir / f"{tag}.log"
    cal_before = calibrate()
    with open(log, "w") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKLOAD_PY), str(spec)],
            cwd=ctx["root"],
            env=ctx["env"],
            stdout=out,
            stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(PROC_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        except BaseException:  # interrupted: leave no workload process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    cal_after = calibrate()
    # Reaped by wait4 (for its rusage); tell the Popen object so.
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        data = json.loads(report.read_text())
    except (OSError, ValueError):
        data = None
    if code != 0 or data is None or data["exit_code"] != 0:
        tail = log.read_text()[-2000:]
        raise CheckFailed(f"{tag}: workload process exited {code}:\n{tail}")
    setup = data["first_drain"] - t0 if data["first_drain"] is not None else None
    return Proc(wall, setup, [cal_before, cal_after], usage, data)


# ----------------------------------------------------------------------
# reading and checking the result store
# ----------------------------------------------------------------------
def read_store(store: pathlib.Path) -> dict[str, dict]:
    """Digest -> stored entry, for every result entry of *store*."""
    entries = {}
    for path in sorted(store.glob("*.json")):
        if path.name not in NON_RESULT:
            entries[path.stem] = json.loads(path.read_text())
    return entries


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def results_digest(entries: dict[str, dict]) -> str:
    """SHA-256 over the canonical result payloads, in digest order."""
    h = hashlib.sha256()
    for digest in sorted(entries):
        h.update(digest.encode())
        h.update(canonical(entries[digest]["result"]).encode())
    return h.hexdigest()


def store_bytes(store: pathlib.Path) -> int:
    return sum(
        p.stat().st_size for p in store.glob("*.json") if p.name not in NON_RESULT
    )


def check_entries(wl, entries: dict[str, dict]) -> None:
    """The stored results are complete, intact and audited as declared."""
    if len(entries) != wl.cells:
        raise CheckFailed(f"store holds {len(entries)} cells, expected {wl.cells}")
    for digest, entry in entries.items():
        result = entry["result"]
        want = hashlib.sha256(canonical(result).encode()).hexdigest()
        if entry.get("checksum") != want:
            raise CheckFailed(f"cell {digest[:12]}: checksum mismatch")
        if result["events_processed"] <= 0 or result["generated_packets"] <= 0:
            raise CheckFailed(f"cell {digest[:12]}: generated no traffic")
        verdict = result["oracle"]
        if wl.oracle and not (verdict and verdict.get("passed") is True):
            raise CheckFailed(f"cell {digest[:12]}: oracle verdict {verdict!r}")
        if not wl.oracle and verdict is not None:
            raise CheckFailed(f"cell {digest[:12]}: unexpected oracle verdict")


def check_cells(wl, cells: list[dict]) -> None:
    """Every cell ran compiled and on the traffic path *wl* declares."""
    if len(cells) != wl.cells:
        raise CheckFailed(f"{len(cells)} cells ran, expected {wl.cells}")
    for cell in cells:
        name = (cell["digest"] or "?")[:12]
        if cell["backend"] != "compiled":
            raise CheckFailed(
                f"cell {name} ran on engine backend {cell['backend']!r}, "
                "not 'compiled'"
            )
        path = "lowered" if cell["lowered"] else "unlowered"
        if path != wl.path:
            raise CheckFailed(
                f"cell {name} took the {path} traffic path; "
                f"{wl.name} declares {wl.path}"
            )


def inferred_paths(trace: dict) -> dict[str, str]:
    """Cell digest -> traffic path, inferred from the traced calls.

    A lowered cell makes no Python ``dest()`` call and no Python sink
    call; an unlowered cell makes both (it generates and delivers).
    """
    calls: dict[str, int] = {}
    for span in trace["spans"]:
        if span[0] == "exec.cell":
            calls.setdefault(span[4], 0)
    for _parent, name, n, _secs, cell in trace["rollups"]:
        if name in ("traffic.dest", "metrics.sink") and cell is not None:
            calls[cell] = calls.get(cell, 0) + n
    return {c: ("unlowered" if n else "lowered") for c, n in calls.items()}


def check_plan(wl, proc: Proc, computed: int) -> None:
    """*proc* computed *computed* cells, read the rest and failed none."""
    (plan,) = proc.report["plans"]
    if plan["failed"] or plan["quarantined"]:
        raise CheckFailed(f"{plan['failed']} cells failed: {plan}")
    if (plan["computed"], plan["cached"]) != (computed, wl.cells - computed):
        raise CheckFailed(
            f"expected {computed} computed / {wl.cells - computed} cached cells, "
            f"got {plan}"
        )
    if len(proc.report["cells"]) != computed:
        raise CheckFailed(f"{len(proc.report['cells'])} cells simulated: {plan}")


# ----------------------------------------------------------------------
# one pair: compute against an empty store, then rerun against it
# ----------------------------------------------------------------------
class Pair:
    """A compute process and the reruns against the store it filled."""

    def __init__(self, compute: Proc, reruns: list[Proc], entries, nbytes: int):
        self.compute = compute
        self.reruns = reruns
        self.entries = entries
        self.digest = results_digest(entries)
        self.store_bytes = nbytes


def rerun(ctx: dict, store: pathlib.Path, trace: bool, tag: str) -> Proc:
    """One rerun against the filled *store*, checked to compute nothing."""
    before = results_digest(read_store(store))
    proc = spawn(ctx, store, trace, tag)
    if results_digest(read_store(store)) != before:
        raise CheckFailed("the rerun changed the stored results")
    check_plan(WORKLOADS[ctx["workload"]], proc, 0)
    return proc


def run_pair(ctx: dict, trace: bool, index: int, reruns: int) -> Pair:
    """One compute process, then *reruns* reruns against its store; checked."""
    wl = WORKLOADS[ctx["workload"]]
    kind = "traced" if trace else "plain"
    store = ctx["run_dir"] / f"store-{kind}-{index}"
    compute = spawn(
        ctx, store, trace, f"{kind}-{index}-compute", calibrate_cells=not trace
    )
    entries = read_store(store)
    nbytes = store_bytes(store)
    check_entries(wl, entries)
    check_cells(wl, compute.report["cells"])
    check_plan(wl, compute, wl.cells)
    reruns = [
        rerun(ctx, store, trace, f"{kind}-{index}-rerun-{r}") for r in range(reruns)
    ]
    if trace:
        paths = inferred_paths(compute.report["trace"])
        wrong = {c: p for c, p in paths.items() if p != wl.path}
        if len(paths) != wl.cells or wrong:
            raise CheckFailed(
                f"traced calls show cells off the declared {wl.path} path: {wrong}"
            )
    if "probe" not in ctx:
        ctx["probe"] = store
    else:
        shutil.rmtree(store, ignore_errors=True)
    return Pair(compute, reruns, entries, nbytes)


def probe_python(ctx: dict) -> None:
    """The shortest stored cell, recomputed on the python backend, matches."""
    entries = read_store(ctx["probe"])
    digest = min(entries, key=lambda d: (entries[d]["result"]["events_processed"], d))
    out = ctx["run_dir"] / "probe.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(WORKLOAD_PY),
            "--probe",
            str(ctx["probe"] / f"{digest}.json"),
            str(out),
        ],
        cwd=ctx["root"],
        env=ctx["env"],
        capture_output=True,
        text=True,
        timeout=PROC_TIMEOUT,
    )
    if proc.returncode != 0:
        raise CheckFailed(f"python-backend probe failed:\n{proc.stderr[-2000:]}")
    if canonical(json.loads(out.read_text())) != canonical(entries[digest]["result"]):
        raise CheckFailed(
            f"cell {digest[:12]}: python backend result differs from compiled"
        )


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(pairs: list[Pair], setups: list[float], reruns: list[float]):
    """Medians over the untraced compute processes and the samples."""
    return {
        "wall_s": median([p.compute.wall for p in pairs]),
        "setup_s": median(setups),
        "rerun_s": median(reruns),
        "peak_rss_mb": median([p.compute.rss_mb for p in pairs]),
    }


def layer_metrics(pair: Pair) -> dict[str, float]:
    """Per-layer metrics of one traced pair (compute + rerun summed)."""
    m = {name: 0.0 for name in PER_LAYER}
    decide_in_drain = 0.0
    for proc in (pair.compute, *pair.reruns):
        report = proc.report
        trace = report["trace"]
        spans = trace["spans"]
        for name, start, end, _parent, _cell in spans:
            if name in SPAN_METRICS:
                m[SPAN_METRICS[name]] += end - start
            if name in SPAN_COUNTS:
                m[SPAN_COUNTS[name]] += 1
        for i, (name, start, end, _parent, _cell) in enumerate(spans):
            if name == "exec.run":
                in_cells = sum(
                    s[2] - s[1] for s in spans if s[3] == i and s[0] == "exec.cell"
                )
                m["exec.overhead_s"] += end - start - in_cells
        for parent, name, calls, secs, _cell in trace["rollups"]:
            calls_metric, secs_metric = ROLLUP_METRICS[name]
            m[calls_metric] += calls
            m[secs_metric] += secs
            if name == "routing.decide" and spans[parent][0] == "engine.drain":
                decide_in_drain += secs
        for layer, secs in self_times(spans, trace["rollups"]).items():
            m[f"{layer}.self_s"] += secs
        for plan in report["plans"]:
            m["exec.cells_computed"] += plan["computed"]
            m["exec.cells_cached"] += plan["cached"]
            m["exec.retries"] += plan["retried"]
        m["engine.events"] += report["counters"].get("engine.events", 0)
        m["engine.activations"] += report["counters"].get("engine.activations", 0)
    report = pair.compute.report
    cells = report["cells"]
    m["exec.store_bytes"] = pair.store_bytes
    m["core.retained_sims"] = report["retained_sims"]
    rss = report["rss_mb"]
    if len(rss) > 1:
        m["core.rss_growth_mb_per_cell"] = (rss[-1] - rss[0]) / (len(rss) - 1)
    paths = inferred_paths(report["trace"])
    m["engine.lowered_cells"] = sum(1 for p in paths.values() if p == "lowered")
    drain = m["engine.drain_s"]
    if drain > 0:
        m["engine.events_per_s"] = m["engine.events"] / drain
        m["engine.router_cycles_per_s"] = (
            sum(c["routers"] * c["cycles"] for c in cells) / drain
        )
        m["routing.decide_share"] = decide_in_drain / drain
    generated = sum(c["generated"] for c in cells)
    if generated:
        m["routing.decide_per_packet"] = m["routing.decide_calls"] / generated
    return m


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def setup_sample(ctx: dict, index: int) -> float:
    """One set-up process against a fresh store; its scaled set-up time."""
    store = ctx["run_dir"] / f"store-setup-{index}"
    proc = spawn(ctx, store, False, store.name, setup_only=True)
    shutil.rmtree(store, ignore_errors=True)
    return proc.setup


def measure(ctx: dict, seconds: float, trace: bool):
    """Run pairs for *seconds*; return (metrics, pairs).

    An untraced run follows each pair with a set-up process, so that the
    samples of every metric are spread over the whole run.
    """
    plain: list[Pair] = []
    traced: list[Pair] = []
    setups: list[float] = []
    t0 = time.monotonic()
    while True:
        # A traced run needs only the untraced compute time, for the overhead.
        plain.append(run_pair(ctx, False, len(plain), 0 if trace else RERUNS))
        if trace:
            traced.append(run_pair(ctx, True, len(traced), 1))
        else:
            setups.append(setup_sample(ctx, len(setups)))
        if time.monotonic() - t0 >= seconds:
            break
    digests = {p.digest for p in plain + traced}
    if len(digests) != 1:
        raise CheckFailed(f"results_digest differs between runs: {sorted(digests)}")
    if not trace:
        reruns = [r.wall for p in plain for r in p.reruns]
        while len(setups) < SETUP_SAMPLES or len(reruns) < RERUN_SAMPLES:
            if len(setups) < SETUP_SAMPLES:
                setups.append(setup_sample(ctx, len(setups)))
            if len(reruns) < RERUN_SAMPLES:
                tag = f"rerun-{len(reruns)}"
                reruns.append(rerun(ctx, ctx["probe"], False, tag).wall)
        return end_to_end(plain, setups, reruns), plain
    per_pair = [layer_metrics(p) for p in traced]
    metrics = {name: median([m[name] for m in per_pair]) for name in PER_LAYER}
    # Host seconds of both: tracing cost is not a speed to be scaled.
    traced_busy = median([p.compute.busy for p in traced])
    metrics["trace.overhead_s"] = traced_busy - median([p.compute.busy for p in plain])
    return metrics, plain + traced


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    root: pathlib.Path,
    work: pathlib.Path,
    smoke: bool = False,
) -> dict:
    """One benchmark run; returns the result object (the last line).

    Raises :class:`BenchError` when the checkout cannot be benchmarked.
    """
    kernel = build_kernel(root, work)
    check_kernel(root, kernel)
    wl = WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=work))
    ctx = {
        "workload": workload,
        "seed": seed,
        "kernel": kernel,
        "root": root,
        "env": clean_env(root),
        "run_dir": run_dir,
        "smoke": smoke,
    }
    pairs: list[Pair] = []
    try:
        metrics, pairs = measure(ctx, seconds, trace)
        probe_python(ctx)
        correct, error = True, None
    except CheckFailed as exc:
        metrics, correct, error = {}, False, str(exc)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(p.compute.report["plans"][0]["cells"] for p in pairs) or wl.cells
    failed = sum(
        p.compute.report["plans"][0]["failed"]
        + p.compute.report["plans"][0]["quarantined"]
        for p in pairs
    )
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
        "error": error,
        "results_digest": pairs[0].digest if pairs else None,
        "pairs": len(pairs),
        "log": [
            f"  pair {i}: wall {p.compute.wall:.3f}s (host {p.compute.busy:.3f}s) "
            f"rss {p.compute.rss_mb:.1f}MB rerun "
            + " ".join(f"{r.wall:.3f}s (host {r.busy:.3f}s)" for r in p.reruns)
            + (" traced" if p.compute.report["trace"] else "")
            for i, p in enumerate(pairs)
        ],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    # One core for the driver and every process it spawns, so that each
    # calibration times the core the process it scales runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A termination unwinds like an error, so the running workload process
    # is killed and reaped and the run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        out = run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            root=root,
            work=root / ".bench_build" / "perfbench",
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed}: {out['pairs']} pairs")
    print(f"results_digest {out['results_digest']}")
    print(f"cells attempted {out['attempted']} failed {out['failed']}")
    for line in out["log"]:
        print(line)
    if out["error"]:
        print(f"CHECK FAILED: {out['error']}")
    for name, m in out["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    line = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
