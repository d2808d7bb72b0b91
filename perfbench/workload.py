"""One benchmark workload, run as one fresh process the way a user runs it.

The driver (``perfbench/run.py``) spawns this file once per measured
process::

    python3 perfbench/workload.py SPEC.json     # run a workload
    python3 perfbench/workload.py --check-kernel KERNEL.so
    python3 perfbench/workload.py --probe ENTRY.json OUT.json

SPEC.json names the workload, the seed, the result store, the report
file, the compiled kernel to load, whether to trace and whether to stop
as soon as the first cell's drain begins (a set-up sample), and whether
to time the host-speed loop of :mod:`calib` around each cell's drain.
The process imports the program's entry module first (that import is
the ``cli`` layer), then wraps the public calls into each layer *from
outside* — the program's files are never touched — and runs the
workload through its public entry: ``repro.cli.main`` for the two plan
sweeps, the library ``Runner`` for the scenario plan.  When it ends it
writes a JSON report: per-cell backend and traffic path, plan counts,
RSS after each cell, the host-speed calibrations, and with tracing the
spans and rollups of :mod:`spans`.

Untraced runs wrap only calls made once per cell or per plan
(``Runner.run``, the runner's cell entry, ``Simulation`` construction
and ``Simulation.run``), so their cost does not show in the end-to-end
figures.  Traced runs also wrap the
per-packet calls (routing ``decide``, traffic ``dest``, the delivery
sink), which slows decide-heavy cells; that is why end-to-end figures
never come from a traced run.
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import json
import os
import sys
import time
import weakref
from dataclasses import dataclass

from calib import calibrate

__all__ = ["WORKLOADS", "Workload"]

#: The mechanisms Table II compares, one per family (MIN, oblivious,
#: source-adaptive, in-transit adaptive).
H6_ROUTINGS = ("min", "obl-crg", "src-crg", "in-trns-mm")
#: All eight mechanisms of Fig. 2, in legend order.
FIG2_ROUTINGS = (
    "min",
    "obl-rrg",
    "obl-crg",
    "src-rrg",
    "src-crg",
    "in-trns-rrg",
    "in-trns-crg",
    "in-trns-mm",
)
H3_SCENARIOS = (
    "bursty_adv",
    "phased_un_advc",
    "ramped_advc",
    "multi_job_interference",
)
H3_LOAD = 0.3

KERNEL_MODULE = "repro.engine._ckernel"


@dataclass(frozen=True)
class Workload:
    """A workload: its entry module, declared traffic path and cell count.

    ``path`` is ``"lowered"`` when traffic generation and the delivery
    sink must run inside the compiled kernel, ``"unlowered"`` when they
    must run through the Python ``dest()`` and sink; ``oracle`` says
    whether every stored cell carries an oracle verdict.
    """

    name: str
    entry: str
    path: str
    cells: int
    oracle: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("h6_table2", "repro.cli", "lowered", len(H6_ROUTINGS), False),
        Workload(
            "h2_fig2_sweep", "repro.cli", "lowered", len(FIG2_ROUTINGS) * 2 * 3, False
        ),
        Workload("h3_scenarios_oracle", "repro", "unlowered", len(H3_SCENARIOS), True),
    )
}


def cli_argv(name: str, seed: int, store: str, smoke: bool) -> list[str]:
    """``repro`` command line of a CLI workload (``smoke``: tiny scale)."""
    common = ["--seed", str(seed), "--jobs", "1", "--cache", store]
    if name == "h6_table2":
        scale = ["--preset", "paper", "--warmup", "500", "--measure", "300"]
        if smoke:
            scale = ["--preset", "tiny", "--warmup", "50", "--measure", "100"]
        grid = ["--routings", *H6_ROUTINGS, "--patterns", "advc", "--loads", "0.4"]
    elif name == "h2_fig2_sweep":
        scale = ["--preset", "small", "--warmup", "300", "--measure", "700"]
        if smoke:
            scale = ["--preset", "tiny", "--warmup", "50", "--measure", "100"]
        grid = [
            "--routings",
            *FIG2_ROUTINGS,
            "--patterns",
            "uniform",
            "advc",
            "--loads",
            "0.1",
            "0.3",
            "0.5",
        ]
    else:
        raise ValueError(f"{name} is not a CLI workload")
    return ["plan", "run", *scale, *grid, *common]


def run_scenarios(repro, seed: int, store: str, smoke: bool) -> int:
    """The scenario workload through the library: one plan, one Runner."""
    from repro.traffic.scenarios import get_scenario

    if smoke:
        base = repro.small_config(seed=seed, warmup_cycles=50, measure_cycles=150)
    else:
        base = repro.medium_config(seed=seed, warmup_cycles=750, measure_cycles=2000)
    base = base.with_(routing="min", oracle=True).with_traffic(load=H3_LOAD)
    plan = repro.ExperimentPlan.merge(
        repro.ExperimentPlan.point(get_scenario(n).apply(base)) for n in H3_SCENARIOS
    )
    res = repro.Runner(jobs=1, store=store).run(plan)
    return 0 if res.ok and all(res.oracle_verdicts().values()) else 1


# ----------------------------------------------------------------------
# loading the compiled kernel built outside src/
# ----------------------------------------------------------------------
class KernelFinder:
    """Resolves ``repro.engine._ckernel`` to a kernel built elsewhere."""

    def __init__(self, path: str) -> None:
        self.path = path

    def find_spec(self, fullname, path=None, target=None):
        if fullname != KERNEL_MODULE:
            return None
        return importlib.util.spec_from_file_location(fullname, self.path)


def install_kernel(path: str) -> None:
    """Make *path* the compiled kernel, ahead of anything under src/."""
    sys.meta_path.insert(0, KernelFinder(path))


def check_kernel(path: str) -> int:
    """Exit status 0 iff *path* loads and ``auto`` resolves to it.

    Also imports the CLI, so the bytecode cache of a fresh checkout is
    written here and not inside the first timed process.
    """
    if not os.path.isfile(path):
        print(f"compiled kernel {path} does not exist", file=sys.stderr)
        return 1
    install_kernel(path)
    importlib.import_module(KERNEL_MODULE)  # raises the real ImportError
    importlib.import_module("repro.cli")
    from repro.engine.kernel import resolve_backend

    name = resolve_backend().name
    if name != "compiled":
        print(f"default engine backend is {name!r}, not 'compiled'", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# outside-in instrumentation
# ----------------------------------------------------------------------
def current_rss_mb() -> float:
    """Resident set size of this process now (Linux ``/proc``)."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Recorder:
    """What the wrappers observe; written out as the report at exit."""

    def __init__(self, tracer=None, calibrate=False) -> None:
        self.tracer = tracer
        #: Time the host-speed loop as each drain begins and as each cell
        #: ends (untraced compute processes only).
        self.calibrate = calibrate
        self.cal: list[float] = []
        self.cell: str | None = None
        self.first_drain: float | None = None
        self.cells: list[dict] = []
        self.plans: list[dict] = []
        self.rss_mb: list[float] = []
        self.counters: dict[str, float] = {}
        self.sims: list[weakref.ref] = []
        #: Called once when the first drain begins (set-up samples stop there).
        self.on_first_drain = None

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def report(self, exit_code: int) -> dict:
        out = {
            "exit_code": exit_code,
            "first_drain": self.first_drain,
            "cells": self.cells,
            "plans": self.plans,
            "rss_mb": self.rss_mb,
            "counters": self.counters,
            "cal": self.cal,
            "trace": None,
        }
        if self.tracer is not None:
            # A full collection is work the untraced run must not time.
            gc.collect()
            out["retained_sims"] = sum(1 for ref in self.sims if ref() is not None)
            out["trace"] = self.tracer.to_dict()
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install_hooks(rec: Recorder) -> None:
    """Wrap the layers' public calls; per-packet calls only when tracing."""
    import repro.exec.runner as runner_mod
    from repro.core.simulation import Simulation
    from repro.engine.events import EventQueue
    from repro.exec.runner import Runner
    from repro.exec.store import ResultStore
    from repro.metrics.collector import StatsCollector
    from repro.metrics.oracle import SimOracle
    from repro.routing.base import RoutingMechanism
    from repro.topology.dragonfly import DragonflyTopology
    from repro.traffic.base import TrafficPattern

    tr = rec.tracer

    plan_run = Runner.run

    def run_plan(self, plan, shard=None):
        res = plan_run(self, plan, shard)
        quarantined = self.store.quarantined() if self.store is not None else []
        rec.plans.append(
            {
                "cells": len(plan),
                "computed": res.computed,
                "cached": res.cached,
                "failed": len(res.failures),
                "retried": len(res.retried),
                "quarantined": len(quarantined),
            }
        )
        return res

    run_cell = runner_mod._run_cell

    def cell_entry(digest, config):
        rec.cell = digest
        idx = None
        if tr is not None:
            tr.cell = digest
            idx = tr.begin("exec.cell")
        try:
            return run_cell(digest, config)
        finally:
            if idx is not None:
                tr.end(idx)
                tr.cell = None
            rec.cell = None
            rec.rss_mb.append(current_rss_mb())
            if rec.calibrate:
                rec.cal.append(calibrate())

    sim_init = Simulation.__init__

    def construct(self, *args, **kwargs):
        sim_init(self, *args, **kwargs)
        rec.sims.append(weakref.ref(self))

    sim_run = Simulation.run

    def simulate(self):
        if rec.first_drain is None:
            rec.first_drain = time.monotonic()
            if rec.on_first_drain is not None:
                rec.on_first_drain()
        if rec.calibrate:
            rec.cal.append(calibrate())
        result = sim_run(self)
        rec.cells.append(
            {
                "digest": rec.cell,
                "backend": self.engine_backend,
                "lowered": getattr(self.engine, "_lower", None) is not None,
                "routers": len(self.routers),
                "cycles": self.config.total_cycles,
                "generated": self.stats.total_generated,
            }
        )
        return result

    Runner.run = run_plan
    runner_mod._run_cell = cell_entry
    Simulation.__init__ = construct
    Simulation.run = simulate
    if tr is None:
        return

    drain_until = EventQueue.run_until

    def run_until(self, t_end):
        if tr.stack and tr.spans[tr.stack[-1]][0] == "engine.post_horizon_drain":
            return drain_until(self, t_end)  # EventQueue.drain's own loop
        events, acts = self.processed, self.activations
        idx = tr.begin("engine.drain")
        try:
            return drain_until(self, t_end)
        finally:
            tr.end(idx)
            rec.count("engine.events", self.processed - events)
            rec.count("engine.activations", self.activations - acts)

    Runner.run = tr.span("exec.run", Runner.run)
    ResultStore.save = tr.span("exec.store_save", ResultStore.save)
    ResultStore.load = tr.span("exec.store_load", ResultStore.load)
    DragonflyTopology.__init__ = tr.span("topology.build", DragonflyTopology.__init__)
    DragonflyTopology.min_service_table = tr.span(
        "topology.service_table", DragonflyTopology.min_service_table
    )
    Simulation.__init__ = tr.span("core.construct", Simulation.__init__)
    Simulation.run = tr.span("core.run", Simulation.run)
    Simulation._collect = tr.span("core.collect", Simulation._collect)
    EventQueue.run_until = run_until
    EventQueue.drain = tr.span("engine.post_horizon_drain", EventQueue.drain)
    SimOracle.verify = tr.span("metrics.oracle_verify", SimOracle.verify)
    StatsCollector.on_delivery = tr.rollup("metrics.sink", StatsCollector.on_delivery)
    for cls in _subclasses(RoutingMechanism):
        if "decide" in vars(cls):
            cls.decide = tr.rollup("routing.decide", cls.decide)
    for cls in _subclasses(TrafficPattern):
        if "dest" in vars(cls):
            cls.dest = tr.rollup("traffic.dest", cls.dest)


def run_workload(spec: dict) -> int:
    """Run the workload *spec* names and write its report file."""
    wl = WORKLOADS[spec["workload"]]
    install_kernel(spec["kernel"])
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
    rec = Recorder(tracer, spec.get("calibrate", False))
    code = 1

    def write_report(exit_code: int) -> None:
        with open(spec["report"], "w") as f:
            json.dump(rec.report(exit_code), f)

    if spec.get("setup_only"):

        def stop() -> None:
            write_report(0)
            os._exit(0)  # the set-up is over; skip the drain and the store

        rec.on_first_drain = stop
    try:
        idx = tracer.begin("cli.import") if tracer is not None else None
        entry = importlib.import_module(wl.entry)
        if idx is not None:
            tracer.end(idx)
        install_hooks(rec)
        seed, store, smoke = spec["seed"], spec["store"], spec.get("smoke", False)
        if wl.entry == "repro.cli":
            code = entry.main(cli_argv(wl.name, seed, store, smoke))
        else:
            code = run_scenarios(entry, seed, store, smoke)
    finally:
        write_report(code)
    return code


def run_probe(entry_path: str, out_path: str) -> int:
    """Recompute a stored cell on the python backend; write its payload."""
    from repro.core.simulation import run_simulation
    from repro.exec.serialize import result_from_dict, result_to_dict

    with open(entry_path) as f:
        stored = json.load(f)["result"]
    config = result_from_dict(stored).config
    result = run_simulation(config, engine_backend="python")
    with open(out_path, "w") as f:
        json.dump(result_to_dict(result), f)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--check-kernel"]:
        return check_kernel(argv[1])
    if argv[:1] == ["--probe"]:
        return run_probe(argv[1], argv[2])
    with open(argv[0]) as f:
        return run_workload(json.load(f))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
