"""The cyclic collector pause around a simulation cell.

``Simulation.__init__``, ``Simulation.run``, ``BatchSimulation.__init__``
and ``BatchSimulation.run`` execute with Python's cyclic garbage
collector disabled (:func:`repro.utils.gcpause.gc_paused`).  The pause
is only free because construction and the drain leave no cyclic
garbage behind; this module pins that invariant for every routing
mechanism, both backends and both traffic paths, so a future change that
adds a cycle to the hot path fails here instead of leaking silently
under the pause.  It also pins that the caller's collector state comes
back exactly, on success and on error, and records (as a strict xfail)
the compiled backend's known ``Simulation`` retention.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.config import small_config, tiny_config
from repro.core.batch import BatchSimulation
from repro.core.simulation import Simulation
from repro.engine.events import EventQueue
from repro.errors import OracleError
from repro.routing.factory import ROUTING_NAMES
from repro.routing.oblivious import ObliviousValiantRouting
from repro.traffic import get_scenario
from repro.utils.gcpause import gc_paused
from test_engine_backends import BACKENDS, needs_compiled


def _small(routing: str, **overrides):
    return small_config(
        seed=5, routing=routing, warmup_cycles=200, measure_cycles=300, **overrides
    ).with_traffic(pattern="advc", load=0.4)


def _assert_no_cyclic_garbage(make_sim) -> None:
    gc.collect()
    sim = make_sim()
    assert gc.collect() == 0, "construction left cyclic garbage"
    result = sim.run()
    assert gc.collect() == 0, "the run left cyclic garbage"
    assert result.delivered_packets > 0


@pytest.fixture
def collector_state():
    """Yield a setter for the collector state; restore it afterwards."""
    was_enabled = gc.isenabled()

    def set_state(enabled: bool) -> None:
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(was_enabled)


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("lower", ["1", "0"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("routing", ROUTING_NAMES)
    def test_construction_and_run(self, routing, backend, lower):
        _assert_no_cyclic_garbage(
            lambda: Simulation(
                _small(routing), engine_backend=backend, engine_lower=lower
            )
        )

    def test_oracle_scenario(self):
        # The unlowered path: Python dest() and sink, the post-horizon
        # drain and the oracle's verify.
        cfg = get_scenario("bursty_adv").apply(
            _small("min", oracle=True).with_traffic(load=0.3)
        )
        _assert_no_cyclic_garbage(lambda: Simulation(cfg))


class TestCollectorStateRestored:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_simulation_and_batch(self, collector_state, enabled):
        collector_state(enabled)
        sim = Simulation(tiny_config(seed=1))
        assert gc.isenabled() is enabled
        sim.run()
        assert gc.isenabled() is enabled
        batch = BatchSimulation([tiny_config(seed=1), tiny_config(seed=2)])
        assert gc.isenabled() is enabled
        batch.run()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_when_decide_raises(self, collector_state, monkeypatch, enabled):
        def boom(self, pkt, router):
            raise RuntimeError("decide failed")

        monkeypatch.setattr(ObliviousValiantRouting, "decide", boom)
        cfg = tiny_config(seed=1, routing="obl-crg")
        collector_state(enabled)
        with pytest.raises(RuntimeError, match="decide failed"):
            Simulation(cfg, engine_backend="python").run()
        assert gc.isenabled() is enabled
        batch = BatchSimulation([cfg, cfg.with_(seed=2)], engine_backend="python")
        with pytest.raises(RuntimeError, match="decide failed"):
            batch.run()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_when_oracle_drain_fails(
        self, collector_state, monkeypatch, enabled
    ):
        monkeypatch.setattr(EventQueue, "drain", lambda self, t_max: False)
        collector_state(enabled)
        sim = Simulation(tiny_config(seed=1, oracle=True))
        with pytest.raises(OracleError, match="failed to drain"):
            sim.run()
        assert gc.isenabled() is enabled

    def test_nested_pauses_compose(self, collector_state):
        collector_state(True)
        seen = []

        @gc_paused
        def inner():
            seen.append(gc.isenabled())

        @gc_paused
        def outer():
            inner()
            seen.append(gc.isenabled())

        outer()
        assert seen == [False, False]
        assert gc.isenabled()


class TestFinishedCellIsFreed:
    def test_python_backend(self):
        sim = Simulation(tiny_config(seed=1), engine_backend="python")
        sim.run()
        ref = weakref.ref(sim)
        del sim
        gc.collect()
        assert ref() is None

    @needs_compiled
    @pytest.mark.xfail(
        strict=True,
        reason="known defect: EventQueue._ckstate is a PyCapsule without "
        "tp_traverse whose KState holds strong references to the routers, "
        "so the collector cannot see the router -> simulation -> queue -> "
        "capsule cycle and a finished compiled Simulation is never freed",
    )
    def test_compiled_backend(self):
        sim = Simulation(tiny_config(seed=1), engine_backend="compiled")
        sim.run()
        ref = weakref.ref(sim)
        del sim
        gc.collect()
        assert ref() is None
