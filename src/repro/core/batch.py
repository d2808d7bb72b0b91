"""Batched multi-cell stepping: K independent simulations, one drain loop.

A sweep is mostly the *same* network simulated many times with only the
offered load (and sometimes the seed) varying.  :class:`BatchSimulation`
packs K such cells into one widened :class:`~repro.engine.soa.SoAStore`
— the store simply grows a **cell axis**, ``erid = cell * R +
router_id`` — and steps all of them through a single fused drain loop
(``EngineBackend.drain_batch``) instead of K separate interpreter/FFI
round-trip sequences.

Correctness is structural, not statistical: member cells never post into
each other's calendars (each keeps its own :class:`EventQueue`, routers,
RNG streams and stats), and the fused loop drains the members one after
another in cell order, each to the shared horizon, through the same
per-queue ``drain`` a lone run uses.  Every member therefore observes
exactly the operation sequence it would have observed running alone,
and the K unpacked :class:`~repro.core.results.SimulationResult`
objects are bit-identical to unbatched runs (pinned by the batch
equivalence suite and golden digests).

Which cells may share a batch is decided by :func:`batch_compat_key`:
everything except ``traffic.load`` and ``seed`` must match, so a load
sweep (or a seed-replicated point) batches naturally while cells with
different topologies, routings or horizons never mix.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict

from repro.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.core.simulation import Simulation, _shared_topology
from repro.engine.kernel import resolve_backend
from repro.engine.soa import SoAStore
from repro.utils.gcpause import gc_paused
from repro.utils.rng import split_seed

__all__ = ["BatchSimulation", "batch_compat_key", "run_simulation_batch"]


def batch_compat_key(config: SimulationConfig) -> str:
    """Canonical key identifying the batchable equivalence class of *config*.

    Two cells may share a :class:`BatchSimulation` iff their keys are
    equal: the key is the config's canonical JSON with ``traffic.load``
    and ``seed`` masked out — the two axes a batch is allowed to vary.
    Everything else (topology, routing, VC counts, horizon, scenario
    fields, oracle flag) must match so the members agree on store
    geometry and drain horizon.
    """
    data = asdict(config)
    data["seed"] = None
    data["traffic"]["load"] = None
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class BatchSimulation:
    """K batch-compatible simulations sharing one store and drain loop.

    Members are fully independent simulations — own event queue, routers,
    routing mechanism, traffic pattern, RNG streams, stats, oracle — that
    happen to keep their hot per-router state in disjoint row ranges of
    one shared :class:`SoAStore` (member *i* owns rows
    ``[i * R, (i + 1) * R)``).  :meth:`run` starts every member, drains
    all K calendars through the backend's fused batch loop, then collects
    one :class:`SimulationResult` per member, in input order.  Like a
    lone :class:`Simulation`, construction and :meth:`run` execute with
    the cyclic collector paused.
    """

    @gc_paused
    def __init__(
        self,
        configs: Sequence[SimulationConfig],
        *,
        engine_backend: str | None = None,
        engine_lower: str | None = None,
        check_decomposition: bool = False,
    ) -> None:
        if not configs:
            raise ValueError("BatchSimulation needs at least one config")
        key = batch_compat_key(configs[0])
        for i, cfg in enumerate(configs[1:], start=1):
            if batch_compat_key(cfg) != key:
                raise ValueError(
                    f"configs[{i}] is not batch-compatible with configs[0]: "
                    f"batched cells may differ only in traffic.load and seed "
                    f"(routing={cfg.routing!r} vs {configs[0].routing!r}, "
                    f"pattern={cfg.traffic.pattern!r} vs "
                    f"{configs[0].traffic.pattern!r})"
                )
        self.configs = list(configs)
        backend = resolve_backend(engine_backend)
        self.backend = backend

        # Store geometry from the first member's topology (identical for
        # every member: NetworkConfig and RouterConfig are part of the
        # compat key; the arrangement seed only permutes global links and
        # never changes R / radix).  The _shared_topology cache makes the
        # member constructor's own lookup a hit.
        topo = _shared_topology(
            configs[0].network, split_seed(configs[0].seed, 7)
        )
        rc = configs[0].router
        R = topo.num_routers
        self.routers_per_cell = R
        self.soa = SoAStore(
            len(configs) * R,
            topo.radix,
            max(rc.local_vcs, rc.global_vcs, 1),
            typed=backend.typed,
            cells=len(configs),
        )
        # Construct every member before any drain: the compiled backend
        # builds its per-queue kernel state lazily on first drain from
        # store.routers, which is only complete once all K cells have
        # appended their rows.
        self.sims = [
            Simulation(
                cfg,
                check_decomposition=check_decomposition,
                engine_backend=backend.name,
                engine_lower=engine_lower,
                soa=self.soa,
                soa_base=i * R,
            )
            for i, cfg in enumerate(configs)
        ]

    # ------------------------------------------------------------------
    @gc_paused
    def run(self) -> list[SimulationResult]:
        """Run all members to the shared horizon; one result per member.

        Uses the backend's fused ``drain_batch`` when available; a
        backend without one (e.g. a stale compiled extension) degrades to
        draining each member's calendar sequentially, which is
        bit-identical — the members share no events, so any interleaving
        that respects each calendar's own order yields the same results.
        """
        for sim in self.sims:
            sim.start()
        t_end = self.sims[0]._end_time
        eqs = [sim.engine for sim in self.sims]
        drain_batch = self.backend.drain_batch
        if drain_batch is not None and len(eqs) > 1:
            drain_batch(eqs, t_end)
        else:
            for eq in eqs:
                eq.run_until(t_end)
        return [sim._collect() for sim in self.sims]


def run_simulation_batch(
    configs: Sequence[SimulationConfig],
    *,
    engine_backend: str | None = None,
    engine_lower: str | None = None,
    check_decomposition: bool = False,
) -> list[SimulationResult]:
    """Build and run one batch (convenience wrapper, mirrors
    :func:`~repro.core.simulation.run_simulation`)."""
    return BatchSimulation(
        configs,
        engine_backend=engine_backend,
        engine_lower=engine_lower,
        check_decomposition=check_decomposition,
    ).run()
