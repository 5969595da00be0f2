"""Hop-by-hop shuttle routing with traffic-block resolution.

A route from trap ``src`` to trap ``dst`` emits ``SPLIT``, one ``MOVE``
per edge of the shortest path, and ``MERGE`` (Fig. 3).  Before the ion
enters any trap along the way — intermediate or final — that trap must
have excess capacity; a full trap is a *traffic block* (Fig. 7) and is
resolved by evicting one of its ions first (Section III-C), which is
itself a recursive route.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from time import perf_counter

from ..circuits.gate import Gate
from ..core.ops import MergeOp, MoveOp, ShuttleReason, SplitOp, SwapOp
from ..obs import active as _obs_active
from ..sim.schedule import Schedule
from .config import CompilerConfig
from .rebalance import max_score_with_value, select_eviction
from .state import CompilationError, CompilerState

#: Upper bound on nested traffic-block resolutions; generous compared to
#: any sane machine (each level frees one slot in a distinct full trap).
_MAX_RESOLVE_DEPTH = 64


class Router:
    """Emits shuttle ops into a schedule while updating compiler state.

    Parameters
    ----------
    state:
        Shared mutable placement state.
    schedule:
        Output op stream (appended in place).
    config:
        Supplies the re-balancing strategy and ion-selection rule.
    upcoming_factory:
        Zero-argument callable returning a fresh view of the upcoming
        gates (needed by max-score ion selection); the compiler binds
        it to its current program position.  The compiler supplies
        :class:`~repro.compiler.future_index.FutureView` windows so
        eviction scoring walks per-ion indexes; a plain ``(gate,
        layer)`` iterable is also accepted (direct callers, tests).
    """

    def __init__(
        self,
        state: CompilerState,
        schedule: Schedule,
        config: CompilerConfig,
        upcoming_factory: Callable[[], Iterable[Gate]] = lambda: (),
    ) -> None:
        self.state = state
        self.schedule = schedule
        self.config = config
        self.upcoming_factory = upcoming_factory
        self.num_rebalances = 0

    def route(
        self,
        ion: int,
        dst: int,
        reason: ShuttleReason,
        pinned: frozenset[int],
        _depth: int = 0,
    ) -> int:
        """Shuttle ``ion`` from its current trap to ``dst``.

        Returns the number of MoveOps emitted (shuttles, including any
        recursive re-balancing moves).  ``pinned`` ions are never chosen
        for eviction (e.g. the stationary partner of the active gate).
        """
        obs = _obs_active()
        if obs is None:
            return self._route(ion, dst, reason, pinned, _depth)
        # Recursive traffic-block resolutions nest route under route.
        with obs.spans.span("route"):
            return self._route(ion, dst, reason, pinned, _depth)

    def _route(
        self,
        ion: int,
        dst: int,
        reason: ShuttleReason,
        pinned: frozenset[int],
        _depth: int = 0,
    ) -> int:
        src = self.state.trap_of(ion)
        if src == dst:
            return 0
        if _depth > _MAX_RESOLVE_DEPTH:
            raise CompilationError(
                "traffic-block resolution exceeded depth bound "
                f"(routing ion {ion} to trap {dst})"
            )
        topology = self.state.machine.topology
        moves_before = self.schedule.num_shuttles

        first_hop = topology.shortest_path(src, dst)[1]
        if self.config.track_chain_order:
            self._reposition_to_exit(ion, src, first_hop, reason)
        self.schedule.append(SplitOp(ion=ion, trap=src, reason=reason))
        self.state.detach_ion(ion)

        current = src
        previous = src
        while current != dst:
            next_trap = topology.shortest_path(current, dst)[1]
            if self.state.is_full(next_trap):
                self._resolve_block(next_trap, pinned, _depth)
            self.schedule.append(
                MoveOp(ion=ion, src=current, dst=next_trap, reason=reason)
            )
            previous = current
            current = next_trap

        position = None
        if self.config.track_chain_order:
            # Entering from the lower-id edge lands at the chain head.
            position = 0 if previous < dst else None
        self.schedule.append(
            MergeOp(ion=ion, trap=dst, reason=reason, position=position)
        )
        self.state.attach_ion(ion, dst, position=position)
        return self.schedule.num_shuttles - moves_before

    def _reposition_to_exit(
        self, ion: int, trap: int, next_trap: int, reason: ShuttleReason
    ) -> None:
        """Swap ``ion`` to the chain end facing its exit edge
        (Fig. 3 step (i)).

        Chains are ordered head = lower-id edge; exiting toward a
        lower-id neighbour needs the ion at the head, otherwise at the
        tail.
        """
        chain = self.state.chains[trap]
        index = chain.index(ion)
        if next_trap < trap:
            while index > 0:
                index -= 1
                ion_a, ion_b = self.state.swap_adjacent(trap, index)
                self.schedule.append(
                    SwapOp(ion_a=ion_a, ion_b=ion_b, trap=trap, reason=reason)
                )
        else:
            while index < len(chain) - 1:
                ion_a, ion_b = self.state.swap_adjacent(trap, index)
                self.schedule.append(
                    SwapOp(ion_a=ion_a, ion_b=ion_b, trap=trap, reason=reason)
                )
                index += 1

    def evict_one(self, full_trap: int, pinned: frozenset[int]) -> None:
        """Public eviction entry point (both-traps-full fallback)."""
        self._resolve_block(full_trap, pinned, depth=0, kind="both-full")

    def cheap_evict(self, full_trap: int, pinned: frozenset[int]) -> bool:
        """Free ``full_trap`` with a single one-hop eviction if worthwhile.

        Applies the Section III-C machinery at a full gate destination:
        when a *directly neighbouring* trap has room and the max-score
        ion of the full trap has a non-negative score (nothing anchors
        it there in the near future), move it over — one shuttle keeps
        the favourable gate direction achievable.  Returns True when the
        eviction was performed.
        """
        state = self.state
        topology = state.machine.topology
        free_neighbors = [
            t
            for t in topology.neighbors(full_trap)
            if not state.is_full(t)
        ]
        if not free_neighbors:
            return False
        destination = free_neighbors[0]
        obs = _obs_active()
        if obs is not None:
            t_select = perf_counter()
        upcoming = self.upcoming_factory()
        ion, score = max_score_with_value(
            state,
            full_trap,
            destination,
            pinned,
            upcoming,
            self.config.rebalance_window,
        )
        if obs is not None:
            obs.spans.add("rebalance", perf_counter() - t_select)
        if score < 0:
            return False
        self.num_rebalances += 1
        self._observe_eviction(obs, full_trap, ion, destination, "cheap")
        self.route(ion, destination, ShuttleReason.REBALANCE, pinned)
        return True

    def _resolve_block(
        self,
        full_trap: int,
        pinned: frozenset[int],
        depth: int,
        kind: str = "traffic-block",
    ) -> None:
        """Evict one ion from ``full_trap`` so traffic can pass (Fig. 7)."""
        obs = _obs_active()
        if obs is not None:
            t_select = perf_counter()
        upcoming = self.upcoming_factory()
        ion, destination = select_eviction(
            self.state,
            full_trap,
            strategy=self.config.rebalance,
            ion_selection=self.config.ion_selection,
            pinned=pinned,
            upcoming=upcoming,
            window=self.config.rebalance_window,
        )
        if obs is not None:
            obs.spans.add("rebalance", perf_counter() - t_select)
        self.num_rebalances += 1
        self._observe_eviction(obs, full_trap, ion, destination, kind)
        self.route(
            ion,
            destination,
            ShuttleReason.REBALANCE,
            pinned,
            _depth=depth + 1,
        )

    @staticmethod
    def _observe_eviction(obs, trap: int, ion: int, dst: int, kind: str):
        if obs is None:
            return
        obs.metrics.inc("compile.evictions")
        obs.metrics.inc(f"compile.evictions.{kind}")
        if obs.trace is not None:
            obs.trace.emit(
                "eviction", trap=trap, ion=ion, dst=dst, kind=kind
            )
