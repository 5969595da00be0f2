"""Hop-by-hop shuttle routing with traffic-block resolution.

A route from trap ``src`` to trap ``dst`` emits ``SPLIT``, one ``MOVE``
per edge of the shortest path, and ``MERGE`` (Fig. 3).  Before the ion
enters any trap along the way — intermediate or final — that trap must
have excess capacity; a full trap is a *traffic block* (Fig. 7) and is
resolved by evicting one of its ions first (Section III-C), which is
itself a recursive route.
"""

from __future__ import annotations

from collections.abc import Callable
from time import perf_counter

from ..arch.topology import TopologyError
from ..core.errors import CompilationError
from ..core.ops import MachineOp, MergeOp, MoveOp, ShuttleReason, SplitOp, SwapOp
from ..core.state import MachineState
from ..obs import active as _obs_active
from .config import CompilerConfig
from .future_index import FutureView
from .rebalance import max_score_with_value, select_eviction

#: Upper bound on nested traffic-block resolutions; generous compared to
#: any sane machine (each level frees one slot in a distinct full trap).
_MAX_RESOLVE_DEPTH = 64

#: Upper bound on evictions from one blocked trap before the ion in
#: transit enters it.
_MAX_BLOCK_RESOLUTIONS = 8


class Router:
    """Emits shuttle ops into an op list while updating the machine state.

    Parameters
    ----------
    state:
        Shared mutable placement state.
    schedule:
        Output op list (appended in place; the compiler builds its
        :class:`~repro.sim.schedule.Schedule` from it at the end).
    config:
        Supplies the re-balancing strategy and ion-selection rule.
    upcoming_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.compiler.future_index.FutureView` of the
        upcoming gates (needed by max-score ion selection); the
        compiler binds it to its current program position.
    """

    def __init__(
        self,
        state: MachineState,
        schedule: list[MachineOp],
        config: CompilerConfig,
        upcoming_factory: Callable[[], FutureView],
    ) -> None:
        self.state = state
        self.schedule = schedule
        self.config = config
        self.upcoming_factory = upcoming_factory
        self.num_rebalances = 0
        #: Interned shuttle ops, one ``(splits, moves, merges)`` triple
        #: of dicts per reason, keyed by the ops' int fields.  Ops are
        #: immutable and compare by value, so one object per distinct
        #: op serves every emission of it in this compile.  Reasons
        #: are matched by identity (see :meth:`_op_tables`), so the
        #: enum's Python-level ``__hash__`` is never called.
        self._interned: list[tuple[ShuttleReason, tuple[dict, dict, dict]]] = []

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
        state = self.state
        src = state.trap_of(ion)
        if src == dst:
            return 0
        if _depth > _MAX_RESOLVE_DEPTH:
            raise CompilationError(
                "traffic-block resolution exceeded depth bound "
                f"(routing ion {ion} to trap {dst})"
            )
        next_hop = state.machine.topology.next_hop_table()
        first_hop = next_hop[src][dst]
        if first_hop < 0:
            raise TopologyError(f"traps {src} and {dst} are disconnected")
        splits, moves, merges = self._op_tables(reason)
        emit = self.schedule.append
        if self.config.track_chain_order:
            self._reposition_to_exit(ion, src, first_hop, reason)
        key = (ion, src)
        op = splits.get(key)
        if op is None:
            op = splits[key] = SplitOp(ion=ion, trap=src, reason=reason)
        emit(op)
        state.detach_ion(ion)

        num_moves = 0
        current = src
        previous = src
        while current != dst:
            next_trap = next_hop[current][dst]
            # Re-check after each eviction: the eviction's own nested
            # traffic-block resolution can refill the trap it freed.
            resolutions = 0
            while state.is_full(next_trap):
                if resolutions == _MAX_BLOCK_RESOLUTIONS:
                    raise CompilationError(
                        f"trap {next_trap} stayed full after "
                        f"{resolutions} evictions (routing ion {ion} "
                        f"to trap {dst})"
                    )
                num_moves += self._resolve_block(next_trap, pinned, _depth)
                resolutions += 1
            key = (ion, current, next_trap)
            op = moves.get(key)
            if op is None:
                op = moves[key] = MoveOp(
                    ion=ion, src=current, dst=next_trap, reason=reason
                )
            emit(op)
            num_moves += 1
            previous = current
            current = next_trap

        position = None
        if self.config.track_chain_order:
            # Entering from the lower-id edge lands at the chain head.
            position = 0 if previous < dst else None
        key = (ion, dst, position)
        op = merges.get(key)
        if op is None:
            op = merges[key] = MergeOp(
                ion=ion, trap=dst, reason=reason, position=position
            )
        emit(op)
        state.attach_ion(ion, dst, position=position)
        return num_moves

    def _op_tables(self, reason: ShuttleReason) -> tuple[dict, dict, dict]:
        """The ``(splits, moves, merges)`` intern tables of ``reason``."""
        for known, tables in self._interned:
            if known is reason:
                return tables
        tables = ({}, {}, {})
        self._interned.append((reason, tables))
        return tables

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
    ) -> int:
        """Evict one ion from ``full_trap`` so traffic can pass (Fig. 7);
        returns the MoveOps the eviction emitted."""
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
        return self.route(
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
