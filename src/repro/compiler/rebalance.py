"""Traffic-block resolution (Section III-C).

When a trap is full it can neither receive a shuttled ion nor let one
pass through (Fig. 7).  Resolution evicts one ion from the full trap to
another trap with excess capacity.  Two choices parameterize this:

* **destination-trap search** —
  ``lowest-index``: the [7] behaviour; scan from trap 0 and take the
  first trap with EC > 0 (Fig. 7 shows this costing 4 shuttles where 1
  suffices).
  ``nearest``: Algorithm 2; among traps with EC > 0 pick the one at the
  smallest topology distance (ties toward the lower trap id).

* **evicted-ion selection** —
  ``chain-head``: naive; the first eligible ion of the chain.
  ``max-score``: Section III-C2; score every eligible ion as
  ``wd * #gates-in-destination - ws * #gates-in-source`` over the
  upcoming gates and evict the maximum (``wd = ws = 0.5``; when an ion's
  two counts tie, ``wd = 0.49 / ws = 0.51`` so the score cannot be 0).
"""

from __future__ import annotations

from ..core.errors import CompilationError
from ..core.state import MachineState
from .config import (
    DEFAULT_WEIGHT_DEST,
    DEFAULT_WEIGHT_SOURCE,
    TIE_WEIGHT_DEST,
    TIE_WEIGHT_SOURCE,
)
from .future_index import FutureView


def select_destination_trap(
    state: MachineState,
    source_trap: int,
    strategy: str,
    exclude: frozenset[int] = frozenset(),
) -> int:
    """Pick the trap that will receive the evicted ion.

    ``exclude`` removes traps from consideration (e.g. a trap that must
    keep room for the ion currently being routed).
    """
    candidates = [
        trap
        for trap in range(state.machine.num_traps)
        if trap != source_trap
        and trap not in exclude
        and state.excess_capacity(trap) > 0
    ]
    if not candidates:
        raise CompilationError(
            f"no trap can absorb an eviction from trap {source_trap}"
        )
    if strategy == "lowest-index":
        return candidates[0]
    if strategy == "nearest":
        topology = state.machine.topology
        return min(
            candidates,
            key=lambda trap: (topology.distance(source_trap, trap), trap),
        )
    raise ValueError(f"unknown rebalance strategy {strategy!r}")


def select_ion_chain_head(
    state: MachineState, source_trap: int, pinned: frozenset[int]
) -> int:
    """Naive eviction: first ion of the chain not pinned in place."""
    for ion in state.chains[source_trap]:
        if ion not in pinned:
            return ion
    raise CompilationError(
        f"every ion in trap {source_trap} is pinned; cannot re-balance"
    )


def select_ion_max_score(
    state: MachineState,
    source_trap: int,
    destination_trap: int,
    pinned: frozenset[int],
    upcoming: FutureView,
    window: int,
) -> int:
    """Max-score eviction (Section III-C2).

    For each eligible ion, count its upcoming gates whose partner sits in
    the destination trap versus the source trap (first ``window``
    two-qubit gates of ``upcoming``), then maximize
    ``wd * dest_count - ws * source_count``.  Ties between ions resolve
    toward the chain head for determinism.
    """
    ion, _score = max_score_with_value(
        state, source_trap, destination_trap, pinned, upcoming, window
    )
    return ion


def max_score_with_value(
    state: MachineState,
    source_trap: int,
    destination_trap: int,
    pinned: frozenset[int],
    upcoming: FutureView,
    window: int,
) -> tuple[int, float]:
    """Like :func:`select_ion_max_score` but also returns the score.

    Used by the compiler's cheap-eviction check: an eviction is only
    worth taking when the best candidate has a non-negative score (no
    near-future gates anchoring it to the full trap).

    Each candidate ion's own indexed gate list in ``upcoming`` is
    walked — O(window slice of that list) per candidate.  A gate is
    inside the window iff fewer than ``window`` two-qubit gates (of any
    ions — the window is a property of the stream, not of the
    candidate) precede it from the view's start, which is what the
    per-node two-qubit rank measures.  Partners currently in transit
    count for neither trap.
    """
    eligible = [ion for ion in state.chains[source_trap] if ion not in pinned]
    if not eligible:
        raise CompilationError(
            f"every ion in trap {source_trap} is pinned; cannot re-balance"
        )
    index = upcoming.index
    order_key = index.order_key
    rank2q = index.rank2q
    start = upcoming.start
    exclude = upcoming.exclude
    exclude_key = order_key[exclude] if exclude is not None else None
    rank_limit = upcoming.rank_start + window
    # Direct reads of the ion -> trap list.  Where trap_of would raise
    # (too short a list, or a negative entry: the partner is in
    # transit) the partner matches neither trap.
    lookup = state._trap_of
    best_ion = eligible[0]
    best_score = float("-inf")
    for ion in eligible:
        nodes, partners, i = index.ion_stream(ion)
        dest = source = 0
        for j in range(i, len(nodes)):
            node = nodes[j]
            key = order_key[node]
            if key < start or node == exclude:
                continue
            rank = rank2q[node]
            if exclude_key is not None and exclude_key < key:
                rank -= 1
            if rank >= rank_limit:
                break
            try:
                partner_trap = lookup[partners[j]]
            except IndexError:
                continue
            if partner_trap == destination_trap:
                dest += 1
            elif partner_trap == source_trap:
                source += 1
        if dest == source:
            score = TIE_WEIGHT_DEST * dest - TIE_WEIGHT_SOURCE * source
        else:
            score = DEFAULT_WEIGHT_DEST * dest - DEFAULT_WEIGHT_SOURCE * source
        if score > best_score:
            best_score = score
            best_ion = ion
    return best_ion, best_score


def select_eviction(
    state: MachineState,
    source_trap: int,
    strategy: str,
    ion_selection: str,
    pinned: frozenset[int],
    upcoming: FutureView,
    window: int,
    exclude_traps: frozenset[int] = frozenset(),
) -> tuple[int, int]:
    """Full re-balancing decision: (ion to evict, destination trap)."""
    destination = select_destination_trap(
        state, source_trap, strategy, exclude_traps
    )
    if ion_selection == "chain-head":
        ion = select_ion_chain_head(state, source_trap, pinned)
    elif ion_selection == "max-score":
        ion = select_ion_max_score(
            state, source_trap, destination, pinned, upcoming, window
        )
    else:
        raise ValueError(f"unknown ion selection {ion_selection!r}")
    return ion, destination
