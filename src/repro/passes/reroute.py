"""Route re-selection through less-congested equal-length paths.

The router commits to one BFS shortest path per journey; on topologies
with path diversity (rings, grids) several routes of the same hop count
exist, and the deterministic tie-break can drag traffic through crowded
traps — every hop into a full trap forces a re-balancing eviction.
This pass replays per-trap occupancy from the op stream and, for each
multi-hop journey, re-scores every equal-length shortest path by the
occupancy of its intermediate traps at the moment the journey departs;
when a strictly less-congested route exists the MoveOps are rewritten
in place (same hop count — shuttle totals never change, but the
traffic avoids the hot spots).

On linear machines (the paper's L6) shortest paths are unique and the
pass is a provable no-op.  Rewrites are verified through the
checkpointed splice engine — each alternative route is one
``(start, end, replacement)`` splice replayed from the nearest state
checkpoint, the full-replay verdict at O(window) cost — and reverted
when the alternative route is blocked at the stream position the
journey actually crosses it.
"""

from __future__ import annotations

from .base import (
    PassContext,
    SchedulePass,
    SpliceEditor,
    extract_excursions,
    occupancy_at,
    occupancy_timeline,
)
from ..core.ops import MoveOp
from ..core.replay import CheckpointedReplay
from ..sim.schedule import Schedule

#: Cap on enumerated equal-length paths per journey (grids explode
#: combinatorially; 32 lexicographically-first paths is plenty).
_MAX_PATHS = 32


def equal_shortest_paths(
    topology, src: int, dst: int, cap: int = _MAX_PATHS
) -> list[list[int]]:
    """All shortest ``src -> dst`` trap sequences, lexicographic order,
    capped at ``cap``."""
    paths: list[list[int]] = []

    def expand(node: int, prefix: list[int]) -> None:
        if len(paths) >= cap:
            return
        if node == dst:
            paths.append(prefix)
            return
        remaining = topology.distance(node, dst)
        for neighbor in topology.neighbors(node):
            if topology.distance(neighbor, dst) == remaining - 1:
                expand(neighbor, prefix + [neighbor])

    expand(src, [src])
    return paths


class RouteReselection(SchedulePass):
    """Re-route multi-hop journeys around congested intermediate traps."""

    name = "reroute"
    description = (
        "re-route multi-hop moves through less-congested equal-length "
        "paths (occupancy replay; no-op on linear machines)"
    )

    def run(
        self, schedule: Schedule, ctx: PassContext
    ) -> tuple[Schedule, int]:
        ops = list(schedule.ops)
        events = occupancy_timeline(ops)
        machine = ctx.machine
        topology = machine.topology

        editor = SpliceEditor(
            CheckpointedReplay(machine, schedule.ops, ctx.initial_chains),
            schedule,
        )
        rewrites = 0

        for trip in extract_excursions(ops):
            if trip.num_moves < 2:
                continue  # single hops have no alternative
            merge = ops[trip.merge_index]
            if merge.position is not None or trip.prep_swap_indices:
                continue  # chain-order entry semantics tied to the route
            current = [trip.start_trap] + [
                ops[i].dst for i in trip.move_indices
            ]
            if len(current) - 1 != topology.distance(
                trip.start_trap, trip.end_trap
            ):
                continue  # not a shortest route (shouldn't happen)
            alternatives = equal_shortest_paths(
                topology, trip.start_trap, trip.end_trap
            )
            if len(alternatives) < 2:
                continue
            occupancy = occupancy_at(
                events, machine, ctx.initial_chains, trip.split_index
            )

            def congestion(path: list[int]) -> int:
                return sum(occupancy[t] for t in path[1:-1])

            best = min(alternatives, key=lambda p: (congestion(p), p))
            if best == current or congestion(best) >= congestion(current):
                continue
            reason = ops[trip.move_indices[0]].reason
            replacement = [
                MoveOp(ion=trip.ion, src=a, dst=b, reason=reason)
                for a, b in zip(best, best[1:])
            ]
            if editor.try_edit(
                set(trip.move_indices),
                {trip.move_indices[0]: replacement},
            ):
                rewrites += 1

        if not rewrites:
            return Schedule(ops), 0
        return editor.schedule, rewrites
