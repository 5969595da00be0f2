"""Textual schedule inspection: shuttle traces, op summaries and
before/after optimization diffs."""

from __future__ import annotations

from difflib import SequenceMatcher

from ..core.ops import GateOp, MergeOp, MoveOp, SplitOp, SwapOp
from ..sim.schedule import Schedule


def shuttle_trace(schedule: Schedule, limit: int | None = None) -> str:
    """One line per shuttle-related op, e.g. ``move ion 2: T0 -> T1``."""
    lines = []
    for op in schedule:
        if isinstance(op, SplitOp):
            lines.append(f"split ion {op.ion} from T{op.trap} [{op.reason.value}]")
        elif isinstance(op, MoveOp):
            lines.append(
                f"move  ion {op.ion}: T{op.src} -> T{op.dst} [{op.reason.value}]"
            )
        elif isinstance(op, MergeOp):
            lines.append(f"merge ion {op.ion} into T{op.trap} [{op.reason.value}]")
        if limit is not None and len(lines) >= limit:
            lines.append("...")
            break
    return "\n".join(lines) if lines else "(no shuttles)"


def schedule_summary(schedule: Schedule) -> str:
    """Aggregate op counts and the shuttle/gate ratio."""
    kinds = schedule.count_kinds()
    ratio = schedule.shuttle_to_gate_ratio
    return (
        f"gates={kinds.get('gate', 0)} "
        f"(2q={schedule.num_two_qubit_gates}) "
        f"splits={kinds.get('split', 0)} "
        f"moves={kinds.get('move', 0)} "
        f"merges={kinds.get('merge', 0)} "
        f"shuttle/gate={ratio:.3f}"
    )


def _op_line(op) -> str:
    """One human-readable line per machine op (diff rendering)."""
    if isinstance(op, GateOp):
        return f"gate  {op.gate} in T{op.trap}"
    if isinstance(op, SplitOp):
        return f"split ion {op.ion} from T{op.trap} [{op.reason.value}]"
    if isinstance(op, MoveOp):
        return (
            f"move  ion {op.ion}: T{op.src} -> T{op.dst} "
            f"[{op.reason.value}]"
        )
    if isinstance(op, MergeOp):
        return f"merge ion {op.ion} into T{op.trap} [{op.reason.value}]"
    if isinstance(op, SwapOp):
        return f"swap  ions {op.ion_a}<->{op.ion_b} in T{op.trap}"
    return repr(op)  # pragma: no cover - exhaustive over MachineOp


def timeline_diff(
    before: Schedule,
    after: Schedule,
    limit: int | None = None,
    context: int = 1,
) -> str:
    """Render a before/after timeline diff of an optimized schedule.

    Ops deleted by the passes are *ghosted* with a ``~`` prefix, ops the
    passes introduced (e.g. a shortened re-route) carry ``+``, and
    unchanged ops keep a plain margin.  Long unchanged stretches are
    folded to ``context`` ops on each side.  ``limit`` caps the total
    line count (a trailing ``...`` marks truncation).
    """
    a_ops, b_ops = list(before.ops), list(after.ops)
    matcher = SequenceMatcher(None, a_ops, b_ops, autojunk=False)
    lines: list[str] = []
    for tag, a_lo, a_hi, b_lo, b_hi in matcher.get_opcodes():
        if tag == "equal":
            block = a_ops[a_lo:a_hi]
            if len(block) > 2 * context + 1:
                lines.extend(f"  {_op_line(op)}" for op in block[:context])
                lines.append(
                    f"  ... {len(block) - 2 * context} unchanged ops ..."
                )
                lines.extend(
                    f"  {_op_line(op)}" for op in block[-context:]
                )
            else:
                lines.extend(f"  {_op_line(op)}" for op in block)
        else:  # replace / delete / insert
            lines.extend(f"~ {_op_line(op)}" for op in a_ops[a_lo:a_hi])
            lines.extend(f"+ {_op_line(op)}" for op in b_ops[b_lo:b_hi])
        if limit is not None and len(lines) >= limit:
            return "\n".join(lines[:limit] + ["..."])
    if not lines:
        return "(both schedules empty)"
    return "\n".join(lines)


def gate_trap_histogram(schedule: Schedule) -> dict[int, int]:
    """How many gates ran in each trap (load-balance diagnostics)."""
    histogram: dict[int, int] = {}
    for op in schedule:
        if isinstance(op, GateOp):
            histogram[op.trap] = histogram.get(op.trap, 0) + 1
    return dict(sorted(histogram.items()))
