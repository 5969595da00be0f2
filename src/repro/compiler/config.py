"""Compiler configuration.

Two presets reproduce the paper's comparison:

* :meth:`CompilerConfig.baseline` — the QCCD compiler of Murali et
  al. [7]: excess-capacity shuttle direction (Listing 1), no gate
  re-ordering, re-balancing destination search starting from trap 0,
  naive evicted-ion choice.
* :meth:`CompilerConfig.optimized` — this work: future-ops shuttle
  direction with gate-proximity 6 (Section III-A), opportunistic gate
  re-ordering (Algorithm 1), nearest-neighbour-first re-balancing with
  max-score ion selection (Algorithm 2).

Each heuristic can also be toggled independently for the ablation study
(DESIGN.md experiment E5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Paper value of the gate-proximity design parameter (Section III-A3).
DEFAULT_PROXIMITY = 6

#: Max-score ion-selection weights (Section III-C2).
DEFAULT_WEIGHT_DEST = 0.5
DEFAULT_WEIGHT_SOURCE = 0.5
TIE_WEIGHT_DEST = 0.49
TIE_WEIGHT_SOURCE = 0.51


@dataclass(frozen=True)
class CompilerConfig:
    """Tunable knobs of the QCCD compiler.

    Parameters
    ----------
    shuttle_policy:
        ``"excess-capacity"`` (Listing 1 of [7]) or ``"future-ops"``
        (Section III-A2 of the paper).
    proximity:
        Gate-proximity cutoff for the future-ops scan; ``None`` disables
        the cutoff (scan the entire remaining program).
    reorder:
        Enable opportunistic gate re-ordering (Algorithm 1).
    max_reorder_attempts:
        Bound on re-order hoists per active gate (loop safety; the paper
        hoists once per full-destination event).
    rebalance:
        Destination-trap search for traffic-block resolution:
        ``"lowest-index"`` (the [7] behaviour: scan from trap 0) or
        ``"nearest"`` (Algorithm 2).
    ion_selection:
        Which ion to evict from a full trap: ``"chain-head"`` (naive) or
        ``"max-score"`` (Section III-C2).
    rebalance_window:
        Number of upcoming two-qubit gates inspected when scoring
        eviction candidates (the paper bounds this implicitly via its
        O(constant * n) argument; 64 keeps the scan cheap).
    tie_break:
        Future-ops tie handling: ``"excess-capacity"`` falls back to
        Listing 1, ``"first-ion"`` always moves the gate's first ion.
    proximity_metric:
        How the Fig. 5 gate distance is measured: ``"layers"``
        (DAG-layer difference, scale-invariant, default) or ``"gates"``
        (intervening gate count, the most literal reading); see
        :mod:`repro.compiler.policies`.
    capacity_guard:
        Future-ops directions never move an ion into a trap whose excess
        capacity is at or below this value (default 1: one slot of each
        trap stays free).  Measured in ablation E5 to prevent
        re-balancing storms; 0 disables the veto.
    score_decay:
        Geometric per-layer weight on future gates during scoring
        (default 1.0 = the paper's unweighted counts); an extension
        studied in ablation E4.
    cheap_evict:
        When the favourable destination is full and no re-order
        candidate exists, evict a max-score ion to a *directly
        neighbouring* free trap (one shuttle) so the favourable
        direction stays achievable — the Section III-C machinery applied
        at the destination.  Off by default: the E5 ablation measures it
        as a net loss (it feeds a revolving door at congested traps).
    post_passes:
        Post-compilation schedule-optimization passes
        (:mod:`repro.passes`) applied, in order, to the emitted
        schedule: each named pass rewrites the op stream (round-trip
        deletion with merge/split fusion, congestion re-routing, gate
        hoisting), is verified for machine legality and circuit
        equivalence, and is rolled back when the simulated program
        fidelity regresses (guard simulated under the default
        parameter set).  Empty (the default) compiles exactly as the
        paper does; ``("default",)`` expands to the full pipeline.
        Part of the batch-cache fingerprint, so cached results stay
        sound across pass configurations.
    track_chain_order:
        Model physical ion order within chains (Fig. 3 step (i)): an
        ion must sit at the chain end facing its exit edge before it
        can split, so the router emits in-chain SWAP ops to reposition
        it, and merges record which end the ion entered.  Swaps are not
        shuttles (Table II counts are unchanged) but cost time and
        heating in the simulator.  Off by default.
    name:
        Label used in reports.
    """

    shuttle_policy: str = "future-ops"
    proximity: int | None = DEFAULT_PROXIMITY
    reorder: bool = True
    max_reorder_attempts: int = 4
    rebalance: str = "nearest"
    ion_selection: str = "max-score"
    rebalance_window: int = 64
    tie_break: str = "excess-capacity"
    proximity_metric: str = "layers"
    capacity_guard: int = 1
    score_decay: float = 1.0
    cheap_evict: bool = False
    post_passes: tuple[str, ...] = ()
    track_chain_order: bool = False
    name: str = "optimized"

    def __post_init__(self) -> None:
        if self.shuttle_policy not in ("excess-capacity", "future-ops"):
            raise ValueError(
                f"unknown shuttle_policy {self.shuttle_policy!r}"
            )
        if self.rebalance not in ("lowest-index", "nearest"):
            raise ValueError(f"unknown rebalance {self.rebalance!r}")
        if self.ion_selection not in ("chain-head", "max-score"):
            raise ValueError(f"unknown ion_selection {self.ion_selection!r}")
        if self.tie_break not in ("excess-capacity", "first-ion"):
            raise ValueError(f"unknown tie_break {self.tie_break!r}")
        if self.proximity_metric not in ("layers", "gates"):
            raise ValueError(
                f"unknown proximity_metric {self.proximity_metric!r}"
            )
        if self.proximity is not None and self.proximity < 0:
            raise ValueError("proximity must be non-negative or None")
        if self.max_reorder_attempts < 0:
            raise ValueError("max_reorder_attempts must be non-negative")
        if self.rebalance_window <= 0:
            raise ValueError("rebalance_window must be positive")
        if self.capacity_guard < 0:
            raise ValueError("capacity_guard must be non-negative")
        if not 0.0 < self.score_decay <= 1.0:
            raise ValueError("score_decay must be in (0, 1]")
        if self.post_passes:
            # Normalize to a validated tuple ("default"/"all" expand to
            # the full pipeline); unknown names raise here, not at the
            # end of a long compilation.
            from ..passes.registry import resolve_pass_names

            object.__setattr__(
                self, "post_passes", resolve_pass_names(self.post_passes)
            )
        elif not isinstance(self.post_passes, tuple):
            object.__setattr__(self, "post_passes", ())

    @classmethod
    def baseline(cls) -> "CompilerConfig":
        """The QCCD compiler of Murali et al. [7]."""
        return cls(
            shuttle_policy="excess-capacity",
            proximity=None,
            reorder=False,
            rebalance="lowest-index",
            ion_selection="chain-head",
            cheap_evict=False,
            name="baseline[7]",
        )

    @classmethod
    def optimized(cls, proximity: int = DEFAULT_PROXIMITY) -> "CompilerConfig":
        """This work: all three heuristics enabled (paper defaults)."""
        return cls(proximity=proximity, name="this-work")

    def variant(self, **kwargs) -> "CompilerConfig":
        """Copy with fields overridden (used by the ablation harness)."""
        return replace(self, **kwargs)
