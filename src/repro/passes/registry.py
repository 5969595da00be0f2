"""Pass registry: names, docs, default pipeline.

The registry is the single source of truth for which passes exist —
``CompilerConfig.post_passes`` validation, the CLI's ``--passes``
flags, ``repro info`` listings and the :class:`PassManager` default
pipeline all resolve through it.
"""

from __future__ import annotations

from collections.abc import Iterable

from .base import SchedulePass
from .fuse import MergeSplitFusion
from .reroute import RouteReselection
from .tighten import GateHoisting

#: name -> pass class, in default pipeline order: round-trip deletion
#: and journey fusion/shortening first, then congestion re-routing,
#: then clock tightening on the final op stream.
PASS_REGISTRY: dict[str, type[SchedulePass]] = {
    MergeSplitFusion.name: MergeSplitFusion,
    RouteReselection.name: RouteReselection,
    GateHoisting.name: GateHoisting,
}

#: The pipeline run by ``post_passes=("default",)`` shortcuts and the
#: PassManager when no passes are named.
DEFAULT_PIPELINE: tuple[str, ...] = tuple(PASS_REGISTRY)


def available_passes() -> list[tuple[str, str]]:
    """(name, one-line description) for every registered pass."""
    return [
        (name, cls.description) for name, cls in PASS_REGISTRY.items()
    ]


def resolve_pass_names(names: Iterable[str] | None) -> tuple[str, ...]:
    """Normalize a pass-name list: ``None``/``"default"``/``"all"``
    expand to the default pipeline; unknown names raise ``ValueError``."""
    if names is None:
        return DEFAULT_PIPELINE
    if isinstance(names, str):
        names = (names,)
    resolved: list[str] = []
    for name in names:
        if name in ("default", "all"):
            resolved.extend(DEFAULT_PIPELINE)
        elif name in PASS_REGISTRY:
            resolved.append(name)
        else:
            raise ValueError(
                f"unknown pass {name!r}; choose from "
                f"{sorted(PASS_REGISTRY)} (or 'default'/'all')"
            )
    # Deduplicate while preserving first occurrence.
    seen: set[str] = set()
    return tuple(
        n for n in resolved if not (n in seen or seen.add(n))
    )


def make_passes(passes: object = None) -> list[SchedulePass]:
    """Instantiate a pipeline from names, classes, instances or None."""
    if passes is None:
        return [PASS_REGISTRY[name]() for name in DEFAULT_PIPELINE]
    if isinstance(passes, (str, SchedulePass)) or (
        isinstance(passes, type) and issubclass(passes, SchedulePass)
    ):
        passes = (passes,)
    pipeline: list[SchedulePass] = []
    for item in passes:  # type: ignore[union-attr]
        if isinstance(item, SchedulePass):
            pipeline.append(item)
        elif isinstance(item, type) and issubclass(item, SchedulePass):
            pipeline.append(item())
        elif isinstance(item, str):
            for name in resolve_pass_names((item,)):
                pipeline.append(PASS_REGISTRY[name]())
        else:
            raise TypeError(
                f"expected pass name, class or instance, got "
                f"{type(item).__name__}"
            )
    return pipeline
