"""Marking strategies — the paper's technique variants.

The evaluation names variants ``BB[min,lookahead]`` (basic-block
technique), ``Int[min]`` (interval technique), and ``Loop[min]`` (loop
technique); Table 2 sweeps eighteen of them.  Each strategy computes the
transition points for its sectioning granularity by filtering the
summaries (or basic-block sections) its annotated program shares with
every other strategy of the same program and typing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Protocol

from repro.errors import InstrumentationError
from repro.analysis.annotate import AttributedProgram
from repro.analysis.transitions import (
    TransitionPoint,
    basic_block_transitions,
    interval_transitions,
    loop_transitions,
)


class MarkingStrategy(Protocol):
    """A technique for choosing phase-transition points."""

    @property
    def name(self) -> str:
        """Display name, e.g. ``"Loop[45]"``."""
        ...

    def compute_points(self, aprog: AttributedProgram) -> list[TransitionPoint]:
        """Select the transition points to mark."""
        ...


@dataclass(frozen=True)
class BBStrategy:
    """Basic-block technique with a minimum block size and lookahead."""

    min_size: int = 10
    lookahead: int = 0

    @property
    def name(self) -> str:
        return f"BB[{self.min_size},{self.lookahead}]"

    def compute_points(self, aprog: AttributedProgram) -> list[TransitionPoint]:
        return basic_block_transitions(aprog, self.min_size, self.lookahead)


@dataclass(frozen=True)
class IntervalStrategy:
    """Interval technique with a minimum interval size."""

    min_size: int = 45

    @property
    def name(self) -> str:
        return f"Int[{self.min_size}]"

    def compute_points(self, aprog: AttributedProgram) -> list[TransitionPoint]:
        return interval_transitions(aprog, self.min_size)


@dataclass(frozen=True)
class LoopStrategy:
    """Inter-procedural loop technique with a minimum loop size."""

    min_size: int = 45
    eliminate_same_type_callees: bool = True

    @property
    def name(self) -> str:
        return f"Loop[{self.min_size}]"

    def compute_points(self, aprog: AttributedProgram) -> list[TransitionPoint]:
        return loop_transitions(
            aprog,
            self.min_size,
            eliminate_same_type_callees=self.eliminate_same_type_callees,
        )


_STRATEGY_RE = re.compile(
    r"^(?P<kind>BB|Int|Loop)\[(?P<min>\d+)(?:,(?P<look>\d+))?\]$"
)


def parse_strategy(name: str) -> MarkingStrategy:
    """Parse a strategy name like ``"BB[15,2]"`` or ``"Loop[45]"``.

    Raises:
        InstrumentationError: if the name is malformed.
    """
    match = _STRATEGY_RE.match(name.strip())
    if match is None:
        raise InstrumentationError(f"malformed strategy name {name!r}")
    kind = match.group("kind")
    min_size = int(match.group("min"))
    look = match.group("look")
    if kind == "BB":
        return BBStrategy(min_size, int(look or 0))
    if look is not None:
        raise InstrumentationError(
            f"{kind} strategies take no lookahead: {name!r}"
        )
    if kind == "Int":
        return IntervalStrategy(min_size)
    return LoopStrategy(min_size)
