"""Decomposition of integer initial states into per-round substates.

A node splits its initial value y0 into dmax + 2 integer substates whose
mean is exactly y0.  Privacy-seeking nodes draw pairwise-distinct substates
all different from y0; everyone else uses the degenerate all-equal split.
The z-side carrier is always 1 per substate, 0 once the schedule runs out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

DECOMPOSE_RETRY_BUDGET = 10_000
DEFAULT_OFFSET_BOUND = 100


class NodeRole(Enum):
    PRIVATE = "private"
    CURIOUS = "curious"
    NEUTRAL = "neutral"


class ScheduleInfeasibleError(RuntimeError):
    """No valid substate draw exists within the configured offset window."""


@dataclass(frozen=True, slots=True)
class SubstateSchedule:
    """The full substate plan of one node: y-substates and unit z-carriers.

    uy and uz have length dmax + 2; indices beyond are implicitly zero.
    """

    y0: int
    uy: tuple[int, ...]
    uz: tuple[int, ...]

    @property
    def dmax(self) -> int:
        return len(self.uy) - 2

    def uy_at(self, s: int) -> int:
        return self.uy[s] if s < len(self.uy) else 0

    def uz_at(self, s: int) -> int:
        return self.uz[s] if s < len(self.uz) else 0


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken schedule constraint, with the indices that broke it."""

    constraint: str
    detail: str

    def __str__(self) -> str:
        return f"{self.constraint}: {self.detail}"


def decompose_initial_state(
    y0: int,
    dmax: int,
    role: NodeRole,
    offset_bound: int = DEFAULT_OFFSET_BOUND,
    rng: random.Random | None = None,
    max_attempts: int = DECOMPOSE_RETRY_BUDGET,
) -> SubstateSchedule:
    """Build a role-appropriate substate schedule for initial state y0.

    Private draws are uniform over the window [y0 - offset_bound,
    y0 + offset_bound]: dmax + 1 distinct values are sampled and the last
    entry is forced so the substates sum to (dmax + 2) * y0, retrying the
    whole draw whenever the forced entry collides, equals y0, or leaves the
    window.  Raises ScheduleInfeasibleError when the retry budget runs out.
    """
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    count = dmax + 2
    uz = (1,) * count
    if role is not NodeRole.PRIVATE:
        return SubstateSchedule(y0=y0, uy=(y0,) * count, uz=uz)

    if rng is None:
        raise ValueError("a seeded rng is required for private schedules")
    if offset_bound < 1:
        raise ScheduleInfeasibleError("offset_bound must be a positive integer")
    if 2 * offset_bound < count:
        raise ScheduleInfeasibleError(
            f"window of size {2 * offset_bound} cannot hold {count} distinct substates"
        )
    # The window without y0 is these 2 * offset_bound slots with v >= y0 read
    # as v + 1.  sample() picks positions from the length alone, so the draws
    # and the rng stream equal those of sampling the window as a list, which
    # would cost memory in proportion to offset_bound.
    slots = range(y0 - offset_bound, y0 + offset_bound)
    for _ in range(max_attempts):
        drawn = [v + (v >= y0) for v in rng.sample(slots, count - 1)]
        forced = count * y0 - sum(drawn)
        if forced == y0 or forced in drawn or abs(forced - y0) > offset_bound:
            continue
        values = drawn + [forced]
        rng.shuffle(values)
        return SubstateSchedule(y0=y0, uy=tuple(values), uz=uz)
    raise ScheduleInfeasibleError(
        f"no feasible draw for y0={y0}, dmax={dmax}, offset_bound={offset_bound} "
        f"after {max_attempts} attempts"
    )


def structural_violations(s: SubstateSchedule, dmax: int) -> list[Violation]:
    """The length, carrier and sum constraints every role's schedule must meet."""
    count = dmax + 2
    violations: list[Violation] = []
    if len(s.uy) != count:
        violations.append(
            Violation("uy-length", f"expected {count} substates, got {len(s.uy)}")
        )
    if len(s.uz) != count:
        violations.append(
            Violation("uz-length", f"expected {count} carriers, got {len(s.uz)}")
        )
    bad_uz = [i for i, v in enumerate(s.uz) if v != 1]
    if bad_uz:
        violations.append(Violation("uz-ones", f"uz not 1 at indices {bad_uz}"))
    total = sum(s.uy)
    if total != count * s.y0:
        violations.append(
            Violation("sum", f"sum(uy)={total}, expected {count}*{s.y0}={count * s.y0}")
        )
    return violations


def validate_schedule(s: SubstateSchedule, dmax: int, role: NodeRole) -> list[Violation]:
    """Return one entry per broken constraint; an empty list means valid."""
    violations = structural_violations(s, dmax)
    if role is NodeRole.PRIVATE:
        seen: dict[int, int] = {}
        for i, v in enumerate(s.uy):
            if v in seen:
                violations.append(
                    Violation("distinct", f"uy[{seen[v]}] == uy[{i}] == {v}")
                )
            else:
                seen[v] = i
        equal_y0 = [i for i, v in enumerate(s.uy) if v == s.y0]
        if equal_y0:
            violations.append(
                Violation("not-initial", f"uy equals y0={s.y0} at indices {equal_y0}")
            )
    else:
        off = [i for i, v in enumerate(s.uy) if v != s.y0]
        if off:
            violations.append(
                Violation("uniform", f"non-private uy must equal y0 at indices {off}")
            )
    return violations
