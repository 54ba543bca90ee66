import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from privavg import schedule
from privavg.schedule import (
    DECOMPOSE_RETRY_BUDGET,
    DEFAULT_OFFSET_BOUND,
    NodeRole,
    ScheduleInfeasibleError,
    SubstateSchedule,
    decompose_initial_state,
    validate_schedule,
)


def brute_force_violation_set(s: SubstateSchedule, dmax: int, role: NodeRole) -> set[str]:
    """Independent re-statement of the constraints, used to verify the checker."""
    bad = set()
    count = dmax + 2
    if len(s.uy) != count:
        bad.add("uy-length")
    if len(s.uz) != count:
        bad.add("uz-length")
    if any(v != 1 for v in s.uz):
        bad.add("uz-ones")
    if sum(s.uy) != count * s.y0:
        bad.add("sum")
    if role is NodeRole.PRIVATE:
        if len(set(s.uy)) != len(s.uy):
            bad.add("distinct")
        if s.y0 in s.uy:
            bad.add("not-initial")
    else:
        if any(v != s.y0 for v in s.uy):
            bad.add("uniform")
    return bad


class TestValidateSchedule:
    def test_worked_private_example_is_clean(self):
        s = SubstateSchedule(y0=4, uy=(1, 8, 6, 2, 3), uz=(1, 1, 1, 1, 1))
        assert validate_schedule(s, 3, NodeRole.PRIVATE) == []
        assert sum(s.uy) == 5 * 4  # substates average back to the initial state

    def test_all_equal_private_breaks_distinctness_and_initial(self):
        s = SubstateSchedule(y0=4, uy=(4, 4, 4), uz=(1, 1, 1))
        kinds = {v.constraint for v in validate_schedule(s, 1, NodeRole.PRIVATE)}
        assert kinds == {"distinct", "not-initial"}

    def test_sum_violation(self):
        s = SubstateSchedule(y0=4, uy=(1, 8, 6, 2, 4), uz=(1, 1, 1, 1, 1))
        kinds = {v.constraint for v in validate_schedule(s, 3, NodeRole.PRIVATE)}
        assert "sum" in kinds  # 21 != 20; the final 4 also collides with y0
        assert "not-initial" in kinds

    def test_checker_against_exhaustive_enumeration(self):
        # dmax=1 -> three substates; enumerate a small integer cube.
        for y0 in (-1, 0, 2):
            for uy in itertools.product(range(-3, 4), repeat=3):
                s = SubstateSchedule(y0=y0, uy=uy, uz=(1, 1, 1))
                for role in (NodeRole.PRIVATE, NodeRole.NEUTRAL):
                    got = {v.constraint for v in validate_schedule(s, 1, role)}
                    assert got == brute_force_violation_set(s, 1, role), (y0, uy, role)

    def test_length_and_carrier_violations(self):
        s = SubstateSchedule(y0=1, uy=(2, 0, 1), uz=(1, 0, 1))
        kinds = {v.constraint for v in validate_schedule(s, 2, NodeRole.PRIVATE)}
        assert {"uy-length", "uz-length", "uz-ones"} <= kinds

    def test_uniform_violation_for_neutral(self):
        s = SubstateSchedule(y0=7, uy=(7, 8, 6), uz=(1, 1, 1))
        kinds = {v.constraint for v in validate_schedule(s, 1, NodeRole.NEUTRAL)}
        assert kinds == {"uniform"}


class TestDecompose:
    def test_neutral_is_all_equal(self):
        s = decompose_initial_state(7, 2, NodeRole.NEUTRAL)
        assert s.uy == (7, 7, 7, 7) and s.uz == (1, 1, 1, 1)

    def test_curious_matches_neutral_shape(self):
        s = decompose_initial_state(-3, 1, NodeRole.CURIOUS)
        assert s.uy == (-3, -3, -3) and validate_schedule(s, 1, NodeRole.CURIOUS) == []

    def test_private_derived_example(self):
        s = decompose_initial_state(-5, 1, NodeRole.PRIVATE, 10, random.Random(1))
        assert validate_schedule(s, 1, NodeRole.PRIVATE) == []
        assert all(abs(v - (-5)) <= 10 for v in s.uy)

    def test_private_deterministic_under_seed(self):
        a = decompose_initial_state(9, 3, NodeRole.PRIVATE, 100, random.Random(42))
        b = decompose_initial_state(9, 3, NodeRole.PRIVATE, 100, random.Random(42))
        assert a == b

    def test_private_requires_rng(self):
        with pytest.raises(ValueError):
            decompose_initial_state(4, 2, NodeRole.PRIVATE)

    def test_infeasible_window_raises(self):
        with pytest.raises(ScheduleInfeasibleError):
            decompose_initial_state(0, 3, NodeRole.PRIVATE, 1, random.Random(0))
        with pytest.raises(ScheduleInfeasibleError, match="offset_bound must be a positive integer"):
            decompose_initial_state(5, 2, NodeRole.PRIVATE, offset_bound=0, rng=random.Random(0))

    def test_dmax_must_be_positive(self):
        with pytest.raises(ValueError):
            decompose_initial_state(1, 0, NodeRole.NEUTRAL)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-100, 100),
        st.integers(1, 8),
        st.integers(0, 10_000),
    )
    def test_private_draws_always_validate(self, y0, dmax, seed):
        s = decompose_initial_state(y0, dmax, NodeRole.PRIVATE, 100, random.Random(seed))
        assert validate_schedule(s, dmax, NodeRole.PRIVATE) == []
        # integer mean identity, no floating point
        assert sum(s.uy) == (dmax + 2) * y0

    def test_substate_counter_accessors_zero_beyond_schedule(self):
        s = decompose_initial_state(5, 1, NodeRole.NEUTRAL)
        assert s.uy_at(2) == 5 and s.uy_at(3) == 0
        assert s.uz_at(2) == 1 and s.uz_at(3) == 0


# decompose_initial_state as it stood when it built the whole window as a
# list on every private draw, kept verbatim as its oracle; only the name
# differs.


def reference_decompose_initial_state(
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
    window = [v for v in range(y0 - offset_bound, y0 + offset_bound + 1) if v != y0]
    if len(window) < count:
        raise ScheduleInfeasibleError(
            f"window of size {len(window)} cannot hold {count} distinct substates"
        )
    for _ in range(max_attempts):
        drawn = rng.sample(window, count - 1)
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


def _decompose_outcome(fn, y0, dmax, bound, seed, *budget):
    """fn's schedule or the type and text of what it raised, with the state
    its rng was left in."""
    rng = random.Random(seed)
    try:
        result = fn(y0, dmax, NodeRole.PRIVATE, bound, rng, *budget)
    except ScheduleInfeasibleError as err:
        result = (type(err), str(err))
    return result, rng.getstate()


class TestDecomposeMatchesReference:
    def test_schedules_errors_and_rng_state_match(self, monkeypatch):
        # Per seed: a bound from the infeasible edge (2 * bound < dmax + 2)
        # to wide windows, and a retry budget small enough that some draws
        # run it out.  The module's budget is read at call time.
        outcomes = set()
        for seed in range(300):
            pick = random.Random(seed)
            dmax = pick.randint(1, 40)
            bound = pick.choice((pick.randint(1, dmax + 2), pick.randint(1, 333)))
            y0 = pick.randint(-1000, 1000)
            attempts = pick.randint(1, 40)
            monkeypatch.setattr(schedule, "DECOMPOSE_RETRY_BUDGET", attempts)
            got = _decompose_outcome(decompose_initial_state, y0, dmax, bound, seed)
            want = _decompose_outcome(
                reference_decompose_initial_state, y0, dmax, bound, seed, attempts
            )
            assert got == want, (seed, y0, dmax, bound, attempts)
            result = got[0]
            outcomes.add(result[1].split()[0] if isinstance(result, tuple) else "schedule")
        assert outcomes == {"schedule", "window", "no"}

    def test_wide_window_does_not_materialise(self):
        tracemalloc.start()
        try:
            decompose_initial_state(0, 10, NodeRole.PRIVATE, 10**5, random.Random(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestMutationsAreCaught:
    """Break one constraint at a time; the checker must flag each."""

    def setup_method(self):
        self.base = decompose_initial_state(
            11, 4, NodeRole.PRIVATE, 100, random.Random(77)
        )
        assert validate_schedule(self.base, 4, NodeRole.PRIVATE) == []

    def mutate(self, **kw):
        fields = {"y0": self.base.y0, "uy": self.base.uy, "uz": self.base.uz}
        fields.update(kw)
        return SubstateSchedule(**fields)

    def test_duplicate_entry(self):
        uy = list(self.base.uy)
        uy[1] = uy[0]
        s = self.mutate(uy=tuple(uy))
        assert any(v.constraint == "distinct" for v in validate_schedule(s, 4, NodeRole.PRIVATE))

    def test_entry_equal_to_initial(self):
        uy = list(self.base.uy)
        delta = uy[2] - self.base.y0
        uy[2] = self.base.y0
        uy[3] += delta  # keep the sum identity so only one constraint breaks
        s = self.mutate(uy=tuple(uy))
        kinds = {v.constraint for v in validate_schedule(s, 4, NodeRole.PRIVATE)}
        assert "not-initial" in kinds and "sum" not in kinds

    def test_broken_sum(self):
        uy = list(self.base.uy)
        uy[0] += 1
        s = self.mutate(uy=tuple(uy))
        assert any(v.constraint == "sum" for v in validate_schedule(s, 4, NodeRole.PRIVATE))

    def test_broken_carrier(self):
        uz = list(self.base.uz)
        uz[2] = 0
        s = self.mutate(uz=tuple(uz))
        assert any(v.constraint == "uz-ones" for v in validate_schedule(s, 4, NodeRole.PRIVATE))

    def test_truncated_schedule(self):
        s = self.mutate(uy=self.base.uy[:-1], uz=self.base.uz[:-1])
        kinds = {v.constraint for v in validate_schedule(s, 4, NodeRole.PRIVATE)}
        assert {"uy-length", "uz-length"} <= kinds
