"""Finite-horizon processes: construction, laws, and the characterization checks."""

import ast
import inspect
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import fraction_oracles as oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from stream_oracles import draw_counts, stream_or_error

from eomkit import combinat, process, verify
from eomkit.errors import BudgetExceededError, ConditioningError, EmptySupportError
from eomkit.models import (
    WeightFunction,
    builtin_weight,
    normalization_constant,
    sample_exact,
    weight_model,
)
from eomkit.process import (
    FiniteProcess,
    arrival_event_probability,
    build_process,
    check_characterizations,
    check_mixed_geometric_form,
    check_structure_recursion,
    check_weight_model_conditionals,
    classic_uosp_value,
    conditional_jumps_given_count,
    count_distribution,
    interarrival_event_probability,
    joint_jump_density,
    sample_path,
    sample_paths,
    structure_function,
    terminal_law,
    transition_probability,
)
from eomkit.report import CheckOutcome
from eomkit.verify import _suite_processes, perturbed_process

F = Fraction


@pytest.fixture
def flat_process():
    """Constant weight, horizon 1, uniform terminal law on {0, 1, 2}."""
    return build_process(builtin_weight("be", 2), 1, [F(1, 3)] * 3)


def test_build_joint_table(flat_process):
    assert flat_process.joint == {
        (0, 0): F(1, 3),
        (1, 0): F(1, 6),
        (0, 1): F(1, 6),
        (2, 0): F(1, 9),
        (1, 1): F(1, 9),
        (0, 2): F(1, 9),
    }


def test_build_point_mass_at_zero():
    p = build_process(builtin_weight("mb", 0), 2, [F(1)])
    assert p.joint == {(0, 0, 0): F(1)}


def test_build_capacity_one_paths_are_binary():
    p = build_process(builtin_weight("fd", 3), 2, [F(1, 4)] * 4)
    assert all(set(path) <= {0, 1} for path in p.joint)


def test_build_rejects_unreachable_terminal_count():
    with pytest.raises(EmptySupportError):
        build_process(builtin_weight("fd", 3), 1, [F(0), F(0), F(0), F(1)])
    with pytest.raises(ValueError):
        build_process(builtin_weight("be", 2), 1, [F(1, 2), F(1, 4)])


def test_build_budget_counts_jumps_of_each_path():
    # a single path, but with more jumps than the budget allows
    horizon = combinat.ENUMERATION_BUDGET
    with pytest.raises(BudgetExceededError, match="budget"):
        build_process(builtin_weight("be", 0), horizon, [F(1)])


def test_joint_jump_density(flat_process):
    p = flat_process
    assert joint_jump_density(p, 1, (1, 1)) == F(1, 9)
    # summed over the second jump
    assert joint_jump_density(p, 0, (0,)) == F(11, 18)
    assert joint_jump_density(p, 0, (1,)) == F(5, 18)
    with pytest.raises(ValueError):
        joint_jump_density(p, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        joint_jump_density(p, 1, (0,))


def test_count_distribution(flat_process):
    p = flat_process
    assert count_distribution(p, 0) == {0: F(11, 18), 1: F(5, 18), 2: F(1, 9)}
    assert terminal_law(p) == {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}
    for t in range(p.horizon + 1):
        assert sum(count_distribution(p, t).values()) == 1


def test_structure_function(flat_process):
    p = flat_process
    # at the horizon: terminal mass over the composition count
    assert structure_function(p, 1, 0) == F(1, 3)
    assert structure_function(p, 1, 1) == F(1, 3) / 2
    assert structure_function(p, 1, 2) == F(1, 3) / 3
    assert structure_function(p, 0, 0) == F(11, 18)
    fd = build_process(builtin_weight("fd", 2), 1, [F(1, 3)] * 3)
    with pytest.raises(EmptySupportError):
        structure_function(fd, 0, 2)  # two particles cannot share time 0


def test_structure_function_rejects_times_outside_the_horizon():
    p = build_process(builtin_weight("mb", 2), 1, [F(1, 3)] * 3)
    rows = len(p.weight._power_rows)
    for t in (5000, -1):
        with pytest.raises(ValueError, match=f"^time {t} outside 0..1$"):
            structure_function(p, t, 2)
    # before the check came first, t = 5000 left 5,002 rows on the weight
    assert len(p.weight._power_rows) == rows
    # a(1) = 0, so C_6(1) = 0: the time is reported, not the empty normalizer
    gap = build_process(WeightFunction((1, 0, 1)), 1, [F(1, 2), 0, F(1, 2)])
    with pytest.raises(ValueError, match="^time 5 outside 0..1$"):
        structure_function(gap, 5, 1)


def test_conditional_jumps(flat_process):
    cond = conditional_jumps_given_count(flat_process, 1, 2)
    assert cond.table == {(2, 0): F(1, 3), (1, 1): F(1, 3), (0, 2): F(1, 3)}
    with pytest.raises(ConditioningError):
        conditional_jumps_given_count(flat_process, 0, 3)
    with pytest.raises(ValueError, match=r"^count must be >= 0, got -1$"):
        conditional_jumps_given_count(flat_process, 0, -1)


def test_conditionals_match_weight_models():
    for kind in ("mb", "be", "fd", "pc:2"):
        cap = 3
        p = build_process(builtin_weight(kind, cap), 2, [F(1, 4)] * 4)
        outcome = check_weight_model_conditionals(p)
        assert outcome.passed, outcome.witness
        for t in range(p.horizon + 1):
            for k, mass in count_distribution(p, t).items():
                if mass:
                    assert conditional_jumps_given_count(p, t, k) == weight_model(
                        builtin_weight(kind, cap), t + 1, k
                    )


def test_mixed_geometric_form_and_recovered_table(flat_process):
    outcome = check_mixed_geometric_form(flat_process)
    assert outcome == CheckOutcome("joint-factorization")
    assert structure_function(flat_process, 0, 0) == F(11, 18)
    assert structure_function(flat_process, 1, 2) == F(1, 9)
    # constant weights: the factorization puts R(t, k) on every prefix
    for t in (0, 1):
        for k in range(3):
            for prefix in combinat.enumerate_compositions(t + 1, k):
                assert joint_jump_density(flat_process, t, prefix) == structure_function(
                    flat_process, t, k
                )


def test_interarrival_probabilities(flat_process):
    p = flat_process
    # two arrivals at time zero and no third one there
    assert interarrival_event_probability(p, (0, 0)) == F(1, 9)
    # exactly one arrival at time zero
    assert interarrival_event_probability(p, (0,)) == F(5, 18)
    with pytest.raises(ValueError):
        interarrival_event_probability(p, (1, 1))
    with pytest.raises(ValueError):
        interarrival_event_probability(p, ())


def test_arrival_probabilities(flat_process):
    p = flat_process
    assert arrival_event_probability(p, (0, 1)) == F(1, 9)
    assert arrival_event_probability(p, (1,)) == joint_jump_density(p, 1, (0, 1))
    with pytest.raises(ValueError):
        arrival_event_probability(p, (1, 0))
    with pytest.raises(ValueError):
        arrival_event_probability(p, (2,))


def test_arrival_interarrival_agree():
    p = build_process(builtin_weight("pc:2", 4), 3, [F(1, 5)] * 5)
    for chi in range(1, 4):
        for times in itertools.combinations_with_replacement(range(4), chi):
            gaps = [times[0]] + [b - a for a, b in zip(times, times[1:])]
            assert arrival_event_probability(p, times) == interarrival_event_probability(
                p, gaps
            )


def test_unit_jump_arrival_events_partition():
    # with capacity-one jumps there are no ties, so for each count the
    # arrival events with their no-extra-arrival clause tile {N_M >= count}
    p = build_process(builtin_weight("fd", 4), 3, [F(1, 5)] * 5)
    final = count_distribution(p, p.horizon)
    for chi in range(1, 5):
        total = sum(
            arrival_event_probability(p, times)
            for times in itertools.combinations_with_replacement(range(4), chi)
        )
        tail = sum(mass for k, mass in final.items() if k >= chi)
        assert total == tail


def test_transition_probabilities(flat_process):
    p = flat_process
    assert transition_probability(p, 0, 0, 1) == F(3, 11)
    assert transition_probability(p, 0, 0, 5) == 0
    rows = sum(transition_probability(p, 0, 0, i) for i in range(3))
    assert rows == 1
    with pytest.raises(ConditioningError):
        transition_probability(p, 0, 3, 0)
    with pytest.raises(ValueError, match=r"^count must be >= 0, got -1$"):
        transition_probability(p, 0, -1, 0)
    with pytest.raises(ValueError):
        transition_probability(p, 1, 0, 1)


def test_transition_matches_direct_conditional():
    p = build_process(builtin_weight("mb", 4), 2, [F(1, 5)] * 5)
    for t in range(p.horizon):
        counts = count_distribution(p, t)
        nxt = count_distribution(p, t + 1)
        for k, mass in counts.items():
            if not mass:
                continue
            for i in range(p.count_cap - k + 1):
                direct = F(0)
                for prefix, pr in p.marginal(t + 1).items():
                    if sum(prefix[: t + 1]) == k and prefix[t + 1] == i:
                        direct += pr
                assert transition_probability(p, t, k, i) == direct / mass


def test_structure_recursion_and_zero_count(flat_process):
    assert check_structure_recursion(flat_process)
    for t in range(flat_process.horizon + 1):
        assert count_distribution(flat_process, t)[0] == structure_function(
            flat_process, t, 0
        )


def test_characterization_report(flat_process):
    checks = check_characterizations(flat_process)
    assert [c.name for c in checks] == [
        "jump-conditionals-product-form",
        "joint-factorization",
        "interarrival-product-formula",
        "arrival-product-formula",
    ]
    assert all(c.passed for c in checks)


def test_perturbed_joint_fails_checks(flat_process):
    bad = perturbed_process(flat_process)
    assert bad is not None
    assert sum(bad.joint.values()) == 1
    assert not (
        check_weight_model_conditionals(bad).passed
        and check_mixed_geometric_form(bad).passed
    )
    failed = [c for c in check_characterizations(bad) if not c.passed]
    assert failed and failed[0].witness is not None


def test_classic_uosp_values():
    assert classic_uosp_value("strict", 4, 2, (1, 3)) == F(1, 6)
    assert classic_uosp_value("leq1", 2, 2, (0, 0)) == F(1, 9)
    assert classic_uosp_value("leq1", 2, 2, (0, 1)) == F(2, 9)
    assert classic_uosp_value("leq2", 2, 2, (0, 1)) == F(1, 6)


#: (kind, t, k, times, error text) of ``classic_uosp_value``: times breaking
#: several rules get the text of the first in order (count, order, range,
#: integers), and the kind is judged last
CLASSIC_ERRORS = [
    ("leq1", 2, 2, (1,), "expected 2 arrival times, got 1"),
    ("strict", 4, 2, (3, 1), "times (3, 1) are not strictly increasing"),
    ("strict", 4, 2, (0, 0), "times (0, 0) are not strictly increasing"),
    ("strict", 4, 2, (0, 1), "times (0, 1) outside 1..4"),
    ("strict", 4, 2, (1, 2.5), "times (1, 2.5) are not integers"),
    ("leq1", 2, 2, (1, 0.5), "times (1, 0.5) are not nondecreasing"),
    ("leq1", 2, 2, (0, 3.5), "times (0, 3.5) outside 0..2"),
    ("leq1", 2, 2, (0, 0.5), "times (0, 0.5) are not integers"),
    ("leq2", 2, 2, (0, F(1, 2)), "times (0, Fraction(1, 2)) are not integers"),
    ("flat", 2, 2, (1, 0), "times (1, 0) are not nondecreasing"),
    ("flat", 2, 2, (0, 0.5), "times (0, 0.5) are not integers"),
    ("flat", 2, 1, (0,), "unknown kind 'flat'"),
]


@pytest.mark.parametrize("kind, t, k, times, text", CLASSIC_ERRORS)
def test_classic_uosp_errors_come_in_order(kind, t, k, times, text):
    for call in (classic_uosp_value, oracle.classic_uosp_value):
        with pytest.raises(ValueError) as caught:
            call(kind, t, k, times)
        assert str(caught.value) == text


def test_finite_process_validation():
    with pytest.raises(ValueError):
        FiniteProcess(builtin_weight("be", 1), 1, {(1, 1): F(1)})  # weight too short
    with pytest.raises(ValueError):
        FiniteProcess(builtin_weight("be", 2), 1, {(1,): F(1)})
    with pytest.raises(ValueError):
        FiniteProcess(builtin_weight("be", 2), 1, {(1, 0): F(1, 2)})


def test_constructor_takes_only_weight_horizon_joint():
    assert list(inspect.signature(FiniteProcess).parameters) == ["weight", "horizon", "joint"]
    # a cache handed in by the caller could feed the count queries a non-law
    with pytest.raises(TypeError):
        FiniteProcess(builtin_weight("be", 1), 1, {(0, 1): F(1)}, {})


def test_sample_path_determinism(flat_process):
    rng_a, rng_b = random.Random(3), random.Random(3)
    first = [sample_path(flat_process, rng_a) for _ in range(40)]
    second = [sample_path(flat_process, rng_b) for _ in range(40)]
    assert first == second
    assert set(first) <= set(flat_process.joint)


@st.composite
def product_processes(draw):
    """(a, horizon, law, count): weights with zeros and gaps, half of them
    multiples of a shared factor, and terminal laws with zeros, horizon 0
    included.  Some weights stop short of the law's last total, some laws
    are not laws and some horizons are negative: the builder refuses those,
    as it refuses a law on a total that no positive-weight path reaches."""
    horizon = draw(st.integers(0, 4)) - (draw(st.integers(0, 9)) == 0)
    cap = draw(st.integers(0, 5))
    shared = draw(st.sampled_from([1, 1, 2, 6]))
    values = st.builds(F, st.integers(0, 4).map(shared.__mul__), st.integers(1, 3))
    length = cap + 1 - (cap and draw(st.integers(0, 5)) == 0)
    weights = draw(st.lists(values, min_size=length, max_size=length).filter(any))
    raw = draw(st.lists(st.integers(0, 3), min_size=cap + 1, max_size=cap + 1).filter(any))
    law = [F(v, sum(raw)) for v in raw]
    if draw(st.integers(0, 9)) == 0:
        law[0] -= F(1, 4)
    cells = max(horizon + 1, 1)
    size = sum(math.comb(cells + k - 1, k) for k, p in enumerate(law) if p)
    return WeightFunction(tuple(weights)), horizon, law, draw_counts(draw, size)


@settings(max_examples=300, deadline=None)
@given(product_processes(), st.integers(0, 2**32))
@example((builtin_weight("mb", 4), 2, [F(1, 5)] * 5, 7), 0)  # masses share factors
@example((builtin_weight("be", 0), combinat.ENUMERATION_BUDGET, [F(1)], 1), 0)  # budget
def test_sample_paths_draws_the_stream_of_the_built_joint(case, seed):
    a, horizon, law, count = case
    drawn = stream_or_error(lambda rng: sample_paths(a, horizon, law, rng, count), seed)
    built = stream_or_error(
        lambda rng: sample_exact(build_process(a, horizon, law).joint, rng, count), seed
    )
    assert drawn == built


@st.composite
def arbitrary_processes(draw, max_denominator=1):
    """A weight table with zeros and any joint on paths of total at most its
    x_max; the joint need not factorize.  The weights are integers unless
    ``max_denominator`` > 1, when they are rationals with denominators up to
    it, so that L, the lcm of those denominators, is not always 1."""
    horizon = draw(st.integers(0, 3))
    cap = draw(st.integers(0, 4))
    values = draw(
        st.lists(
            st.builds(F, st.integers(0, 4), st.integers(1, max_denominator)),
            min_size=cap + 1,
            max_size=cap + 1,
        ).filter(any)
    )
    paths = [
        path
        for k in range(cap + 1)
        for path in combinat.enumerate_compositions(horizon + 1, k)
    ]
    chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=12, unique=True))
    masses = draw(st.lists(st.integers(1, 9), min_size=len(chosen), max_size=len(chosen)))
    total = sum(masses)
    joint = {path: F(m, total) for path, m in zip(chosen, masses)}
    return FiniteProcess(WeightFunction(tuple(values)), horizon, joint)


@st.composite
def built_processes(draw):
    """``build_process`` of a rational weight (denominators 1..6, zeros
    allowed) and a random terminal law, half the time perturbed by
    ``perturbed_process``: joints that factorize, or nearly do."""
    horizon = draw(st.integers(0, 3))
    cap = draw(st.integers(0, 4))
    rationals = st.builds(F, st.integers(0, 4), st.integers(1, 6))
    values = draw(st.lists(rationals, min_size=cap + 1, max_size=cap + 1).filter(any))
    raw = draw(st.lists(rationals, min_size=cap + 1, max_size=cap + 1).filter(any))
    try:
        p = build_process(WeightFunction(tuple(values)), horizon, [v / sum(raw) for v in raw])
    except EmptySupportError:
        assume(False)
    if draw(st.booleans()):
        return perturbed_process(p) or p
    return p


@settings(max_examples=60, deadline=None)
@given(arbitrary_processes(), st.booleans())
def test_cached_laws_match_sums_over_joint(p, counts_last):
    cap = max(sum(path) for path in p.joint)
    assert p.count_cap == cap
    if counts_last:
        # on a fresh process, the other count queries build the cached
        # records first
        for t in range(p.horizon + 1):
            for k in range(cap + 1):
                assert outcome_of(structure_function, p, t, k) == outcome_of(
                    oracle.structure_value, p, t, k
                )
                try:
                    expected = oracle.conditional_given_count(p, t, k)
                except ConditioningError:
                    with pytest.raises(ConditioningError):
                        conditional_jumps_given_count(p, t, k)
                else:
                    assert conditional_jumps_given_count(p, t, k).table == expected
                if t < p.horizon:
                    for i in range(p.weight.x_max + 1):
                        assert outcome_of(transition_probability, p, t, k, i) == outcome_of(
                            oracle.transition_probability, p, t, k, i
                        )
    for _ in range(2):  # the second round is served from the caches
        for t in range(p.horizon + 1):
            direct = {k: F(0) for k in range(cap + 1)}
            for path, pr in p.joint.items():
                direct[sum(path[: t + 1])] += pr
            assert count_distribution(p, t) == direct
            for k in range(cap + 1):
                c = normalization_constant(p.weight, t + 1, k)
                if c == 0:
                    with pytest.raises(EmptySupportError):
                        structure_function(p, t, k)
                else:
                    assert structure_function(p, t, k) == direct[k] / c
    assert p == FiniteProcess(p.weight, p.horizon, dict(p.joint))


@settings(max_examples=40, deadline=None)
@given(st.one_of(arbitrary_processes(), built_processes()))
def test_the_count_record_indexes_the_marginal_itself(p):
    # every path is its own prefix, and the record keeps no second copy of
    # the prefix masses, only the prefixes of each total
    assert p.marginal(p.horizon) is p.joint
    for t in range(p.horizon + 1):
        marginal = p.marginal(t)
        den, masses, prefixes, totals = process._counts(p, t)
        assert prefixes is marginal.masses and den == marginal.denominator
        assert sorted(x for group in totals.values() for x in group) == sorted(marginal)
        assert all(sum(x) == k and masses[k] for k, group in totals.items() for x in group)


@settings(max_examples=30, deadline=None)
@given(arbitrary_processes())
def test_mutating_a_count_law_leaves_the_cache_intact(p):
    first = count_distribution(p, p.horizon)
    expected = dict(first)
    first[0] += 1
    first[p.count_cap + 1] = F(1)
    assert count_distribution(p, p.horizon) == expected
    assert terminal_law(p) == expected


#: check_characterizations outcomes on perturbed suite processes and on
#: hand-made joints, recorded before the count laws were cached and the gap
#: tuples enumerated directly.  "fd-unreachable" puts mass on count 2 at
#: t=0, which one fd cell cannot hold, so its normalizer is zero
PINNED_OUTCOMES = {
    "seed 0: mb/M=2/uniform": ("(t,k)=(1, 1)", "prefix (1, (1, 0))"),
    "seed 0: be/M=2/geometric": ("(t,k)=(1, 1)", "prefix (1, (1, 0))"),
    "seed 0: fd/M=2/random": ("(t,k)=(1, 1)", "prefix (1, (1, 0))"),
    "seed 0: random-0/M=2/geometric": ("(t,k)=(1, 1)", "prefix (1, (1, 0))"),
    "seed 0: random-3/M=2/geometric": ("(t,k)=(1, 1)", "prefix (1, (1, 0))"),
    "seed 0: random-4/M=2/random": ("(t,k)=(1, 1)", "prefix (1, (1, 0))"),
    "seed 3: mb/M=3/uniform": ("(t,k)=(2, 1)", "prefix (2, (0, 1, 0))"),
    "seed 3: fd/M=2/geometric": ("(t,k)=(1, 1)", "prefix (1, (1, 0))"),
    "fd-double": ("(t,k)=(1, 2)", "prefix (1, (0, 2))"),
    "be-late": ("(t,k)=(1, 1)", "prefix (1, (1, 0))"),
    "mb-skew": ("(t,k)=(1, 1)", "prefix (1, (1, 0))"),
    "fd-unreachable": ("(t,k)=(0, 2)", "prefix (0, (2,))"),
}


def pinned_joints():
    suite = {
        f"seed {seed}: {label}": p
        for seed, max_horizon in ((0, 2), (3, 3))
        for label, p in _suite_processes(seed, max_horizon)
    }
    for name in PINNED_OUTCOMES:
        if name.startswith("seed"):
            yield name, perturbed_process(suite[name])
    yield "fd-double", FiniteProcess(
        builtin_weight("fd", 2), 1, {(0, 0): F(1, 2), (0, 2): F(1, 4), (1, 1): F(1, 4)}
    )
    yield "be-late", FiniteProcess(
        builtin_weight("be", 3),
        2,
        {(0, 0, 0): F(1, 2), (0, 1, 2): F(1, 4), (1, 1, 1): F(1, 8), (3, 0, 0): F(1, 8)},
    )
    yield "mb-skew", FiniteProcess(
        builtin_weight("mb", 2),
        2,
        {(0, 0, 1): F(1, 3), (0, 1, 0): F(1, 3), (0, 0, 0): F(1, 3)},
    )
    yield "fd-unreachable", FiniteProcess(
        builtin_weight("fd", 2), 1, {(0, 0): F(1, 2), (2, 0): F(1, 4), (1, 1): F(1, 4)}
    )


def test_pinned_characterization_witnesses():
    seen = {}
    for label, p in pinned_joints():
        outcomes = check_characterizations(p)
        seen[label] = [(c.name, c.passed, c.witness) for c in outcomes]
    assert seen == {
        label: [
            ("jump-conditionals-product-form", False, cond),
            ("joint-factorization", False, form),
        ]
        for label, (cond, form) in PINNED_OUTCOMES.items()
    }


@settings(max_examples=60, deadline=None)
@given(arbitrary_processes())
def test_conditionals_check_never_raises(p):
    unreachable = [
        (t, k)
        for t in range(p.horizon + 1)
        for k, mass in count_distribution(p, t).items()
        if mass and normalization_constant(p.weight, t + 1, k) == 0
    ]
    outcome = check_weight_model_conditionals(p)
    if unreachable:
        assert not outcome.passed
        assert ast.literal_eval(outcome.witness.removeprefix("(t,k)=")) <= unreachable[0]
    assert check_characterizations(p)[0] == outcome


@settings(max_examples=80, deadline=None)
@given(arbitrary_processes())
def test_mixed_geometric_form_matches_structure_function(p):
    outcome = check_mixed_geometric_form(p)
    assert outcome.name == "joint-factorization"

    def weight(prefix):
        return math.prod((p.weight(j) for j in prefix), start=F(1))

    if outcome.passed:
        assert outcome.witness is None
        for t in range(p.horizon + 1):
            for k in range(p.count_cap + 1):
                for prefix in combinat.enumerate_compositions(t + 1, k):
                    w = weight(prefix)
                    density = joint_jump_density(p, t, prefix)
                    if w:
                        assert density == structure_function(p, t, k) * w
                    else:
                        assert density == 0
        return
    t, bad = ast.literal_eval(outcome.witness.removeprefix("prefix "))
    density = joint_jump_density(p, t, bad)
    if weight(bad) == 0:
        assert density > 0
        return
    # the first positive-weight prefix of the same total sets the ratio
    first = next(
        x
        for x in combinat.enumerate_compositions(t + 1, sum(bad))
        if weight(x)
    )
    assert first < bad
    assert density / weight(bad) != joint_jump_density(p, t, first) / weight(first)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        arbitrary_processes(),
        arbitrary_processes(max_denominator=6),
        built_processes(),
    )
)
def test_characterizations_match_fraction_oracle(p):
    assert check_characterizations(p) == oracle.check_characterizations(p)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        arbitrary_processes(),
        arbitrary_processes(max_denominator=6),
        built_processes(),
    )
)
def test_structure_recursion_matches_fraction_oracle(p):
    assert check_structure_recursion(p) == oracle.check_structure_recursion(p)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        arbitrary_processes(),
        arbitrary_processes(max_denominator=6),
        built_processes(),
    )
)
def test_structure_mismatch_matches_fraction_oracle(p):
    assert process._structure_mismatch(p) == oracle.structure_mismatch(p)


def two_table_conditionals(p):
    """The conditional check as it was first written: build the conditional
    law and the product-form model for each (t, k) with mass and compare."""
    name = "jump-conditionals-product-form"
    for t in range(p.horizon + 1):
        for k, mass in count_distribution(p, t).items():
            if not mass:
                continue
            if normalization_constant(p.weight, t + 1, k) == 0 or (
                conditional_jumps_given_count(p, t, k) != weight_model(p.weight, t + 1, k)
            ):
                return CheckOutcome(name, f"(t,k)={(t, k)}")
    return CheckOutcome(name)


@settings(max_examples=80, deadline=None)
@given(arbitrary_processes())
def test_conditionals_compared_in_place_match_two_tables(p):
    assert check_weight_model_conditionals(p) == two_table_conditionals(p)


def wrong_at(real, hit):
    """``real``, off by 1/7 wherever ``hit(arguments after the process)``."""

    def fake(p, *args):
        value = real(p, *args)
        return value + F(1, 7) if hit(*args) else value

    return fake


#: check_characterizations outcomes under faults injected into the names it
#: calls, on pc:2 with M=3 and a uniform terminal law on 0..4; recorded
#: while the gap and arrival formulas still walked their events separately
INJECTED_OUTCOMES = [
    (
        {"structure_function": lambda t, k: (t, k) == (2, 4)},
        "gaps (0, 0, 0, 2)",
        "times (0, 0, 0, 2)",
    ),
    (
        {"interarrival_event_probability": lambda gaps: tuple(gaps) == (1, 1, 0)},
        "gaps (1, 1, 0)",
        "times (1, 2, 2) vs gaps [1, 1, 0]",
    ),
    (
        {"arrival_event_probability": lambda times: tuple(times) == (0, 2, 3)},
        None,
        "times (0, 2, 3)",
    ),
    (
        {
            "interarrival_event_probability": lambda gaps: tuple(gaps) == (0, 3),
            "arrival_event_probability": lambda times: tuple(times) == (1,),
        },
        "gaps (0, 3)",
        "times (1,)",
    ),
]


@pytest.mark.parametrize("faults, by_gaps, by_times", INJECTED_OUTCOMES)
def test_injected_fault_in_arrival_walk(faults, by_gaps, by_times, monkeypatch):
    p = build_process(builtin_weight("pc:2", 4), 3, [F(1, 5)] * 5)
    for name, hit in faults.items():
        monkeypatch.setattr(process, name, wrong_at(getattr(process, name), hit))
    assert [(c.name, c.passed, c.witness) for c in check_characterizations(p)] == [
        ("jump-conditionals-product-form", True, None),
        ("joint-factorization", True, None),
        ("interarrival-product-formula", by_gaps is None, by_gaps),
        ("arrival-product-formula", by_times is None, by_times),
    ]


@settings(max_examples=60, deadline=None)
@given(st.one_of(built_processes(), arbitrary_processes(max_denominator=6)))
def test_perturbation_moves_half_the_donor_mass(p):
    expected = oracle.perturbed_joint(p)
    bad = perturbed_process(p)
    if expected is None:
        assert bad is None
        return
    assert bad.joint == expected
    assert bad == FiniteProcess(p.weight, p.horizon, expected)
    assert math.gcd(bad.joint.denominator, *bad.joint.masses.values()) == 1


def outcome_of(call, *args):
    """The value of ``call(*args)``, or the type and text of what it raises."""
    try:
        return call(*args)
    except (ValueError, EmptySupportError) as exc:
        return type(exc), str(exc)


def assert_transitions_match_oracle(p):
    for t in range(-1, p.horizon + 1):
        for k in range(-1, p.count_cap + 2):
            for i in range(-1, p.weight.x_max + 2):
                args = (p, t, k, i)
                assert outcome_of(transition_probability, *args) == outcome_of(
                    oracle.transition_probability, *args
                ), (t, k, i)


@settings(max_examples=60, deadline=None)
@given(st.one_of(built_processes(), arbitrary_processes(max_denominator=6)))
def test_transitions_match_fraction_oracle(p):
    assert_transitions_match_oracle(p)


def test_transition_errors_match_oracle_at_zero_normalizers():
    # count 2 at t=0 has mass, but one fd cell cannot hold it: C'_1(2) = 0
    here = FiniteProcess(
        builtin_weight("fd", 2), 1, {(0, 0): F(1, 2), (2, 0): F(1, 4), (1, 1): F(1, 4)}
    )
    # count 3 at t=1 has mass, but two fd cells cannot hold it: C'_2(3) = 0
    there = FiniteProcess(builtin_weight("fd", 3), 1, {(0, 0): F(1, 2), (0, 3): F(1, 2)})
    # both normalizers vanish: the target count is named first
    both = FiniteProcess(
        builtin_weight("fd", 3), 1, {(0, 0): F(1, 2), (3, 0): F(1, 4), (0, 3): F(1, 4)}
    )
    for p, args, text in (
        (here, (0, 2, 0), "t=0, k=2"),
        (there, (0, 0, 3), "t=1, k=3"),
        (both, (0, 3, 0), "t=1, k=3"),
    ):
        expected = (
            EmptySupportError,
            f"structure function undefined at {text}: no positive-weight path",
        )
        for call in (transition_probability, oracle.transition_probability):
            with pytest.raises(EmptySupportError) as caught:
                call(p, *args)
            assert (type(caught.value), str(caught.value)) == expected
        assert_transitions_match_oracle(p)


@settings(max_examples=60, deadline=None)
@given(st.one_of(built_processes(), arbitrary_processes()))
def test_count_conditionals_match_filter_by_sum(p):
    for t in range(p.horizon + 1):
        for k in range(-1, p.count_cap + 2):
            try:
                expected = oracle.conditional_given_count(p, t, k)
            except (ValueError, ConditioningError) as exc:
                with pytest.raises(type(exc)) as caught:
                    conditional_jumps_given_count(p, t, k)
                assert str(caught.value) == str(exc)
                continue
            first = conditional_jumps_given_count(p, t, k)
            assert first.table == expected
            stored = first.table.denominator, dict(first.table.masses)
            # a caller that mutates its table leaves the cached group intact
            for x in list(first.table.masses):
                first.table.masses[x] += 1
            first.table.masses[(k + 1,) * (t + 1)] = 1
            again = conditional_jumps_given_count(p, t, k)
            assert (again.table.denominator, again.table.masses) == stored
    for t in (-1, p.horizon + 1):
        with pytest.raises(ValueError, match=f"time {t} outside"):
            conditional_jumps_given_count(p, t, 0)


#: (event function, argument, error text) on ``flat_process`` (horizon 1):
#: an argument breaking several rules gets the text of the first in order
#: (negative, order, horizon, integers); gaps add up to nondecreasing times
#: >= 0, so only the horizon and integers are left there, both judged on
#: those times
ARRIVAL_ERRORS = [
    (arrival_event_probability, (-1, 3, 2), "arrival times must be >= 0, got (-1, 3, 2)"),
    (arrival_event_probability, (3, 2), "arrival times (3, 2) are not nondecreasing"),
    (arrival_event_probability, (0, 2), "arrival time 2 beyond horizon 1"),
    (arrival_event_probability, (), "at least one arrival time is required"),
    (interarrival_event_probability, (-1, 3, 2), "gaps must be >= 0, got (-1, 3, 2)"),
    (interarrival_event_probability, (0, 2), "arrival time 2 beyond horizon 1"),
    (interarrival_event_probability, (), "at least one inter-arrival gap is required"),
    (arrival_event_probability, (0.5,), "arrival times must be integers, got (0.5,)"),
    (arrival_event_probability, (0.5, 1), "arrival times must be integers, got (0.5, 1)"),
    (arrival_event_probability, (0.5, 2), "arrival time 2 beyond horizon 1"),
    (interarrival_event_probability, (0, 0.5), "arrival times must be integers, got (0, 0.5)"),
    (interarrival_event_probability, (1, -0.5), "gaps must be >= 0, got (1, -0.5)"),
    (interarrival_event_probability, (0.5, 0), "arrival times must be integers, got (0.5, 0.5)"),
]


@pytest.mark.parametrize("call, arg, text", ARRIVAL_ERRORS)
def test_arrival_profile_errors_come_in_order(flat_process, call, arg, text):
    with pytest.raises(ValueError) as caught:
        call(flat_process, arg)
    assert str(caught.value) == text


#: arrival times and gaps for the event functions: integers around 0..M and
#: a few values that are not integers
event_arguments = st.lists(
    st.one_of(st.integers(-1, 5), st.sampled_from([0.5, 1.0, F(3, 2)])), max_size=4
)


@settings(max_examples=100, deadline=None)
@given(built_processes(), event_arguments, event_arguments)
def test_event_probabilities_match_fraction_oracle(p, times, gaps):
    for call, arg in (
        (arrival_event_probability, times),
        (interarrival_event_probability, gaps),
    ):
        assert outcome_of(call, p, arg) == outcome_of(getattr(oracle, call.__name__), p, arg)


@st.composite
def classic_processes(draw):
    """``build_process`` of a built-in weight of the classic suite and a
    uniform terminal law, half the time perturbed by ``perturbed_process``."""
    kind = draw(st.sampled_from(["fd", "mb", "be"]))
    horizon = draw(st.integers(1, 3))
    cap = horizon + 1 if kind == "fd" else draw(st.integers(1, 4))
    p = build_process(builtin_weight(kind, cap), horizon, [F(1, cap + 1)] * (cap + 1))
    if draw(st.booleans()):
        return perturbed_process(p) or p
    return p


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(classic_processes(), built_processes()),
    st.sampled_from(["strict", "leq1", "leq2"]),
)
def test_classic_recovery_matches_fraction_oracle(p, kind):
    assert outcome_of(verify._classic_mismatch, p, kind) == outcome_of(
        oracle.classic_mismatch, p, kind
    )


@settings(max_examples=100, deadline=None)
@given(st.one_of(classic_processes(), built_processes()))
def test_markov_rows_match_fraction_oracle(p):
    assert verify._markov_mismatch(p) == oracle.markov_mismatch(p)


SPIED = ("structure_function", "interarrival_event_probability", "arrival_event_probability")


def test_arrival_walk_reads_each_case_once(monkeypatch):
    """Over ``theorem_suite(0, 2)``, each process's arrival walk calls each
    event function once per event, in walk order, and ``structure_function``
    at most once per (t, k)."""
    walks = []  # (process, {name: [arguments after the process, per call]})

    def spy(name):
        real = getattr(process, name)

        def counted(p, *args):
            walks[-1][1][name].append(args)
            return real(p, *args)

        return counted

    def characterizations(p):
        walks.append((p, {name: [] for name in SPIED}))
        return check_characterizations(p)

    for name in SPIED:
        monkeypatch.setattr(process, name, spy(name))
    monkeypatch.setattr(verify, "check_characterizations", characterizations)
    assert verify.theorem_suite(0, 2).passed
    assert len(walks) == 27
    for p, calls in walks:
        events = [
            times
            for k in range(1, p.count_cap + 1)
            for times in itertools.combinations_with_replacement(range(p.horizon + 1), k)
        ]
        assert calls["arrival_event_probability"] == [(times,) for times in events]
        assert [
            tuple(itertools.accumulate(gaps)) for (gaps,) in calls["interarrival_event_probability"]
        ] == events
        pairs = calls["structure_function"]
        assert pairs and len(set(pairs)) == len(pairs)


def test_markov_check_reads_each_record_at_most_twice_per_time(monkeypatch):
    """Over ``theorem_suite(0, 2)``, each process's Markov check calls
    neither ``transition_probability`` nor ``structure_function``, and reads
    the count record and the normalizer row of each t at most twice."""
    checks = []  # (process, Counter of (name, t) read during its check)
    current = None

    def markov(real):
        def checked(p):
            nonlocal current
            current = Counter()
            checks.append((p, current))
            try:
                return real(p)
            finally:
                current = None

        return checked

    def spy(name, time_of):
        real = getattr(process, name)

        def counted(*args):
            if current is not None:
                current[name, time_of(*args)] += 1
            return real(*args)

        return counted

    spies = {
        "_counts": lambda p, t: t,
        "_power_row": lambda a, n: n - 1,  # the row C'_{t+1} of time t
        "transition_probability": lambda p, t, k, i: t,
        "structure_function": lambda p, t, k: t,
    }
    for name, time_of in spies.items():
        monkeypatch.setattr(process, name, spy(name, time_of))
    monkeypatch.setattr(verify, "_markov_mismatch", markov(verify._markov_mismatch))
    assert verify.theorem_suite(0, 2).passed
    assert len(checks) == 27
    for p, reads in checks:
        assert {name for name, _ in reads} == {"_counts", "_power_row"}
        for name in ("_counts", "_power_row"):
            per_time = {t: n for (read, t), n in reads.items() if read == name}
            assert sorted(per_time) == list(range(p.horizon + 1))
            assert max(per_time.values()) <= 2
