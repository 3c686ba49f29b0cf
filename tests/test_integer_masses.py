"""Tables stored as integer masses over one denominator.

The model, process and transform builders accumulate integer masses, and
the drop-closure check decides on integers; each is pitted here against its
per-entry ``Fraction`` construction (``fraction_oracles``) on random
rational weights with zeros and gaps, and the stored form is checked to be
in lowest terms.
"""

import math
from fractions import Fraction

import fraction_oracles as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eomkit import (
    BudgetExceededError,
    ConditioningError,
    EmptySupportError,
    MixingSpec,
    OccupancyDistribution,
    WeightFunction,
    build_process,
    builtin_weight,
    check_drop_closure,
    condition_on_partial_sum,
    conditional_from_iid,
    drop_particle,
    erase_cell,
    weight_model,
)
from eomkit.combinat import enumerate_compositions
from eomkit.models import FractionTable

F = Fraction


def rationals(max_numerator=6):
    """Small nonnegative rationals, zero about one time in four."""
    return st.one_of(
        st.just(F(0)),
        st.builds(F, st.integers(1, max_numerator), st.integers(1, 5)),
    )


@st.composite
def weights(draw, r):
    """A weight table reaching at least ``r``, positive somewhere."""
    values = draw(st.lists(rationals(), min_size=r + 1, max_size=r + 3).filter(any))
    return WeightFunction(tuple(values))


def assert_lowest_terms(table: FractionTable, expected: dict):
    assert table == expected
    assert all(m > 0 for m in table.masses.values())
    assert math.gcd(table.denominator, *table.masses.values()) == 1
    assert table.denominator == math.lcm(*(p.denominator for p in expected.values()))


@st.composite
def models(draw):
    """(fast model, oracle table): a product-form model or an arbitrary table."""
    n, r = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        a = draw(weights(r))
        try:
            expected = oracle.weight_model(a, n, r)
        except EmptySupportError:
            with pytest.raises(EmptySupportError):
                weight_model(a, n, r)
            expected = {(r,) + (0,) * (n - 1): F(1)}
            return OccupancyDistribution(n, r, expected), expected
        d = weight_model(a, n, r)
        assert_lowest_terms(d.table, expected)
        return d, expected
    space = enumerate_compositions(n, r)
    raw = draw(st.lists(rationals(9), min_size=len(space), max_size=len(space)).filter(any))
    total = sum(raw)
    expected = {x: p / total for x, p in zip(space, raw) if p}
    return OccupancyDistribution(n, r, expected), expected


@settings(max_examples=150, deadline=None)
@given(models(), st.data())
def test_fast_paths_match_fraction_oracles(model, data):
    d, table = model
    if d.r >= 1:
        assert_lowest_terms(drop_particle(d).table, oracle.drop_particle(table, d.r))
    if d.n >= 2:
        assert_lowest_terms(erase_cell(d).table, oracle.erase_cell(table, d.n))
        sub_n = data.draw(st.integers(1, d.n - 1))
        s = data.draw(st.integers(0, d.r))
        try:
            expected = oracle.condition_on_partial_sum(table, sub_n, s)
        except ConditioningError:
            with pytest.raises(ConditioningError):
                condition_on_partial_sum(d, sub_n, s)
        else:
            assert_lowest_terms(condition_on_partial_sum(d, sub_n, s).table, expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(0, 5), st.data())
def test_build_process_matches_fraction_oracle(horizon, cap, data):
    a = data.draw(weights(cap))
    raw = data.draw(st.lists(rationals(9), min_size=cap + 1, max_size=cap + 1).filter(any))
    pi = [p / sum(raw) for p in raw]
    try:
        expected = oracle.build_process(a, horizon, pi)
    except EmptySupportError:
        with pytest.raises(EmptySupportError):
            build_process(a, horizon, pi)
        return
    assert_lowest_terms(build_process(a, horizon, pi).joint, expected)


def outcome_of(call, *args):
    """The value of ``call(*args)``, or the type and text of what it raises."""
    try:
        return call(*args)
    except (ValueError, EmptySupportError) as exc:
        return type(exc), str(exc)


@st.composite
def tilted_builtins(draw, r):
    """A built-in weight on 0..r times t**x: product form, so closed under
    drop exactly when the built-in weight is."""
    a = builtin_weight(draw(st.sampled_from(["mb", "be", "fd", "pc:2", "pc:3"])), r)
    t = draw(st.builds(F, st.integers(1, 5), st.integers(1, 5)))
    return WeightFunction(tuple(v * t**x for x, v in enumerate(a.values)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_drop_closure_matches_fraction_oracle(n, r, data):
    a = data.draw(st.one_of(weights(r), tilted_builtins(r)))
    assert outcome_of(check_drop_closure, a, n, r) == outcome_of(
        oracle.check_drop_closure, a, n, r
    )


#: the mixing specs of the ``eom`` suite's sufficiency check
MIXES = [
    None,
    MixingSpec(((F(1, 2), F(1)),)),
    MixingSpec(((F(1, 3), F(1, 2)), (F(2, 3), F(1, 2)))),
    MixingSpec(((F(1, 5), F(1, 4)), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2)))),
]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from(MIXES), st.data())
def test_conditional_from_iid_matches_fraction_oracle(n, r, mix, data):
    q = data.draw(st.lists(rationals(), min_size=r + 1, max_size=r + 3))
    expected = outcome_of(oracle.conditional_from_iid, q, n, r, mix)
    if isinstance(expected, dict):
        assert_lowest_terms(conditional_from_iid(q, n, r, mix).table, expected)
    else:
        assert outcome_of(conditional_from_iid, q, n, r, mix) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(weights), st.data())
def test_product_matches_the_product_of_single_weights(a, data):
    x = data.draw(st.lists(st.integers(0, a.x_max), max_size=5))
    assert a.product(x) == math.prod((a(v) for v in x), start=F(1))
    assert a.scaled_product(x) == a.product(x) * a.scale ** len(x)
    # the first occupancy outside the table is reported, as a(v) reports it
    bad = data.draw(st.sampled_from([-1, a.x_max + 1]))
    x.insert(data.draw(st.integers(0, len(x))), bad)
    x.append(-2)
    with pytest.raises(ValueError) as expected:
        a(bad)
    with pytest.raises(ValueError) as raised:
        a.product(x)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) == (
        f"weight undefined at occupancy {bad} (table covers 0..{a.x_max})"
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(weights), st.integers(1, 4), st.data())
def test_weighted_compositions_match_the_products_of_single_weights(a, n, data):
    r = data.draw(st.integers(0, a.x_max))
    table = a.weighted_compositions(n, r)
    # every composition, zero products included, in lexicographic order
    assert list(table.items()) == [
        (x, oracle.weight_product(a, x) * a.scale**n)
        for x in enumerate_compositions(n, r)
    ]
    assert a.weighted_compositions(n, r) is table  # served from the memo


def test_weighted_compositions_charge_the_budget_before_memoizing():
    a = WeightFunction((F(1),) * 6)
    with pytest.raises(BudgetExceededError, match="budget"):
        a.weighted_compositions(100, 5)  # 91,962,520 compositions
    with pytest.raises(ValueError, match="covers 0..5"):
        a.weighted_compositions(3, 6)
    assert a._weighted == {}
    assert a.weighted_compositions(2, 5) == {(v, 5 - v): 1 for v in range(6)}
    assert list(a._weighted) == [(2, 5)]


def test_equal_tables_have_equal_storage():
    halves = OccupancyDistribution.from_masses(2, 1, 6, {(0, 1): 3, (1, 0): 3})
    assert (halves.table.denominator, halves.table.masses) == (2, {(0, 1): 1, (1, 0): 1})
    assert halves == OccupancyDistribution(2, 1, {(0, 1): F(1, 2), (1, 0): F(1, 2)})
    assert halves.table == {(0, 1): F(1, 2), (1, 0): F(1, 2)}
    # the public constructor drops zero masses before the gcd is taken
    zero = FractionTable(4, {(0, 1): 4, (1, 0): 0})
    assert OccupancyDistribution(2, 1, zero).table.masses == {(0, 1): 1}


def test_from_masses_validates_like_the_fraction_constructor():
    # integer masses given to the public constructor as a FractionTable are
    # validated like any other mapping; ``from_masses`` trusts its builder
    def build(n, r, denominator, masses):
        return OccupancyDistribution(n, r, FractionTable(denominator, masses))

    with pytest.raises(ValueError, match="negative probability -1/2 at"):
        build(2, 2, 2, {(1, 1): 3, (2, 0): -1})
    with pytest.raises(ValueError, match="probabilities sum to 2/3, not 1"):
        build(2, 2, 3, {(1, 1): 2})
    with pytest.raises(ValueError, match="is not a composition of 2"):
        build(2, 2, 1, {(2, 1): 1})
    with pytest.raises(ValueError, match="denominator must be a positive integer"):
        build(2, 2, 0, {})


def test_the_masses_are_the_only_copy_of_a_table():
    d = weight_model(WeightFunction((F(1), F(1, 2), F(1, 6))), 3, 2)
    assert FractionTable.__slots__ == ("denominator", "masses")
    assert len(d.table) == 6 and (0, 1, 1) in d.table
    assert sorted(d.table) == enumerate_compositions(3, 2)
    assert d.table[(0, 1, 1)] == F(1, 5)  # (1/4) / (3/6 + 3/4)
    for key in d.table:
        assert d.table[key] == F(d.table.masses[key], d.table.denominator)


@settings(max_examples=100, deadline=None)
@given(models())
def test_the_mapping_view_equals_the_fractions_of_the_masses(model):
    table = model[0].table
    view = {key: F(m, table.denominator) for key, m in table.masses.items()}
    assert table == view and view == table
    assert dict(table.items()) == view and list(table.values()) == list(view.values())
    assert all(table.get(key) == value for key, value in view.items())
    assert table.get((-1,)) is None and table.get((-1,), F(0)) == 0
    assert repr(table) == repr(view)
