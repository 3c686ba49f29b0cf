"""Occupancy models, label laws, order statistics, sufficiency, sampling."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from stream_oracles import draw_counts, stream_or_error

from eomkit import combinat
from eomkit.errors import BudgetExceededError, EmptySupportError, NonExchangeableError
from eomkit.models import (
    FractionTable,
    LabelDistribution,
    MixingSpec,
    OccupancyDistribution,
    WeightFunction,
    builtin_weight,
    conditional_from_iid,
    is_exchangeable,
    label_distribution,
    label_marginal,
    normalization_constant,
    occupancy_from_labels,
    order_statistics_distribution,
    sample,
    sample_exact,
    sample_model,
    weight_model,
    weight_model_label_density,
)
from eomkit.verify import random_eom

F = Fraction


def point_mass(n, r, x):
    return OccupancyDistribution(n, r, {tuple(x): F(1)})


def test_builtin_weight_tables():
    assert builtin_weight("mb", 3).values == (F(1), F(1), F(1, 2), F(1, 6))
    assert builtin_weight("be", 2).values == (F(1), F(1), F(1))
    assert builtin_weight("fd", 3).values == (F(1), F(1), F(0), F(0))
    # binom(s+x-1, x) for s=2 and x = 0, 1, 2
    assert builtin_weight("pc:2", 2).values == (F(1), F(2), F(3))
    with pytest.raises(ValueError):
        builtin_weight("bose", 2)
    with pytest.raises(ValueError):
        builtin_weight("pc:0", 2)


def test_weight_function_validation():
    with pytest.raises(ValueError):
        WeightFunction(())
    with pytest.raises(ValueError):
        WeightFunction((F(1), F(-1)))
    with pytest.raises(ValueError):
        WeightFunction((F(0), F(0)))
    a = WeightFunction((1, 1, 5))
    assert a(2) == 5 and a.x_max == 2
    with pytest.raises(ValueError):
        a(3)
    assert builtin_weight("fd", 3).support() == [0, 1]


def test_weight_product():
    a = WeightFunction((1, 2, 5))
    assert a.product((2, 0, 1, 2)) == 50
    assert a.product(()) == 1 and isinstance(a.product(()), Fraction)
    assert builtin_weight("fd", 2).product((1, 2)) == 0
    with pytest.raises(ValueError, match="weight undefined at occupancy 3"):
        a.product((0, 3))


def test_normalization_constant_values():
    assert normalization_constant(builtin_weight("be", 2), 3, 2) == 6
    # 1/2 + 1 + 1/2 over the three compositions of 2 into 2 cells
    assert normalization_constant(builtin_weight("mb", 2), 2, 2) == 2
    assert normalization_constant(builtin_weight("fd", 2), 3, 2) == 3


def brute_normalizer(a, n, r):
    return sum(
        (math.prod((a(v) for v in x), start=F(1))
         for x in combinat.enumerate_compositions(n, r)),
        start=F(0),
    )


def test_normalization_constant_matches_brute_force():
    rng = random.Random(5)
    for _ in range(10):
        n, r = rng.randint(1, 4), rng.randint(0, 4)
        a = WeightFunction(
            tuple(F(rng.randint(0, 6), rng.randint(1, 5)) for _ in range(r + 1))
        )
        if all(v == 0 for v in a.values):
            continue
        assert normalization_constant(a, n, r) == brute_normalizer(a, n, r)


weight_tables = st.lists(
    st.builds(F, st.integers(0, 6), st.integers(1, 5)), min_size=1, max_size=6
).filter(any)


@settings(max_examples=60, deadline=None)
@given(weight_tables, st.randoms(use_true_random=False))
def test_memoized_normalizer_matches_literal_sum_in_any_order(values, rnd):
    a = WeightFunction(tuple(values))
    queries = [(n, r) for n in range(1, 6) for r in range(a.x_max + 1)]
    rnd.shuffle(queries)
    for n, r in queries:
        assert normalization_constant(a, n, r) == brute_normalizer(a, n, r)


@settings(max_examples=30, deadline=None)
@given(weight_tables, st.integers(1, 6))
def test_warm_and_fresh_weights_compare_and_hash_equal(values, n):
    warm = WeightFunction(tuple(values), kind="t")
    normalization_constant(warm, n, warm.x_max)
    fresh = WeightFunction(tuple(values), kind="t")
    assert warm == fresh
    assert hash(warm) == hash(fresh)
    assert repr(warm) == repr(fresh)


def test_budget_charged_before_normalizer():
    for build in (
        lambda: weight_model(builtin_weight("be", 2), 30_000_000, 2),
        lambda: conditional_from_iid([F(1)] * 3, 30_000_000, 2),
    ):
        with pytest.raises(BudgetExceededError, match="budget"):
            build()


def test_weight_model_tables():
    be = weight_model(builtin_weight("be", 2), 2, 2)
    assert be.table == {(0, 2): F(1, 3), (1, 1): F(1, 3), (2, 0): F(1, 3)}
    mb = weight_model(builtin_weight("mb", 2), 2, 2)
    assert mb.table == {(0, 2): F(1, 4), (1, 1): F(1, 2), (2, 0): F(1, 4)}
    fd = weight_model(builtin_weight("fd", 2), 2, 2)
    assert fd.table == {(1, 1): F(1)}
    with pytest.raises(EmptySupportError):
        weight_model(builtin_weight("fd", 3), 2, 3)


def model_or_error(a, n, r):
    """(denominator, masses) of ``weight_model(a, n, r)``, or the text of
    its EmptySupportError."""
    try:
        d = weight_model(a, n, r)
    except EmptySupportError as exc:
        return str(exc)
    return d.table.denominator, d.table.masses


@pytest.mark.parametrize("kind", ["mb", "be", "fd", "pc:2", "pc:3"])
def test_builtin_model_depends_on_the_weight_only_up_to_r(kind):
    # a built-in weight on 0..R is a prefix of one sequence, so one weight
    # per kind serves every model of the model suites' grid
    long = builtin_weight(kind, 9)
    cases = [(n, r) for n in range(1, 7) for r in range(8)]
    for n, r in cases:
        short = builtin_weight(kind, r)
        assert model_or_error(long, n, r) == model_or_error(short, n, r), (n, r)
    assert len(cases) == 48


def test_distribution_validation():
    with pytest.raises(ValueError):
        OccupancyDistribution(2, 2, {(1, 1): F(1, 2)})
    with pytest.raises(ValueError):
        OccupancyDistribution(2, 2, {(1, 2): F(1)})
    with pytest.raises(ValueError):
        OccupancyDistribution(2, 2, {(1, 1): F(-1), (2, 0): F(2)})
    d = OccupancyDistribution(2, 1, {(1, 0): F(1, 2), (0, 1): F(1, 2)})
    assert d.probability((1, 0)) == F(1, 2)
    with pytest.raises(ValueError):
        d.probability((1, 1))


#: the message for each malformed table, recorded before the two table
#: classes shared one validation loop; where an entry has two defects, the
#: length is reported before the sign and the sign before the key's content
TABLE_ERRORS = [
    (OccupancyDistribution, 0, 1, {}, "cell count must be >= 1, got 0"),
    (OccupancyDistribution, 2, -1, {}, "particle count must be >= 0, got -1"),
    (OccupancyDistribution, 2, 2, {(1, 1, 0): F(1)}, "composition (1, 1, 0) has length 3, expected 2"),
    (OccupancyDistribution, 2, 2, {(1, 1, 0): F(-1)}, "composition (1, 1, 0) has length 3, expected 2"),
    (OccupancyDistribution, 2, 2, {(2, 1): F(-1, 2)}, "negative probability -1/2 at (2, 1)"),
    (OccupancyDistribution, 2, 2, {(2, 1): F(1)}, "(2, 1) is not a composition of 2"),
    (OccupancyDistribution, 2, 2, {(3, -1): F(1)}, "(3, -1) is not a composition of 2"),
    (OccupancyDistribution, 2, 2, {(2, 0): F(1, 2)}, "probabilities sum to 1/2, not 1"),
    (LabelDistribution, 0, 1, {}, "cell count must be >= 1, got 0"),
    (LabelDistribution, 2, -1, {}, "particle count must be >= 0, got -1"),
    (LabelDistribution, 2, 2, {(1,): F(1)}, "label vector (1,) has length 1, expected 2"),
    (LabelDistribution, 2, 2, {(1,): F(-1)}, "label vector (1,) has length 1, expected 2"),
    (LabelDistribution, 2, 2, {(1, 3): F(-1, 2)}, "negative probability -1/2 at (1, 3)"),
    (LabelDistribution, 2, 2, {(1, 3): F(1)}, "label vector (1, 3) has labels outside 1..2"),
    (LabelDistribution, 2, 2, {(0, 1): F(1)}, "label vector (0, 1) has labels outside 1..2"),
    (LabelDistribution, 2, 2, {(1, 2): F(1, 3)}, "probabilities sum to 1/3, not 1"),
]
LOOKUP_ERRORS = [
    ((1, 1, 0), "(1, 1, 0) is not a length-2 composition of 2"),
    ((2, 1), "(2, 1) is not a length-2 composition of 2"),
    ((3, -1), "(3, -1) is not a length-2 composition of 2"),
    ((1,), "(1,) is not a label vector for n=2, r=2"),
    ((1, 3), "(1, 3) is not a label vector for n=2, r=2"),
    ((0, 2), "(0, 2) is not a label vector for n=2, r=2"),
]


def test_table_error_messages_are_pinned():
    for cls, n, r, table, text in TABLE_ERRORS:
        with pytest.raises(ValueError) as info:
            cls(n, r, table)
        assert str(info.value) == text
    occupancy = OccupancyDistribution(2, 2, {(1, 1): 1})
    labels = LabelDistribution(2, 2, {(1, 2): 1})
    for key, text in LOOKUP_ERRORS:
        d = occupancy if "composition" in text else labels
        with pytest.raises(ValueError) as info:
            d.probability(key)
        assert str(info.value) == text
    assert repr(occupancy) == "OccupancyDistribution(n=2, r=2, table={(1, 1): Fraction(1, 1)})"
    assert repr(labels) == "LabelDistribution(n=2, r=2, table={(1, 2): Fraction(1, 1)})"
    assert occupancy != LabelDistribution(2, 2, {(1, 1): 1})
    assert labels.support() == [(1, 2)]


def test_is_exchangeable():
    for kind in ("mb", "be", "fd", "pc:2"):
        assert is_exchangeable(weight_model(builtin_weight(kind, 2), 3, 2))
    assert not is_exchangeable(point_mass(2, 2, (2, 0)))
    space = combinat.enumerate_compositions(3, 2)
    uniform = OccupancyDistribution(3, 2, {x: F(1, len(space)) for x in space})
    assert is_exchangeable(uniform)
    lopsided = OccupancyDistribution(
        2, 2, {(2, 0): F(1, 2), (0, 2): F(1, 4), (1, 1): F(1, 4)}
    )
    assert not is_exchangeable(lopsided)


def brute_orbits(table: FractionTable):
    """``{sorted key: mass}`` when every reordering of every key carries the
    key's mass, else None: the permutation-invariance oracle for
    ``ExactTable.orbits``."""
    masses = table.masses
    for key, m in masses.items():
        if any(masses.get(y) != m for y in itertools.permutations(key)):
            return None
    return {tuple(sorted(key)): m for key, m in masses.items()}


@st.composite
def orbit_tables(draw):
    """Occupancy or label tables with n, r <= 3: one mass in 0..2 per orbit
    of the space, then up to two keys given a mass in 0..3 of their own, so
    both whole and broken orbits are common."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        cls, space = OccupancyDistribution, combinat.enumerate_compositions(n, r)
    else:
        cls, space = LabelDistribution, combinat.enumerate_labels(r, n)
    per_orbit = {}
    masses = {x: per_orbit.setdefault(tuple(sorted(x)), draw(st.integers(0, 2))) for x in space}
    for x in draw(st.lists(st.sampled_from(space), max_size=2)):
        masses[x] = draw(st.integers(0, 3))
    masses = {x: m for x, m in masses.items() if m} or {space[0]: 1}
    return cls.from_masses(n, r, sum(masses.values()), masses)


@settings(max_examples=300, deadline=None)
@given(orbit_tables())
def test_orbits_match_the_permutation_invariance_oracle(d):
    assert d.orbits() == brute_orbits(d.table)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 4), st.integers(0, 4))
def test_from_orbits_inverts_orbits(seed, n, r):
    d = random_eom(random.Random(seed), n, r)
    for table in (d, label_distribution(d)):
        orbits = table.orbits()
        again = type(table).from_orbits(table.n, table.r, table.table.denominator, orbits)
        assert again == table and again.orbits() == orbits
        # each orbit's members in distinct_permutations order, as stored
        assert list(again.table.masses) == list(table.table.masses)


def test_label_distribution_tables():
    mb = label_distribution(weight_model(builtin_weight("mb", 2), 2, 2))
    assert mb.table == {y: F(1, 4) for y in combinat.enumerate_labels(2, 2)}
    be = label_distribution(weight_model(builtin_weight("be", 2), 2, 2))
    assert be.table == {
        (1, 1): F(1, 3),
        (1, 2): F(1, 6),
        (2, 1): F(1, 6),
        (2, 2): F(1, 3),
    }


def test_label_distribution_r1_reads_cells():
    d = weight_model(builtin_weight("pc:2", 1), 3, 1)
    ld = label_distribution(d)
    for j in range(1, 4):
        x = tuple(1 if i == j - 1 else 0 for i in range(3))
        assert ld.probability((j,)) == d.probability(x)


def test_label_distribution_requires_exchangeable():
    with pytest.raises(NonExchangeableError):
        label_distribution(point_mass(2, 2, (2, 0)))


def test_occupancy_from_labels():
    for kind in ("mb", "be", "fd"):
        for n in range(2, 4):
            for r in range(1, 4):
                try:
                    d = weight_model(builtin_weight(kind, r), n, r)
                except EmptySupportError:
                    continue
                assert occupancy_from_labels(label_distribution(d)) == d
    # independent uniform labels over two cells give the factorial-decay model
    iid = LabelDistribution(2, 2, {y: F(1, 4) for y in combinat.enumerate_labels(2, 2)})
    assert occupancy_from_labels(iid) == weight_model(builtin_weight("mb", 2), 2, 2)
    stuck = LabelDistribution(3, 2, {(1, 1): F(1)})
    assert occupancy_from_labels(stuck) == point_mass(3, 2, (2, 0, 0))
    with pytest.raises(NonExchangeableError):
        occupancy_from_labels(LabelDistribution(2, 2, {(1, 2): F(1)}))


def test_order_statistics_tables():
    be = order_statistics_distribution(weight_model(builtin_weight("be", 2), 2, 2))
    assert be == {(1, 1): F(1, 3), (1, 2): F(1, 3), (2, 2): F(1, 3)}
    mb = order_statistics_distribution(weight_model(builtin_weight("mb", 2), 2, 2))
    assert mb == {(1, 1): F(1, 4), (1, 2): F(1, 2), (2, 2): F(1, 4)}


def test_order_statistics_single_particle():
    d = weight_model(builtin_weight("pc:3", 1), 3, 1)
    order = order_statistics_distribution(d)
    for j in range(1, 4):
        x = tuple(1 if i == j - 1 else 0 for i in range(3))
        assert order[(j,)] == d.probability(x)


def test_order_statistics_match_sorted_labels():
    for kind in ("mb", "be", "pc:2"):
        for n in range(2, 4):
            for r in range(1, 4):
                d = weight_model(builtin_weight(kind, r), n, r)
                brute = {}
                for y, p in label_distribution(d).table.items():
                    key = tuple(sorted(y))
                    brute[key] = brute.get(key, F(0)) + p
                assert order_statistics_distribution(d) == brute


def test_label_marginal_uniform():
    ld = label_distribution(weight_model(builtin_weight("be", 2), 3, 2))
    marg = label_marginal(ld, {1})
    assert marg.table == {(1,): F(1, 3), (2,): F(1, 3), (3,): F(1, 3)}
    for n in range(2, 5):
        for r in range(1, 4):
            ld = label_distribution(weight_model(builtin_weight("mb", r), n, r))
            for i in range(1, r + 1):
                marg = label_marginal(ld, {i})
                assert all(p == F(1, n) for p in marg.table.values())


def test_label_marginal_full_and_errors():
    ld = label_distribution(weight_model(builtin_weight("be", 2), 2, 2))
    assert label_marginal(ld, range(1, 3)).table == ld.table
    with pytest.raises(ValueError):
        label_marginal(ld, set())
    with pytest.raises(ValueError):
        label_marginal(ld, {3})


def test_weight_model_label_density_values():
    assert weight_model_label_density(builtin_weight("be", 2), 2, 2, (1, 2)) == F(1, 6)
    assert weight_model_label_density(builtin_weight("mb", 2), 3, 2, (1, 3)) == F(1, 9)
    assert weight_model_label_density(builtin_weight("fd", 2), 2, 2, (1, 1)) == F(0)


def test_weight_model_label_density_matches_table():
    for kind in ("mb", "be", "fd", "pc:2"):
        for n in range(2, 4):
            for r in range(1, 4):
                a = builtin_weight(kind, r)
                try:
                    ld = label_distribution(weight_model(a, n, r))
                except EmptySupportError:
                    continue
                for y in combinat.enumerate_labels(r, n):
                    assert weight_model_label_density(a, n, r, y) == ld.probability(y)


MIXES = [
    MixingSpec(((F(1, 2), F(1)),)),
    MixingSpec(((F(1, 3), F(1, 2)), (F(2, 3), F(1, 2)))),
    MixingSpec(((F(1, 5), F(1, 4)), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2)))),
]


def test_conditional_from_iid_recovers_builtins():
    n, r = 2, 2
    theta = F(1, 2)
    poisson = [theta**x / math.factorial(x) for x in range(r + 1)]
    assert conditional_from_iid(poisson, n, r) == weight_model(builtin_weight("mb", r), n, r)
    geometric = [F(1, 3) * F(2, 3) ** x for x in range(r + 1)]
    assert conditional_from_iid(geometric, n, r) == weight_model(builtin_weight("be", r), n, r)
    bernoulli = [F(3, 4), F(1, 4), F(0)]
    assert conditional_from_iid(bernoulli, n, r) == weight_model(builtin_weight("fd", r), n, r)
    negbin = [F(math.comb(1 + x, x)) * F(1, 3) ** x * F(4, 9) for x in range(r + 1)]
    assert conditional_from_iid(negbin, n, r) == weight_model(builtin_weight("pc:2", r), n, r)


def test_conditional_from_iid_mixture_invariance():
    q = [F(1, 3) * F(2, 3) ** x for x in range(4)]
    plain = conditional_from_iid(q, 2, 3)
    for mix in MIXES:
        assert conditional_from_iid(q, 2, 3, mix) == plain


def brute_mixed_conditional(q, n, r, mix):
    """Condition the mixture of i.i.d. laws over all of {0..x_max}**n on
    total ``r``.  Each atom's law is normalized, so the mixture is a law."""
    atoms = ((F(1), F(1)),) if mix is None else mix.atoms
    joint = {}
    for rho, share in atoms:
        tilted = [F(v) * rho**z for z, v in enumerate(q)]
        z_norm = sum(tilted)
        for x in itertools.product(range(len(q)), repeat=n):
            mass = share * math.prod(tilted[v] / z_norm for v in x)
            joint[x] = joint.get(x, F(0)) + mass
    event = {x: m for x, m in joint.items() if sum(x) == r and m}
    total = sum(event.values())
    return {x: m / total for x, m in event.items()}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.sampled_from([None, *MIXES]), st.data())
def test_conditional_from_iid_matches_conditioned_mixture(n, r, mix, data):
    q = data.draw(st.lists(st.integers(0, 5), min_size=r + 1, max_size=r + 3))
    assume(any(q))
    expected = brute_mixed_conditional(q, n, r, mix)
    if not expected:
        with pytest.raises(EmptySupportError):
            conditional_from_iid(q, n, r, mix)
        return
    assert conditional_from_iid(q, n, r, mix).table == expected


def test_conditional_from_iid_errors():
    with pytest.raises(ValueError):
        conditional_from_iid([F(1)], 2, 2)  # table stops short of the total
    with pytest.raises(EmptySupportError):
        conditional_from_iid([F(1), F(0), F(0)], 2, 2, MIXES[0])
    # the signs would cancel in the normalization and leave the uniform law
    with pytest.raises(ValueError, match="^weights must be nonnegative$"):
        conditional_from_iid([1, -1], 2, 1)


def test_mixing_spec_validation():
    with pytest.raises(ValueError):
        MixingSpec(())
    with pytest.raises(ValueError):
        MixingSpec(((F(2), F(1)),))
    with pytest.raises(ValueError):
        MixingSpec(((F(1, 2), F(1, 2)),))


def test_sample_point_mass_and_determinism():
    d = point_mass(3, 2, (0, 2, 0))
    rng = random.Random(1)
    assert all(sample(d, rng) == (0, 2, 0) for _ in range(5))
    be = weight_model(builtin_weight("be", 2), 2, 2)
    rng_a, rng_b = random.Random(7), random.Random(7)
    first = [sample(be, rng_a) for _ in range(50)]
    second = [sample(be, rng_b) for _ in range(50)]
    assert first == second
    assert set(first) == set(be.table)


def linear_scan_sample(table, rng):
    """One draw by inversion with a fresh scan over the sorted keys: the
    oracle for the cumulative table that ``sample_exact`` builds once."""
    keys = sorted(table)
    denom = math.lcm(*(table[k].denominator for k in keys))
    u = rng.randrange(denom)
    acc = 0
    for k in keys:
        acc += int(table[k] * denom)
        if u < acc:
            return k
    raise AssertionError("probability table does not sum to 1")


@st.composite
def exact_tables(draw):
    """Product-form models with n, r <= 4 and random rational weights, or
    arbitrary joints with zero entries over short integer keys."""
    if draw(st.booleans()):
        n, r = draw(st.integers(1, 4)), draw(st.integers(0, 4))
        values = draw(
            st.lists(st.integers(0, 6), min_size=r + 1, max_size=r + 1).filter(
                lambda v: v[0] or v[-1]
            )
        )
        dens = draw(st.lists(st.integers(1, 5), min_size=r + 1, max_size=r + 1))
        a = WeightFunction(tuple(F(v, q) for v, q in zip(values, dens)))
        try:
            return weight_model(a, n, r).table
        except EmptySupportError:
            return {(r,) * n: F(1)}
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    masses = draw(st.lists(st.integers(0, 9), min_size=len(keys), max_size=len(keys)))
    if not any(masses):
        masses[0] = 1
    dens = draw(st.lists(st.integers(1, 7), min_size=len(keys), max_size=len(keys)))
    weights = [F(m, q) for m, q in zip(masses, dens)]
    total = sum(weights)
    return {k: w / total for k, w in zip(keys, weights)}


@settings(max_examples=150, deadline=None)
@given(exact_tables(), st.integers(0, 2**32), st.integers(0, 40))
def test_sample_exact_matches_linear_scan(table, seed, count):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    drawn = list(sample_exact(table, rng, count))
    assert drawn == [linear_scan_sample(table, oracle_rng) for _ in range(count)]
    # the generators end in the same state, so callers that keep drawing
    # stay in step with the one-draw-at-a-time stream
    assert rng.getstate() == oracle_rng.getstate()
    assert rng.random() == oracle_rng.random()


@st.composite
def shared_factor_masses(draw):
    """(n, r, g, masses): integer masses over compositions, every one a
    multiple of g > 1, so storing them divides by at least g.  The keys come
    in a drawn order, so the sampler cannot lean on insertion order."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    space = draw(st.permutations(combinat.enumerate_compositions(n, r)))
    g = draw(st.integers(2, 12))
    masses = draw(st.lists(st.integers(0, 9), min_size=len(space), max_size=len(space)))
    if not any(masses):
        masses[0] = 1
    return n, r, g, {x: g * m for x, m in zip(space, masses)}


@settings(max_examples=150, deadline=None)
@given(shared_factor_masses(), st.integers(0, 2**32), st.integers(0, 40))
def test_sample_exact_on_stored_masses_matches_linear_scan(case, seed, count):
    n, r, g, masses = case
    d = OccupancyDistribution(n, r, FractionTable(sum(masses.values()), masses))
    assert d.table.denominator * g <= sum(masses.values())
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    drawn = list(sample_exact(d.table, rng, count))
    assert drawn == [linear_scan_sample(d.table, oracle_rng) for _ in range(count)]
    assert rng.getstate() == oracle_rng.getstate()


def test_sample_exact_rejects_bad_tables_before_drawing():
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(AssertionError, match="does not sum to 1"):
        sample_exact({(0, 1): F(1, 2), (1, 0): F(1, 4)}, rng, 10)
    with pytest.raises(AssertionError, match="does not sum to 1"):
        sample_exact({}, rng, 1)
    assert rng.getstate() == state
    assert list(sample_exact({(0,): F(1)}, rng, 0)) == []
    assert rng.getstate() == state


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``randrange`` calls."""

    calls = 0

    def randrange(self, *args):
        self.calls += 1
        return super().randrange(*args)


@pytest.mark.parametrize(
    "draw_rows",
    [
        lambda a, rng, count: sample_exact(weight_model(a, 6, 3).table, rng, count),
        lambda a, rng, count: sample_model(a, 6, 3, rng, count),
    ],
    ids=["table", "product"],
)
@pytest.mark.parametrize("count", [1000, 4])
def test_draws_are_made_as_the_rows_are_read(draw_rows, count):
    # 1000 draws read the whole table of 56 compositions; 4 walk it cell by cell
    a = builtin_weight("mb", 3)
    rng = CountingRandom(5)
    rows = draw_rows(a, rng, count)
    assert rng.calls == 0
    assert next(rows) == sample(weight_model(a, 6, 3), random.Random(5))
    assert rng.calls == 1


@st.composite
def product_models(draw):
    """(a, n, r, count): weights with zeros and gaps, half of them multiples
    of a shared factor, that sometimes stop short of r (the builder refuses
    those, as it refuses a model of zero mass), with n = 1 included."""
    n, r = draw(st.integers(1, 8)), draw(st.integers(0, 6))
    shared = draw(st.sampled_from([1, 1, 2, 6]))
    values = st.builds(F, st.integers(0, 4).map(shared.__mul__), st.integers(1, 3))
    length = r + 1 - (r and draw(st.integers(0, 5)) == 0)
    weights = draw(st.lists(values, min_size=length, max_size=length).filter(any))
    return WeightFunction(tuple(weights)), n, r, draw_counts(draw, math.comb(n + r - 1, r))


@settings(max_examples=300, deadline=None)
@given(product_models(), st.integers(0, 2**32))
@example((builtin_weight("mb", 5), 4, 5, 9), 0)  # mb masses share large factors
@example((builtin_weight("fd", 3), 2, 3, 1), 0)  # a model of zero mass
@example((builtin_weight("be", 2), 30_000_000, 2, 1), 0)  # past the budget
@example((builtin_weight("be", 2), 0, 2, 1), 0)  # no cells
def test_sample_model_draws_the_stream_of_the_built_table(case, seed):
    a, n, r, count = case
    drawn = stream_or_error(lambda rng: sample_model(a, n, r, rng, count), seed)
    built = stream_or_error(
        lambda rng: sample_exact(weight_model(a, n, r).table, rng, count), seed
    )
    assert drawn == built
