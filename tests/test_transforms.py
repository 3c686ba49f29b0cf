"""Particle drop, cell erasure, conditioning, and the product-form boundary."""

import ast
import itertools
import random
from fractions import Fraction

import pytest

from eomkit import combinat
from eomkit.errors import ConditioningError, NonExchangeableError
from eomkit.models import (
    OccupancyDistribution,
    WeightFunction,
    builtin_weight,
    is_exchangeable,
    label_distribution,
    label_marginal,
    occupancy_from_labels,
    weight_model,
)
from eomkit.report import CheckOutcome
from eomkit.transforms import (
    check_drop_closure,
    condition_on_partial_sum,
    drop_particle,
    erase_cell,
    model_label_marginal,
    partial_sum_conditionals,
    product_form_weights,
)
from eomkit.verify import BUILTIN_KINDS, random_eom

F = Fraction


def test_drop_examples():
    be = weight_model(builtin_weight("be", 2), 2, 2)
    assert drop_particle(be).table == {(1, 0): F(1, 2), (0, 1): F(1, 2)}
    mass = OccupancyDistribution(3, 3, {(3, 0, 0): F(1)})
    assert drop_particle(mass).table == {(2, 0, 0): F(1)}
    mb = weight_model(builtin_weight("mb", 2), 2, 2)
    assert drop_particle(mb) == weight_model(builtin_weight("mb", 2), 2, 1)
    with pytest.raises(ValueError):
        drop_particle(weight_model(builtin_weight("be", 0), 2, 0))


def test_drop_matches_label_marginal_route():
    # independent route: remove one exchangeable label coordinate instead
    rng = random.Random(3)
    for _ in range(6):
        n, r = rng.randint(2, 3), rng.randint(2, 4)
        d = random_eom(rng, n, r)
        via_labels = occupancy_from_labels(
            label_marginal(label_distribution(d), range(1, r))
        )
        assert drop_particle(d) == via_labels


def _index_sets(r):
    return [
        set(idx) for size in range(1, r + 1) for idx in itertools.combinations(range(1, r + 1), size)
    ]


def test_model_label_marginal_matches_the_enumerated_oracle():
    models = [
        weight_model(builtin_weight(kind, r), n, r)
        for kind in BUILTIN_KINDS
        for n in range(1, 5)
        for r in range(1, 5)
        if kind != "fd" or r <= n
    ]
    rng = random.Random(11)
    models += [random_eom(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(20)]
    cases = 0
    for d in models:
        ld = label_distribution(d)
        for idx in _index_sets(d.r):
            assert model_label_marginal(d, idx) == label_marginal(ld, idx), (d, idx)
            cases += 1
    assert cases == 584  # every nonempty index set of the 94 models


@pytest.mark.parametrize("index_set", [set(), {0}, {3}, {1, 5}, [1.5], {True}])
def test_model_label_marginal_refuses_index_sets_as_label_marginal(index_set):
    d = weight_model(builtin_weight("pc:2", 2), 3, 2)
    with pytest.raises(ValueError) as expected:
        label_marginal(label_distribution(d), index_set)
    with pytest.raises(ValueError) as raised:
        model_label_marginal(d, index_set)
    assert str(raised.value) == str(expected.value)


def test_model_label_marginal_refuses_a_non_exchangeable_model():
    # each cell holds 2/3 of a particle on average, so one particle's label
    # is uniform and the one-particle drop of this law is exchangeable
    tilted = OccupancyDistribution(3, 2, {(2, 0, 0): F(1, 3), (0, 1, 1): F(2, 3)})
    assert is_exchangeable(drop_particle(tilted))
    assert not is_exchangeable(tilted)
    with pytest.raises(NonExchangeableError):
        model_label_marginal(tilted, {1})


def test_erase_examples():
    any_two_cell = weight_model(builtin_weight("pc:2", 3), 2, 3)
    assert erase_cell(any_two_cell).table == {(3,): F(1)}
    mb = weight_model(builtin_weight("mb", 1), 3, 1)
    assert erase_cell(mb) == weight_model(builtin_weight("mb", 1), 2, 1)
    # all particles land uniformly and independently: the factorial-decay model
    corner = OccupancyDistribution(3, 2, {(0, 0, 2): F(1)})
    assert erase_cell(corner) == weight_model(builtin_weight("mb", 2), 2, 2)
    with pytest.raises(ValueError):
        erase_cell(weight_model(builtin_weight("be", 2), 1, 2))


def test_erase_uniform_three_cells():
    # frozen from summing the redistribution kernel over the uniform model
    out = erase_cell(weight_model(builtin_weight("be", 2), 3, 2))
    assert out.table == {(2, 0): F(7, 24), (1, 1): F(5, 12), (0, 2): F(7, 24)}


def test_transforms_preserve_exchangeability_and_mass():
    rng = random.Random(11)
    for _ in range(8):
        n, r = rng.randint(2, 4), rng.randint(1, 4)
        d = random_eom(rng, n, r)
        dropped = drop_particle(d)
        assert is_exchangeable(dropped)
        assert sum(dropped.table.values()) == 1
        erased = erase_cell(d)
        assert is_exchangeable(erased)
        assert sum(erased.table.values()) == 1


def test_condition_examples():
    mb = weight_model(builtin_weight("mb", 2), 3, 2)
    assert condition_on_partial_sum(mb, 2, 1) == weight_model(builtin_weight("mb", 2), 2, 1)
    be = weight_model(builtin_weight("be", 2), 3, 2)
    assert condition_on_partial_sum(be, 2, 2) == weight_model(builtin_weight("be", 2), 2, 2)
    with pytest.raises(ValueError):
        condition_on_partial_sum(mb, 3, 1)
    with pytest.raises(ValueError):
        condition_on_partial_sum(mb, 2, 5)


def test_condition_zero_probability_event():
    corner = OccupancyDistribution(3, 2, {(2, 0, 0): F(1)})
    with pytest.raises(ConditioningError) as exc:
        condition_on_partial_sum(corner, 2, 1)
    assert "2" in str(exc.value) and "1" in str(exc.value)


def test_condition_matches_direct_renormalization():
    rng = random.Random(4)
    for _ in range(6):
        n, r = rng.randint(3, 4), rng.randint(1, 4)
        d = random_eom(rng, n, r)
        for sub_n in range(1, n):
            for s in range(r + 1):
                head = {}
                total = F(0)
                for x, p in d.table.items():
                    if sum(x[:sub_n]) == s:
                        head[x[:sub_n]] = head.get(x[:sub_n], F(0)) + p
                        total += p
                if total == 0:
                    with pytest.raises(ConditioningError):
                        condition_on_partial_sum(d, sub_n, s)
                    continue
                expected = OccupancyDistribution(
                    sub_n, s, {x: p / total for x, p in head.items()}
                )
                assert condition_on_partial_sum(d, sub_n, s) == expected
                assert is_exchangeable(condition_on_partial_sum(d, sub_n, s))


def test_partial_sum_conditionals_hold_every_conditioned_table():
    rng = random.Random(4)
    for _ in range(6):
        n, r = rng.randint(3, 4), rng.randint(1, 4)
        d = random_eom(rng, n, r)
        for sub_n in range(1, n):
            conds = partial_sum_conditionals(d, sub_n)
            for s in range(r + 1):
                if s not in conds:
                    with pytest.raises(ConditioningError):
                        condition_on_partial_sum(d, sub_n, s)
                    continue
                assert conds[s] == condition_on_partial_sum(d, sub_n, s)
    be = weight_model(builtin_weight("be", 2), 3, 2)
    for sub_n, text in ((0, "must be in 1..2, got 0"), (True, "must be an integer, got True")):
        with pytest.raises(ValueError, match=text):
            partial_sum_conditionals(be, sub_n)


def test_conditioning_preserves_weight_models():
    for kind in ("mb", "be", "fd", "pc:2"):
        for big_n in range(2, 5):
            for r in range(1, 5):
                try:
                    d = weight_model(builtin_weight(kind, r), big_n, r)
                except Exception:
                    continue
                for sub_n in range(1, big_n):
                    for s in range(r + 1):
                        try:
                            cond = condition_on_partial_sum(d, sub_n, s)
                        except ConditioningError:
                            continue
                        assert cond == weight_model(builtin_weight(kind, r), sub_n, s)


def test_drop_closure_identity_be():
    assert check_drop_closure(builtin_weight("be", 2), 3, 2) == CheckOutcome("drop-closure")


def test_drop_closure_builtins_grid():
    for kind in ("mb", "be", "fd", "pc:2"):
        for n in range(2, 5):
            for r in range(1, 5):
                a = builtin_weight(kind, r)
                if kind == "fd" and r > n:
                    continue
                result = check_drop_closure(a, n, r)
                assert result.passed, (kind, n, r, result.witness)


def test_drop_closure_counterexample_with_witness():
    a = WeightFunction((1, 1, 5, 1))
    result = check_drop_closure(a, 2, 3)
    assert result.name == "drop-closure" and not result.passed
    xp = ast.literal_eval(result.witness)
    assert isinstance(xp, tuple) and len(xp) == 2 and sum(xp) == 2
    # re-evaluate the defining identity at the witness by hand
    c_lo = sum(
        a(v0) * a(v1) for v0, v1 in combinat.enumerate_compositions(2, 2)
    )
    c_hi = sum(
        a(v0) * a(v1) for v0, v1 in combinat.enumerate_compositions(2, 3)
    )
    lhs = (c_lo / c_hi) * sum(
        F(v + 1, 3) * a(v + 1) / a(v) for v in xp
    )
    assert lhs != 1
    # and the model-level consequence: dropping leaves the product-form family
    d = weight_model(a, 2, 3)
    assert drop_particle(d) != weight_model(a, 2, 2)


def test_drop_closure_implies_model_identity():
    for kind in ("mb", "be", "fd", "pc:2"):
        for n in range(2, 4):
            for r in range(1, 4):
                if kind == "fd" and r > n:
                    continue
                a = builtin_weight(kind, r)
                assert check_drop_closure(a, n, r).passed
                assert drop_particle(weight_model(a, n, r)) == weight_model(a, n, r - 1)


def test_product_form_detector_recovers_models():
    be = weight_model(builtin_weight("be", 2), 3, 2)
    recovered = product_form_weights(be)
    assert recovered is not None
    # constant up to gauge: all recovered ratios equal
    assert len(set(recovered.values)) == 1
    assert weight_model(recovered, 3, 2) == be
    rng = random.Random(9)
    for _ in range(6):
        n, r = rng.randint(2, 4), rng.randint(1, 4)
        a = WeightFunction(tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(r + 1)))
        d = weight_model(a, n, r)
        found = product_form_weights(d)
        assert found is not None
        assert weight_model(found, n, r) == d


def test_product_form_detector_reads_the_support():
    # the orbit of (0, 1, 2) leaves out (1, 1, 1), which any weight positive
    # on 0, 1 and 2 gives mass
    orbit = dict.fromkeys(combinat.distinct_permutations((0, 1, 2)), F(1, 6))
    orbit = OccupancyDistribution(3, 3, orbit)
    assert product_form_weights(orbit) is None
    # a gapped support that is every composition over its values 0, 2 and 4
    gapped = weight_model(WeightFunction((1, 0, 1, 0, 1)), 2, 4)
    recovered = product_form_weights(gapped)
    assert recovered is not None
    assert weight_model(recovered, 2, 4) == gapped


def test_product_form_detector_rejects_generic_eom():
    rng = random.Random(2)
    rejected = 0
    for _ in range(10):
        d = random_eom(rng, 4, 4)
        if product_form_weights(d) is None:
            rejected += 1
    assert rejected >= 8


def test_product_form_detector_requires_exchangeable():
    with pytest.raises(NonExchangeableError):
        product_form_weights(OccupancyDistribution(2, 2, {(2, 0): F(1)}))


def test_erased_uniform_model_leaves_product_family():
    image = erase_cell(weight_model(builtin_weight("be", 4), 5, 4))
    assert product_form_weights(image) is None
    # independent certificate: any product-form table satisfies
    # P{2,2,0,0} * P{1,1,1,1} == P{2,1,1,0}**2 because the count multisets
    # obey {2,2,0,0} + {1,1,1,1} = 2 * {2,1,1,0} coordinatewise in weights
    p_a = image.probability((2, 2, 0, 0))
    p_b = image.probability((1, 1, 1, 1))
    p_c = image.probability((2, 1, 1, 0))
    assert p_a > 0 and p_b > 0 and p_c > 0
    assert p_a * p_b != p_c**2
