"""Enumeration, bijections, and counting identities of the state spaces."""

import math
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eomkit import combinat
from eomkit.errors import BudgetExceededError, EmptySupportError


def test_single_cell_holds_everything():
    assert combinat.enumerate_compositions(1, 5) == [(5,)]
    assert combinat.composition_count(1, 9) == 1


def test_cardinality_formula():
    assert combinat.composition_count(3, 2) == 6
    assert len(combinat.enumerate_compositions(3, 2)) == 6
    # counted by explicit enumeration
    assert combinat.composition_count(4, 3) == 20
    assert len(combinat.enumerate_compositions(4, 3)) == 20


def test_lexicographic_order():
    assert combinat.enumerate_compositions(2, 2) == [(0, 2), (1, 1), (2, 0)]


def test_enumeration_matches_count_and_is_sorted():
    for n in range(1, 6):
        for r in range(7):
            space = combinat.enumerate_compositions(n, r)
            assert len(space) == combinat.composition_count(n, r)
            assert space == sorted(space)
            assert len(set(space)) == len(space)
            assert all(len(x) == n and sum(x) == r and min(x) >= 0 for x in space)
            assert space == [x for x in product(range(r + 1), repeat=n) if sum(x) == r]


def test_many_cells_need_no_recursion():
    assert combinat.enumerate_compositions(1200, 0) == [(0,) * 1200]
    space = combinat.enumerate_compositions(1500, 1)
    assert len(space) == 1500
    assert space[0] == (0,) * 1499 + (1,)
    assert space[-1] == (1,) + (0,) * 1499


def test_zero_particles():
    assert combinat.enumerate_compositions(3, 0) == [(0, 0, 0)]


def test_binary_compositions():
    space = combinat.enumerate_binary_compositions(3, 2)
    assert set(space) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert len(space) == math.comb(3, 2)
    assert combinat.enumerate_binary_compositions(4, 0) == [(0, 0, 0, 0)]
    with pytest.raises(EmptySupportError):
        combinat.enumerate_binary_compositions(2, 3)


def test_binary_compositions_match_filter():
    for n in range(1, 5):
        for r in range(n + 1):
            direct = combinat.enumerate_binary_compositions(n, r)
            filtered = [
                x
                for x in combinat.enumerate_compositions(n, r)
                if all(c <= 1 for c in x)
            ]
            assert direct == filtered


def test_phi_counts_occurrences():
    assert combinat.phi((1, 1, 3), 3) == (2, 0, 1)
    assert combinat.phi((), 2) == (0, 0)
    assert combinat.phi((2, 2, 2), 2) == (0, 3)
    with pytest.raises(ValueError):
        combinat.phi((2, 1), 2)  # not sorted
    with pytest.raises(ValueError):
        combinat.phi((0,), 2)  # label out of range


def test_psi_examples():
    assert combinat.psi((2, 0, 1)) == (1, 1, 3)
    assert combinat.psi((0, 0)) == ()
    assert combinat.psi((0, 3)) == (2, 2, 2)


def test_round_trips():
    for n in range(1, 5):
        for r in range(6):
            for x in combinat.enumerate_compositions(n, r):
                u = combinat.psi(x)
                assert list(u) == sorted(u)
                assert combinat.phi(u, n) == x
            # every ordered-label tuple arises as psi of some composition
            seen = {combinat.psi(x) for x in combinat.enumerate_compositions(n, r)}
            assert len(seen) == combinat.composition_count(n, r)


def test_tilde_phi_examples():
    assert combinat.tilde_phi((3, 1, 1), 3) == (2, 0, 1)
    assert combinat.tilde_phi((1, 2), 2) == (1, 1)


def test_tilde_phi_agrees_with_phi_on_sorted():
    for n in range(1, 4):
        for r in range(5):
            for y in combinat.enumerate_labels(r, n):
                assert combinat.tilde_phi(y, n) == combinat.phi(tuple(sorted(y)), n)


def test_multinomial_values():
    assert combinat.multinomial(2, (1, 1)) == 2
    assert combinat.multinomial(2, (2, 0)) == 1
    # count distinct orderings by brute force over permutations
    labels = combinat.psi((2, 1, 1))
    assert combinat.multinomial(4, (2, 1, 1)) == len(set(permutations(labels))) == 12
    with pytest.raises(ValueError):
        combinat.multinomial(3, (1, 1))


def test_fibers_partition_label_space():
    for n in range(1, 4):
        for r in range(5):
            space = combinat.enumerate_compositions(n, r)
            assert sum(combinat.multinomial(r, x) for x in space) == n**r
            fibers = {x: 0 for x in space}
            for y in combinat.enumerate_labels(r, n):
                fibers[combinat.tilde_phi(y, n)] += 1
            for x in space:
                assert fibers[x] == combinat.multinomial(r, x)


def test_enumerate_labels_odometer():
    assert combinat.enumerate_labels(1, 2) == [(1,), (2,)]
    assert combinat.enumerate_labels(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(combinat.enumerate_labels(3, 3)) == 27
    assert combinat.enumerate_labels(0, 3) == [()]


def test_budget_guard_names_count():
    with pytest.raises(BudgetExceededError) as exc:
        combinat.enumerate_compositions(30, 30)
    assert str(math.comb(59, 29)) in str(exc.value)
    with pytest.raises(BudgetExceededError):
        combinat.enumerate_labels(10, 10)


def test_budget_counts_cells_not_compositions():
    budget = combinat.ENUMERATION_BUDGET
    # one composition, but more cells than the budget
    with pytest.raises(BudgetExceededError, match="budget"):
        combinat.check_composition_budget(budget + 1, 0)
    combinat.check_composition_budget(budget, 0)
    # r + 1 compositions of r into 2 cells, 2 * (r + 1) cells in all
    with pytest.raises(BudgetExceededError):
        combinat.check_composition_budget(2, budget // 2)
    combinat.check_composition_budget(2, budget // 2 - 1)
    assert combinat.enumerate_compositions(1200, 0) == [(0,) * 1200]


def test_orbit_count_counts_the_sorted_compositions():
    for n in range(1, 7):
        for r in range(9):
            orbits = {tuple(sorted(x)) for x in combinat.enumerate_compositions(n, r)}
            assert combinat.orbit_count(n, r) == len(orbits), (n, r)


def test_distinct_permutation_count():
    for seq in [(0, 0, 2), (1, 1, 1), (3, 1, 2, 1), ()]:
        assert combinat.distinct_permutation_count(seq) == len(set(permutations(seq)))
        assert combinat.distinct_permutations(seq) == sorted(set(permutations(seq)))


def test_argument_validation():
    with pytest.raises(ValueError):
        combinat.composition_count(0, 2)
    with pytest.raises(ValueError):
        combinat.composition_count(2, -1)
    with pytest.raises(ValueError):
        combinat.enumerate_labels(2, 0)
    with pytest.raises(ValueError, match="^cell count must be >= 1, got 0$"):
        combinat.orbit_count(0, 2)
    with pytest.raises(ValueError, match="^particle count must be >= 0, got -1$"):
        combinat.orbit_count(2, -1)


@given(st.lists(st.integers(0, 3), max_size=7))
def test_distinct_permutations_match_sorted_set(seq):
    expected = sorted(set(permutations(seq)))
    assert combinat.distinct_permutations(seq) == expected
    assert combinat.distinct_permutations(tuple(reversed(seq))) == expected
