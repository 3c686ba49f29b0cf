"""Tables are validated once, where they enter the program.

The public constructors (``OccupancyDistribution``, ``LabelDistribution``,
``FiniteProcess``) validate every table through ``checked_masses``, and so
do ``serialize`` and the CLI, which build through them.  The builders make
their tables with ``from_masses``, which trusts them as they are.  Here a
spy shows where ``checked_masses`` runs, and one property per builder puts
the builder's output through ``checked_masses`` (by the public constructor)
as the oracle: the validated copy must equal the trusted table.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eomkit import cli, models, process, serialize, verify
from eomkit.combinat import enumerate_compositions
from eomkit.errors import ConditioningError, EmptySupportError
from eomkit.models import (
    LabelDistribution,
    MixingSpec,
    OccupancyDistribution,
    WeightFunction,
    builtin_weight,
    conditional_from_iid,
    label_distribution,
    label_marginal,
    occupancy_from_labels,
    order_statistics_distribution,
    weight_model,
)
from eomkit.process import (
    FiniteProcess,
    build_process,
    conditional_jumps_given_count,
)
from eomkit.transforms import condition_on_partial_sum, drop_particle, erase_cell

F = Fraction


@pytest.fixture
def validations(monkeypatch):
    """The list of tables ``checked_masses`` has been called on."""
    seen = []
    real = models.checked_masses

    def spy(table, *args, **kwargs):
        seen.append(table)
        return real(table, *args, **kwargs)

    monkeypatch.setattr(models, "checked_masses", spy)
    monkeypatch.setattr(process, "checked_masses", spy)
    return seen


def test_suites_and_builders_validate_nothing(validations):
    for seed in range(3):
        assert verify.eom_suite(seed).passed
        assert verify.transforms_suite(seed).passed
        assert verify.theorem_suite(seed, 3).passed
    assert verify.classic_suite(4).passed
    big = weight_model(builtin_weight("mb", 12), 8, 12)
    drop_particle(big)
    d = weight_model(builtin_weight("pc:2", 3), 3, 3)
    ld = label_distribution(d)
    label_marginal(ld, {1, 3})
    occupancy_from_labels(ld)
    order_statistics_distribution(d)
    conditional_from_iid([F(1), F(1, 2), F(1, 3), F(1, 4)], 3, 3, MixingSpec(((F(1, 2), F(1)),)))
    erase_cell(d)
    condition_on_partial_sum(d, 2, 1)
    p = build_process(builtin_weight("be", 4), 2, [F(1, 5)] * 5)
    conditional_jumps_given_count(p, 1, 2)
    verify.perturbed_process(p)
    verify.random_eom(random.Random(0), 3, 3)
    assert validations == []


def test_each_public_construction_validates_once(validations, tmp_path, capsys):
    half = {(0, 1): F(1, 2), (1, 0): F(1, 2)}
    OccupancyDistribution(2, 1, half)
    assert len(validations) == 1
    LabelDistribution(2, 1, {(1,): F(1, 2), (2,): F(1, 2)})
    assert len(validations) == 2
    FiniteProcess(builtin_weight("be", 1), 1, half)
    assert len(validations) == 3
    doc = {"n": 2, "r": 1, "entries": [[0, 1, "1/2"], [1, 0, "1/2"]]}
    serialize.occupancy_from_doc(doc)
    assert len(validations) == 4
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["transform", "--op", "k1", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 2, "r": 0, "entries": [[0, 0, "1"]]}
    assert len(validations) == 5


def assert_trusted(out):
    """``out`` equals its copy validated by the public constructor, which
    runs ``checked_masses``: valid keys, positive masses in lowest terms
    that sum to the denominator."""
    if isinstance(out, FiniteProcess):
        copy = FiniteProcess(out.weight, out.horizon, out.joint)
        assert copy.count_cap == out.count_cap
    else:
        copy = type(out)(out.n, out.r, out.table)
    assert copy == out


def test_the_oracle_rejects_a_trusted_table_that_loses_mass():
    lossy = OccupancyDistribution.from_masses(2, 1, 3, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError, match="probabilities sum to 2/3, not 1"):
        assert_trusted(lossy)
    high = FiniteProcess.from_masses(builtin_weight("be", 1), 1, 1, {(1, 1): 1})
    with pytest.raises(ValueError, match="covers 0..1 but paths reach total 2"):
        assert_trusted(high)


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


@st.composite
def tables(draw, max_n=4, max_r=4):
    """Any occupancy table, exchangeable or not, made by the public constructor."""
    n, r = draw(st.integers(1, max_n)), draw(st.integers(0, max_r))
    space = enumerate_compositions(n, r)
    raw = draw(st.lists(rationals(9), min_size=len(space), max_size=len(space)).filter(any))
    total = sum(raw)
    return OccupancyDistribution(n, r, {x: p / total for x, p in zip(space, raw)})


@st.composite
def exchangeable(draw):
    """A product-form model or a random exchangeable one, small enough for
    its label law."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        return verify.random_eom(random.Random(draw(st.integers(0, 2**16))), n, r)
    try:
        return weight_model(draw(weights(r)), n, r)
    except EmptySupportError:
        return verify.random_eom(random.Random(0), n, r)


@st.composite
def processes(draw):
    horizon, cap = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    a = draw(weights(cap))
    raw = draw(st.lists(rationals(9), min_size=cap + 1, max_size=cap + 1).filter(any))
    pi = [p / sum(raw) for p in raw]
    try:
        return build_process(a, horizon, pi)
    except EmptySupportError:
        return build_process(builtin_weight("be", 0), horizon, [F(1)])


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(st.integers(1, 4), st.integers(0, 5), st.data())
def test_weight_model_is_trusted(n, r, data):
    try:
        d = weight_model(data.draw(weights(r)), n, r)
    except EmptySupportError:
        return
    assert_trusted(d)


@SETTINGS
@given(exchangeable())
def test_label_distribution_is_trusted(d):
    assert_trusted(label_distribution(d))


@SETTINGS
@given(exchangeable(), st.data())
def test_label_marginal_is_trusted(d, data):
    if d.r == 0:
        return
    ld = label_distribution(d)
    idx = data.draw(st.sets(st.integers(1, d.r), min_size=1))
    assert_trusted(label_marginal(ld, idx))


@SETTINGS
@given(exchangeable())
def test_occupancy_from_labels_is_trusted(d):
    assert_trusted(occupancy_from_labels(label_distribution(d)))


MIXES = [
    None,
    MixingSpec(((F(1, 2), F(1)),)),
    MixingSpec(((F(1, 3), F(1, 2)), (F(2, 3), F(1, 2)))),
]


@SETTINGS
@given(st.integers(1, 4), st.integers(0, 4), st.sampled_from(MIXES), st.data())
def test_conditional_from_iid_is_trusted(n, r, mix, data):
    q = data.draw(st.lists(rationals(), min_size=r + 1, max_size=r + 3))
    try:
        d = conditional_from_iid(q, n, r, mix)
    except EmptySupportError:
        return
    assert_trusted(d)


@SETTINGS
@given(tables())
def test_drop_particle_is_trusted(d):
    if d.r >= 1:
        assert_trusted(drop_particle(d))


@SETTINGS
@given(tables())
def test_erase_cell_is_trusted(d):
    if d.n >= 2:
        assert_trusted(erase_cell(d))


@SETTINGS
@given(tables(), st.data())
def test_condition_on_partial_sum_is_trusted(d, data):
    if d.n < 2:
        return
    sub_n = data.draw(st.integers(1, d.n - 1))
    s = data.draw(st.integers(0, d.r))
    try:
        cond = condition_on_partial_sum(d, sub_n, s)
    except ConditioningError:
        return
    assert_trusted(cond)


@SETTINGS
@given(processes())
def test_build_process_is_trusted(p):
    assert_trusted(p)


@SETTINGS
@given(processes(), st.data())
def test_conditional_jumps_given_count_is_trusted(p, data):
    t = data.draw(st.integers(0, p.horizon))
    counts = [k for k, m in enumerate(process._counts(p, t)[1]) if m]
    k = data.draw(st.sampled_from(counts))
    assert_trusted(conditional_jumps_given_count(p, t, k))


@SETTINGS
@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2**16))
def test_random_eom_is_trusted(n, r, seed):
    assert_trusted(verify.random_eom(random.Random(seed), n, r))


@SETTINGS
@given(processes())
def test_perturbed_process_is_trusted(p):
    bad = verify.perturbed_process(p)
    if bad is not None:
        assert_trusted(bad)
