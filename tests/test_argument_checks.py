"""Integer arguments are checked once, at the public edge and before any
cache: a value that is not an int ends in a one-line ValueError, whatever
was computed before."""

from fractions import Fraction

import pytest

from eomkit.combinat import (
    enumerate_labels,
    multinomial,
    orbit_count,
    phi,
    psi,
    tilde_phi,
)
from eomkit.errors import EmptySupportError
from eomkit.models import (
    LabelDistribution,
    builtin_weight,
    label_marginal,
    normalization_constant,
    weight_model,
    weight_model_label_density,
)
from eomkit.process import (
    arrival_event_probability,
    build_process,
    classic_uosp_value,
    conditional_jumps_given_count,
    count_distribution,
    interarrival_event_probability,
    structure_function,
    transition_probability,
)
from eomkit.transforms import condition_on_partial_sum

F = Fraction


def flat_process():
    return build_process(builtin_weight("be", 2), 1, [F(1, 3)] * 3)


def marginal(p, t):
    return p.marginal(t)


LABELS = LabelDistribution(2, 2, {(1, 2): F(1, 2), (2, 1): F(1, 2)})
BE_3_2 = weight_model(builtin_weight("be", 2), 3, 2)


#: (call, arguments after the process, error text)
NON_INTEGER_ARGUMENTS = [
    (count_distribution, (1.5,), "time must be an integer, got 1.5"),
    (count_distribution, (True,), "time must be an integer, got True"),
    (marginal, (1.5,), "time must be an integer, got 1.5"),
    (structure_function, (0.5, 1), "time must be an integer, got 0.5"),
    (structure_function, (1, 0.5), "count must be an integer, got 0.5"),
    (structure_function, (0.5, -1), "count must be >= 0, got -1"),
    (conditional_jumps_given_count, (0.5, 1), "time must be an integer, got 0.5"),
    (conditional_jumps_given_count, (1, 0.5), "count must be an integer, got 0.5"),
    (transition_probability, (0.5, 0, 0), "transition time must be an integer, got 0.5"),
    (transition_probability, (0, 0.5, 0), "count must be an integer, got 0.5"),
    (transition_probability, (0, 0, 0.5), "jump amount must be an integer, got 0.5"),
    (transition_probability, ("0", 0, 0), "transition time must be an integer, got '0'"),
    (arrival_event_probability, (("a",),), "arrival times must be integers, got ('a',)"),
    (arrival_event_probability, ((0, None),), "arrival times must be integers, got (0, None)"),
    (interarrival_event_probability, ((None,),), "arrival times must be integers, got (None,)"),
    (interarrival_event_probability, ((0, "a"),), "arrival times must be integers, got (0, 'a')"),
]

#: (call, arguments, error text) of calls that take no process
NO_PROCESS = [
    (classic_uosp_value, ("leq1", 2.5, 1, (0,)), "time must be an integer, got 2.5"),
    (classic_uosp_value, ("leq1", 2, 1.0, (0,)), "count must be an integer, got 1.0"),
    (classic_uosp_value, ("leq1", 2, 1, ("a",)), "times ('a',) are not integers"),
    (normalization_constant, (builtin_weight("be", 2), 1.5, 1), "cell count must be an integer, got 1.5"),
    (weight_model, (builtin_weight("be", 2), 2, 1.5), "particle count must be an integer, got 1.5"),
    (weight_model, (builtin_weight("be", 2), True, 1), "cell count must be an integer, got True"),
    (build_process, (builtin_weight("be", 2), 1.5, [1]), "horizon must be an integer, got 1.5"),
    (builtin_weight, ("be", 1.5), "x_max must be an integer, got 1.5"),
    (enumerate_labels, (2, 1.5), "cell count must be an integer, got 1.5"),
    (builtin_weight("be", 3), (0.5,), "occupancy must be an integer, got 0.5"),
    (builtin_weight("be", 3).product, ((0.5,),), "occupancy must be an integer, got 0.5"),
    (label_marginal, (LABELS, [1.5]), "index set [1.5] has entries that are not integers"),
    (multinomial, (2.0, (1, 1)), "multinomial(2.0, (1, 1)) needs integer counts"),
    (tilde_phi, ((1.0,), 2), "label vector (1.0,) has labels that are not integers"),
    (phi, ((1.0,), 2), "label vector (1.0,) has labels that are not integers"),
    (psi, ((1.0, 1),), "composition (1.0, 1) has counts that are not integers"),
    (
        weight_model_label_density,
        (builtin_weight("be", 2), 2, 2, (1.5, 1)),
        "label vector (1.5, 1) has labels that are not integers",
    ),
    (LABELS.probability, ((1.5, 1),), "(1.5, 1) is not a label vector for n=2, r=2"),
    (orbit_count, (1.5, 2), "cell count must be an integer, got 1.5"),
    (orbit_count, (2, 2.0), "particle count must be an integer, got 2.0"),
    (orbit_count, (2, True), "particle count must be an integer, got True"),
    (condition_on_partial_sum, (BE_3_2, True, 1), "partial cell count must be an integer, got True"),
    (condition_on_partial_sum, (BE_3_2, 1.5, 1), "partial cell count must be an integer, got 1.5"),
    (condition_on_partial_sum, (BE_3_2, "1", 1), "partial cell count must be an integer, got '1'"),
    (
        condition_on_partial_sum,
        (BE_3_2, 1, 1.5),
        "partial particle count must be an integer, got 1.5",
    ),
    (condition_on_partial_sum, (BE_3_2, 3, 1), "partial cell count must be in 1..2, got 3"),
    (condition_on_partial_sum, (BE_3_2, 1, 3), "partial particle count must be in 0..2, got 3"),
]


@pytest.mark.parametrize("call, args, text", NON_INTEGER_ARGUMENTS)
def test_process_calls_reject_non_integers(call, args, text):
    with pytest.raises(ValueError) as caught:
        call(flat_process(), *args)
    assert str(caught.value) == text


@pytest.mark.parametrize("call, args, text", NO_PROCESS)
def test_calls_without_a_process_reject_non_integers(call, args, text):
    with pytest.raises(ValueError) as caught:
        call(*args)
    assert str(caught.value) == text


def outcome_of(call, *args):
    """The value of ``call(*args)``, or the type and text of what it raises."""
    try:
        return call(*args)
    except (ValueError, EmptySupportError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "call, args",
    [(count_distribution, (1.0,)), (marginal, (1.0,)), (structure_function, (1.0, 2))],
)
def test_outcome_does_not_depend_on_the_caches(call, args):
    cold = outcome_of(call, flat_process(), *args)
    warm = flat_process()
    count_distribution(warm, 1)
    structure_function(warm, 1, 2)
    assert outcome_of(call, warm, *args) == cold
    assert cold == (ValueError, "time must be an integer, got 1.0")


def test_weight_memo_is_read_after_the_check():
    # build_process fills the memo of (2, 1) on its weight
    warm = flat_process().weight
    for a in (builtin_weight("be", 2), warm):
        with pytest.raises(ValueError, match=r"^particle count must be an integer, got 1\.0$"):
            a.weighted_compositions(2, 1.0)
