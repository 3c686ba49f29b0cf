"""The comparison of a sampler's stream with that of ``models.sample_exact``
on the built table, shared by the sampler properties of the model and
process tests: the rows and the generator's state after them, or the error
both raise, over draw counts on either side of the table's size."""

import random

from hypothesis import strategies as st

from eomkit.errors import BudgetExceededError, EmptySupportError


def stream_or_error(draw_rows, seed):
    """The rows of ``draw_rows(rng)`` and the generator's state after them,
    or the type and text of the exception the call raised."""
    rng = random.Random(seed)
    try:
        rows = list(draw_rows(rng))
    except (ValueError, BudgetExceededError, EmptySupportError) as exc:
        return type(exc), str(exc)
    return rows, rng.getstate()


def draw_counts(draw, size):
    """Far below, below, at or above ``size`` vectors: the sampler walks
    the table or builds it by how the draws compare with its vectors of
    positive mass and with its size."""
    below = st.one_of(st.integers(0, size // 4), st.integers(0, size))
    return draw(st.one_of(below, st.sampled_from([size, size + 1])))
