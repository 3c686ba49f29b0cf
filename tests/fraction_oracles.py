"""Per-entry ``Fraction`` constructions of the model, process and transform
tables: the straightforward bodies that the integer-mass paths in ``eomkit``
replace.  Each returns a plain dict of exact probabilities, so a test can
compare a fast path with its oracle table for table.  Normalizers are the
literal sums over the composition space, independent of the row memo.
"""

from fractions import Fraction

from eomkit import combinat
from eomkit.errors import ConditioningError, EmptySupportError

ZERO = Fraction(0)


def literal_normalizer(a, n: int, r: int) -> Fraction:
    return sum(
        (a.product(x) for x in combinat.enumerate_compositions(n, r)), start=ZERO
    )


def weight_model(a, n: int, r: int) -> dict:
    c = literal_normalizer(a, n, r)
    if c == 0:
        raise EmptySupportError(f"no mass over {n} cells and {r} particles")
    table = {}
    for x in combinat.enumerate_compositions(n, r):
        w = a.product(x)
        if w:
            table[x] = w / c
    return table


def build_process(a, horizon: int, terminal_law) -> dict:
    cells = horizon + 1
    joint = {}
    for k, pk in enumerate(terminal_law):
        pk = Fraction(pk)
        if not pk:
            continue
        c = literal_normalizer(a, cells, k)
        if c == 0:
            raise EmptySupportError(f"terminal count {k} is unreachable")
        for path in combinat.enumerate_compositions(cells, k):
            w = a.product(path)
            if w:
                joint[path] = pk / c * w
    return joint


def drop_particle(table: dict, r: int) -> dict:
    out = {}
    for x, p in table.items():
        for h, c in enumerate(x):
            if c:
                key = x[:h] + (c - 1,) + x[h + 1 :]
                out[key] = out.get(key, ZERO) + p * Fraction(c, r)
    return out


def erase_cell(table: dict, n: int) -> dict:
    target_cells = n - 1
    out = {}
    for x, p in table.items():
        moved = x[-1]
        base = x[:-1]
        denom = target_cells**moved
        for extra in combinat.enumerate_compositions(target_cells, moved):
            key = tuple(b + e for b, e in zip(base, extra))
            share = Fraction(combinat.multinomial(moved, extra), denom)
            out[key] = out.get(key, ZERO) + p * share
    return out


def condition_on_partial_sum(table: dict, n: int, s: int) -> dict:
    acc = {}
    total = ZERO
    for x, p in table.items():
        head = x[:n]
        if sum(head) == s:
            acc[head] = acc.get(head, ZERO) + p
            total += p
    if total == 0:
        raise ConditioningError(f"first {n} cells never hold {s} particles")
    return {x: p / total for x, p in acc.items()}
