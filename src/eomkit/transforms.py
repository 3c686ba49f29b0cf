"""Maps between occupancy models: particle drop, cell erasure, conditioning.

All three transformations send exchangeable models to exchangeable models;
the product-form (weighted) models are closed under conditioning always and
under particle drop exactly when the weight table passes
``check_drop_closure``.
"""

from fractions import Fraction

from . import combinat
from .combinat import Composition
from .errors import ConditioningError, EmptySupportError, NonExchangeableError
from .models import (
    ONE,
    ZERO,
    LabelDistribution,
    OccupancyDistribution,
    WeightFunction,
    is_exchangeable,
    label_distribution,
    masses_of,
    normalization_constant,
    weight_model,
)
from .report import CheckOutcome


def drop_particle(d: OccupancyDistribution) -> OccupancyDistribution:
    """Remove one particle uniformly at random; model on one particle fewer.

    A composition ``x`` sends mass p(x) * x_h / r to the composition with
    cell ``h`` decremented, for every occupied cell ``h``: integer mass
    m(x) * x_h over the denominator times r.
    """
    if d.r < 1:
        raise ValueError("no particle to drop from an empty model")
    out: dict[Composition, int] = {}
    for x, m in d.table.masses.items():
        for h, c in enumerate(x):
            if c:
                key = x[:h] + (c - 1,) + x[h + 1 :]
                out[key] = out.get(key, 0) + m * c
    return OccupancyDistribution.from_masses(d.n, d.r - 1, d.table.denominator * d.r, out)


def model_label_marginal(d: OccupancyDistribution, index_set) -> LabelDistribution:
    """``label_marginal(label_distribution(d), index_set)`` for an exchangeable
    ``d``, through the drop chain: any s of its particles have the label law of
    ``d`` with r - s particles dropped, so the budget counts n**s labels."""
    idx = combinat.check_index_set(index_set, d.r)
    if not is_exchangeable(d):
        raise NonExchangeableError("label law is only defined for exchangeable occupancy models")
    for _ in range(d.r - len(idx)):
        d = drop_particle(d)
    return label_distribution(d)


def erase_cell(d: OccupancyDistribution) -> OccupancyDistribution:
    """Erase the last cell, replacing its particles uniformly and independently.

    The erased cell's particles leave one at a time, each to one of the
    remaining ``n-1`` cells with equal probability.  ``levels[m]`` holds the
    masses of the heads (the first ``n-1`` cells) with m particles left in
    the last cell; from level r down to 1 each head sends mass // (n-1) to
    every head with one more particle in one cell, one level down.  Over the
    denominator times (n-1)**r the division is exact: the starting masses
    are scaled by (n-1)**r and each move divides once, so a mass at level m
    is a multiple of (n-1)**m.
    """
    if d.n < 2:
        raise ValueError("erasing the only cell would leave no cells")
    target_cells = d.n - 1
    scale = target_cells**d.r
    levels: list[dict[Composition, int]] = [{} for _ in range(d.r + 1)]
    for x, m in d.table.masses.items():
        levels[x[-1]][x[:-1]] = m * scale
    for moved in range(d.r, 0, -1):
        below = levels[moved - 1]
        for head, m in levels.pop().items():
            share = m // target_cells
            for h, c in enumerate(head):
                key = head[:h] + (c + 1,) + head[h + 1 :]
                below[key] = below.get(key, 0) + share
    return OccupancyDistribution.from_masses(
        target_cells, d.r, d.table.denominator * scale, levels[0]
    )


def partial_sum_conditionals(
    d: OccupancyDistribution, n: int
) -> dict[int, OccupancyDistribution]:
    """``{s: law of the first n cells given that they hold s particles}`` for
    every s of positive probability: one pass over ``d`` groups its heads."""
    if type(n) is not int:
        combinat.check_int(n, "partial cell count", 1)
    if not 1 <= n < d.n:
        raise ValueError(f"partial cell count must be in 1..{d.n - 1}, got {n}")
    groups: dict[int, dict[Composition, int]] = {}
    for x, m in d.table.masses.items():
        head = x[:n]
        acc = groups.setdefault(sum(head), {})
        acc[head] = acc.get(head, 0) + m
    return {
        s: OccupancyDistribution.from_masses(n, s, sum(acc.values()), acc)
        for s, acc in groups.items()
    }


def condition_on_partial_sum(
    d: OccupancyDistribution, n: int, s: int
) -> OccupancyDistribution:
    """Law of the first ``n`` cells given that they hold ``s`` particles; ``n``
    is checked by ``partial_sum_conditionals``, then ``s``, type before range."""
    conds = partial_sum_conditionals(d, n)
    if type(s) is not int:
        combinat.check_int(s, "partial particle count", 0)
    if not 0 <= s <= d.r:
        raise ValueError(f"partial particle count must be in 0..{d.r}, got {s}")
    cond = conds.get(s)
    if cond is None:
        raise ConditioningError(
            f"conditioning event (first {n} cells hold {s} particles) has probability zero"
        )
    return cond


def check_drop_closure(a: WeightFunction, n: int, r: int) -> CheckOutcome:
    """Exact test that dropping a particle preserves the product form.

    For every composition x' of r-1 in the support of the smaller model the
    drop-map inflow must equal that model's probability, which reduces to

        (C(n, r-1) / C(n, r)) * sum_h ((x'_h + 1) / r) * a(x'_h + 1) / a(x'_h) == 1

    with C the normalization constants.  On failure the witness is the first
    violating x'.  Compositions outside the support are skipped:
    they carry no mass in either model.

    The test runs on integers: with C(n, r-1) / C(n, r) = P / Q in lowest
    terms and g(v) = (v + 1) * a(v + 1) / a(v) put over one common
    denominator G as g(v) = G_v / G (see ``masses_of``), the identity reads
    P * sum_h G_{x'_h} == r * G * Q, one integer sum per composition.
    """
    if r < 1:
        raise ValueError("closure under particle drop needs at least one particle")
    c_lo = normalization_constant(a, n, r - 1)
    c_hi = normalization_constant(a, n, r)
    if c_lo == 0 or c_hi == 0:
        raise EmptySupportError(
            f"weight table has zero total mass over {n} cells at {r - 1} or {r} particles"
        )
    ratio = c_lo / c_hi
    s = a.scaled
    den, g = masses_of({v: Fraction((v + 1) * s[v + 1], s[v]) for v in range(r) if s[v]})
    target = r * den * ratio.denominator
    for xp in combinat.enumerate_compositions(n, r - 1):
        try:
            total = sum(map(g.__getitem__, xp))
        except KeyError:  # a cell with a(x'_h) = 0: outside the support
            continue
        if ratio.numerator * total != target:
            return CheckOutcome("drop-closure", str(xp))
    return CheckOutcome("drop-closure")


def _integer_root(m: int, k: int) -> int | None:
    """Exact k-th root of a nonnegative integer, or None if inexact."""
    if m < 0 or k < 1:
        return None
    if m < 2 or k == 1:
        return m
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k == m else None


def _fraction_root(q: Fraction, k: int) -> Fraction | None:
    """Exact rational k-th root of a positive rational, or None."""
    if q <= 0:
        return None
    if k < 0:
        q, k = 1 / q, -k
    num = _integer_root(q.numerator, k)
    den = _integer_root(q.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _solve_multiplicative(rows, ncols: int) -> list[Fraction] | None:
    """Solve prod_j x_j**e_ij == q_i for positive rationals x_j.

    Integer Gaussian elimination on the exponent matrix (gcd combination of
    rows, so targets only ever take integer powers); free variables are set
    to 1 and pivots with exponent |k| > 1 require exact rational k-th roots.
    Returns None when no solution is found along this route.
    """
    mat = [(list(e), Fraction(q)) for e, q in rows]
    pivot_of_col: dict[int, int] = {}
    rowpos = 0
    for col in range(ncols):
        live = [i for i in range(rowpos, len(mat)) if mat[i][0][col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda i: abs(mat[i][0][col]))
            a_i, b_i = live[0], live[1]
            ea, eb = mat[a_i][0][col], mat[b_i][0][col]
            k = eb // ea
            new_e = [x - k * y for x, y in zip(mat[b_i][0], mat[a_i][0])]
            new_q = mat[b_i][1] / mat[a_i][1] ** k
            mat[b_i] = (new_e, new_q)
            if new_e[col] == 0:
                live.remove(b_i)
        pivot = live[0]
        mat[rowpos], mat[pivot] = mat[pivot], mat[rowpos]
        pivot_of_col[col] = rowpos
        rowpos += 1
    for i in range(rowpos, len(mat)):
        if mat[i][1] != 1:
            return None
    x: list[Fraction | None] = [None] * ncols
    for col in sorted(pivot_of_col, reverse=True):
        e, q = mat[pivot_of_col[col]]
        residual = q
        for j in range(ncols):
            if j == col or e[j] == 0:
                continue
            if x[j] is None:
                x[j] = ONE
            residual /= x[j] ** e[j]
        root = _fraction_root(residual, e[col])
        if root is None:
            return None
        x[col] = root
    return [v if v is not None else ONE for v in x]


def product_form_weights(d: OccupancyDistribution) -> WeightFunction | None:
    """Recover weights whose product-form model equals ``d`` exactly, if any.

    Returns None when the (exchangeable) distribution is not of product form.
    The recovered table is one gauge choice; any rescaling a(x) -> c * t**x
    yields the same model.  A candidate is only returned after rebuilding the
    model from it and comparing tables, so a non-None result is always valid;
    the comparison also rejects a support that is not every composition over
    its values.  The ratios are those of the integer masses of ``d.orbits()``.
    """
    orbits = d.orbits()
    if orbits is None:
        raise NonExchangeableError("product-form detection requires an exchangeable model")
    values = sorted({v for rep in orbits for v in rep})
    multisets = sorted(orbits)
    ref = multisets[0]
    ref_counts = [ref.count(v) for v in values]
    rows = []
    for m in multisets[1:]:
        exps = [m.count(v) - c for v, c in zip(values, ref_counts)]
        rows.append((exps, Fraction(orbits[m], orbits[ref])))
    solution = _solve_multiplicative(rows, len(values))  # all ONE without rows
    if solution is None:
        return None
    vals = [ZERO] * (d.r + 1)
    for v, a_v in zip(values, solution):
        vals[v] = a_v
    candidate = WeightFunction(tuple(vals))
    try:
        rebuilt = weight_model(candidate, d.n, d.r)
    except EmptySupportError:
        return None
    return candidate if rebuilt == d else None
