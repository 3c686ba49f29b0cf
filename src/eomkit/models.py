"""Exact occupancy models and their label-variable views.

An occupancy model is a probability table over the compositions of ``r``
particles into ``n`` cells.  Exchangeable models correspond one-to-one to
exchangeable laws of ``r`` cell-valued label variables; both views are kept
exact by storing probabilities as ``fractions.Fraction``.
"""

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import combinat
from .combinat import Composition, LabelVector, OrderedLabels
from .errors import BudgetExceededError, EmptySupportError, NonExchangeableError

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative weights a(0), ..., a(x_max) defining a product-form model.

    Two tables that differ by a rescaling a(x) -> c * t**x * a(x) induce the
    same occupancy model for every (n, r).

    ``_power_rows`` memoizes the coefficient rows of A(z)**n for
    ``normalization_constant``; it lives as long as the weight object and
    takes no part in equality, hashing or repr.
    """

    values: tuple[Fraction, ...]
    kind: str | None = None
    _power_rows: list = field(
        default_factory=list, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        if not vals:
            raise ValueError("weight function needs at least one value")
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("weight function must be positive somewhere")
        object.__setattr__(self, "values", vals)

    @property
    def x_max(self) -> int:
        return len(self.values) - 1

    def __call__(self, x: int) -> Fraction:
        if not 0 <= x <= self.x_max:
            raise ValueError(
                f"weight undefined at occupancy {x} (table covers 0..{self.x_max})"
            )
        return self.values[x]

    def product(self, x) -> Fraction:
        """prod_j a(x_j): the weight of an occupancy vector or jump path."""
        return math.prod((self(v) for v in x), start=ONE)

    def support(self) -> list[int]:
        return [x for x, v in enumerate(self.values) if v > 0]


def builtin_weight(kind: str, x_max: int) -> WeightFunction:
    """Built-in weight tables on {0..x_max}.

    ``mb``     1/x!                 (distinguishable particles)
    ``be``     1                    (indistinguishable particles)
    ``fd``     1 if x <= 1 else 0   (cell capacity one)
    ``pc:s``   binom(s+x-1, x)      (pseudo-contagious, integer s >= 1)
    """
    if x_max < 0:
        raise ValueError(f"x_max must be >= 0, got {x_max}")
    key = kind.strip().lower()
    if key == "mb":
        vals = [Fraction(1, math.factorial(x)) for x in range(x_max + 1)]
    elif key == "be":
        vals = [ONE] * (x_max + 1)
    elif key == "fd":
        vals = [ONE if x <= 1 else ZERO for x in range(x_max + 1)]
    elif key.startswith("pc:"):
        try:
            s = int(key[3:])
        except ValueError:
            raise ValueError(f"bad pseudo-contagious parameter in {kind!r}") from None
        if s < 1:
            raise ValueError(f"pseudo-contagious parameter must be >= 1, got {s}")
        vals = [Fraction(math.comb(s + x - 1, x)) for x in range(x_max + 1)]
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    return WeightFunction(tuple(vals), kind=key)


@dataclass(frozen=True)
class ExactTable:
    """Exact probability table of a model with ``n`` cells and ``r`` particles.

    Only strictly positive entries are stored, and they must sum to 1;
    looking up a valid key outside the table yields probability zero.  A
    subclass says which keys are valid: ``_key_length()`` and
    ``_key_error(key)`` (why a key of that length is not valid, or None),
    with ``key_name`` and ``key_description`` for the error messages.
    """

    n: int
    r: int
    table: dict

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"cell count must be >= 1, got {self.n}")
        if self.r < 0:
            raise ValueError(f"particle count must be >= 0, got {self.r}")
        length = self._key_length()
        clean = {}
        total = ZERO
        for key, p in self.table.items():
            key = tuple(key)
            p = Fraction(p)
            if len(key) != length:
                raise ValueError(
                    f"{self.key_name} {key} has length {len(key)}, expected {length}"
                )
            if p < 0:
                raise ValueError(f"negative probability {p} at {key}")
            error = self._key_error(key)
            if error:
                raise ValueError(error)
            if p:
                clean[key] = p
                total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "table", clean)

    def probability(self, key) -> Fraction:
        key = tuple(key)
        if len(key) != self._key_length() or self._key_error(key):
            described = self.key_description.format(n=self.n, r=self.r)
            raise ValueError(f"{key} is not {described}")
        return self.table.get(key, ZERO)

    def support(self) -> list[tuple]:
        return sorted(self.table)


class OccupancyDistribution(ExactTable):
    """Exact probability table over the length-``n`` compositions of ``r``."""

    key_name = "composition"
    key_description = "a length-{n} composition of {r}"

    def _key_length(self) -> int:
        return self.n

    def _key_error(self, x: Composition) -> str | None:
        if sum(x) != self.r or any(c < 0 for c in x):
            return f"{x} is not a composition of {self.r}"
        return None


class LabelDistribution(ExactTable):
    """Exact probability table over the label vectors in {1..n}**r."""

    key_name = "label vector"
    key_description = "a label vector for n={n}, r={r}"

    def _key_length(self) -> int:
        return self.r

    def _key_error(self, y: LabelVector) -> str | None:
        if any(not 1 <= v <= self.n for v in y):
            return f"label vector {y} has labels outside 1..{self.n}"
        return None


@dataclass(frozen=True)
class MixingSpec:
    """Finite mixture over geometric decay rates.

    Each atom is a pair (rate, weight) with 0 < rate < 1; the weights form a
    probability vector.  Mixing multiplies a count-``z`` weight by
    ``sum_m weight_m * rate_m**z``.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        atoms = tuple((Fraction(rho), Fraction(w)) for rho, w in self.atoms)
        if not atoms:
            raise ValueError("mixing spec needs at least one atom")
        for rho, w in atoms:
            if not 0 < rho < 1:
                raise ValueError(f"mixing rate {rho} outside (0, 1)")
            if w < 0:
                raise ValueError(f"negative mixing weight {w}")
        if sum(w for _, w in atoms) != 1:
            raise ValueError("mixing weights must sum to 1")
        object.__setattr__(self, "atoms", atoms)

    def factor(self, z: int) -> Fraction:
        return sum((w * rho**z for rho, w in self.atoms), start=ZERO)


def _power_row(a: WeightFunction, n: int) -> list[Fraction]:
    """Coefficients 0..x_max of A(z)**n, with A(z) = sum_x a(x) z^x.

    Rows are memoized on ``a``.  A missing row is extended from the highest
    cached one by truncated convolution with A, so rows 0..N cost
    O(N * x_max**2) in total whatever order they are asked for in.
    """
    rows = a._power_rows
    if not rows:
        rows.append([ONE] + [ZERO] * a.x_max)
    base = a.values
    top = a.x_max
    while len(rows) <= n:
        prev = rows[-1]
        nxt = [ZERO] * (top + 1)
        for i, c in enumerate(prev):
            if not c:
                continue
            for j in range(top - i + 1):
                if base[j]:
                    nxt[i + j] += c * base[j]
        rows.append(nxt)
    return rows[n]


def normalization_constant(a: WeightFunction, n: int, r: int) -> Fraction:
    """Sum of prod_j a(x_j) over all length-``n`` compositions of ``r``.

    Read as the degree-``r`` coefficient of (sum_x a(x) z^x)**n from the row
    memo on ``a`` (see ``_power_row``), so each row is computed once per
    weight object; identical to the literal sum over the space.
    """
    if n < 1:
        raise ValueError(f"cell count must be >= 1, got {n}")
    if r < 0:
        raise ValueError(f"particle count must be >= 0, got {r}")
    if a.x_max < r:
        raise ValueError(
            f"weight table covers 0..{a.x_max} but occupancies up to {r} are possible"
        )
    return _power_row(a, n)[r]


def weight_model(a: WeightFunction, n: int, r: int) -> OccupancyDistribution:
    """Product-form occupancy model P(x) = prod_j a(x_j) / normalizer."""
    combinat.check_composition_budget(n, r)
    c = normalization_constant(a, n, r)
    if c == 0:
        raise EmptySupportError(
            f"weight table has zero total mass over {n} cells and {r} particles"
        )
    table = {}
    for x in combinat.enumerate_compositions(n, r):
        w = a.product(x)
        if w:
            table[x] = w / c
    return OccupancyDistribution(n, r, table)


def _orbits_constant(table: dict) -> bool:
    """True iff the table is invariant under permuting tuple coordinates.

    Positive entries are grouped by their sorted key; each group must carry a
    single probability value and cover its whole permutation orbit.
    """
    orbits: dict[tuple, list[Fraction]] = {}
    for key, p in table.items():
        orbits.setdefault(tuple(sorted(key)), []).append(p)
    for rep, probs in orbits.items():
        if len(set(probs)) != 1:
            return False
        if len(probs) != combinat.distinct_permutation_count(rep):
            return False
    return True


def is_exchangeable(d: OccupancyDistribution) -> bool:
    """True iff the law is invariant under every permutation of the cells."""
    return _orbits_constant(d.table)


def label_distribution(d: OccupancyDistribution) -> LabelDistribution:
    """Joint law of the ``r`` cell labels corresponding to an exchangeable model.

    Each composition's mass is split evenly over the label vectors whose
    occurrence counts reproduce it.
    """
    if not is_exchangeable(d):
        raise NonExchangeableError(
            "label law is only defined for exchangeable occupancy models"
        )
    if d.n**d.r > combinat.ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"label space has {d.n**d.r} elements (budget {combinat.ENUMERATION_BUDGET})"
        )
    table: dict[LabelVector, Fraction] = {}
    for x, p in d.table.items():
        share = p / combinat.multinomial(d.r, x)
        for y in combinat.distinct_permutations(combinat.psi(x)):
            table[y] = share
    return LabelDistribution(d.n, d.r, table)


def occupancy_from_labels(ld: LabelDistribution) -> OccupancyDistribution:
    """Occupancy model of an exchangeable label law; inverse of label_distribution."""
    if not _orbits_constant(ld.table):
        raise NonExchangeableError(
            "occupancy view is only defined for exchangeable label laws"
        )
    table: dict[Composition, Fraction] = {}
    for y, p in ld.table.items():
        if any(a > b for a, b in zip(y, y[1:])):
            continue  # one sorted representative per orbit
        x = combinat.phi(y, ld.n)
        table[x] = p * combinat.multinomial(ld.r, x)
    return OccupancyDistribution(ld.n, ld.r, table)


def order_statistics_distribution(
    d: OccupancyDistribution,
) -> dict[OrderedLabels, Fraction]:
    """Law of the sorted label vector: the composition law pushed through psi."""
    return {combinat.psi(x): p for x, p in d.table.items()}


def label_marginal(ld: LabelDistribution, index_set) -> LabelDistribution:
    """Exact marginal of a label law on a set of 1-based coordinates."""
    idx = sorted(set(index_set))
    if not idx:
        raise ValueError("index set must be nonempty")
    if any(not 1 <= i <= ld.r for i in idx):
        raise ValueError(f"index set {idx} outside 1..{ld.r}")
    out: dict[LabelVector, Fraction] = {}
    for y, p in ld.table.items():
        key = tuple(y[i - 1] for i in idx)
        out[key] = out.get(key, ZERO) + p
    return LabelDistribution(ld.n, len(idx), out)


def weight_model_label_density(
    a: WeightFunction, n: int, r: int, y: LabelVector
) -> Fraction:
    """Pointwise label-law density of the product-form model.

    Equals prod_l a(x_l) * x_l! / (r! * normalizer) with x the occupancy
    counts of ``y``; agrees with label_distribution(weight_model(a, n, r)).
    """
    if len(y) != r:
        raise ValueError(f"label vector {y} has length {len(y)}, expected {r}")
    c = normalization_constant(a, n, r)
    if c == 0:
        raise EmptySupportError(
            f"weight table has zero total mass over {n} cells and {r} particles"
        )
    x = combinat.tilde_phi(y, n)
    return a.product(x) / (combinat.multinomial(r, x) * c)


def conditional_from_iid(
    q, n: int, r: int, mix: MixingSpec | None = None
) -> OccupancyDistribution:
    """Law of ``n`` i.i.d. counts with weight table ``q`` given that they sum to ``r``.

    ``q`` is an unnormalized weight table on {0..x_max} with x_max >= r.  A
    mixing spec makes the counts conditionally i.i.d.: the joint mass of a
    vector is the mixture sum_m weight_m * prod_j q(x_j) * rate_m**x_j of
    rate-tilted i.i.d. laws, computed cell by cell.  The conditional law
    never depends on the mixture, because the total is sufficient for the
    mixing rate; that cancellation is left to the normalization.
    """
    combinat.check_composition_budget(n, r)
    weights = tuple(Fraction(v) for v in q)
    if len(weights) - 1 < r:
        raise ValueError(
            f"weight table covers 0..{len(weights) - 1} but must reach {r}"
        )
    atoms = ((ONE, ONE),) if mix is None else mix.atoms  # unmixed: one atom at rate 1
    tilted = [(m, [v * rho**z for z, v in enumerate(weights)]) for rho, m in atoms]
    table: dict[Composition, Fraction] = {}
    total = ZERO
    for x in combinat.enumerate_compositions(n, r):
        w = sum(m * math.prod(law[v] for v in x) for m, law in tilted)
        if w:
            table[x] = w
            total += w
    if total == 0:
        raise EmptySupportError(
            f"conditioning on total {r} over {n} cells leaves zero mass"
        )
    return OccupancyDistribution(n, r, {x: w / total for x, w in table.items()})


def sample_exact(table: dict, rng: random.Random, count: int) -> list:
    """Draw ``count`` keys independently from an exact probability table.

    Inversion over the keys in sorted order: each draw is one integer
    uniform ``rng.randrange(denom)``, ``denom`` being the lcm of the
    denominators, so the draws are exact and reproducible by seed.  The
    sorted keys, the lcm and the cumulative integer masses are built once per
    call, and each draw is a bisection into the cumulative masses.  A table
    that does not sum to 1 is rejected before any draw.
    """
    keys = sorted(table)
    denom = math.lcm(*(table[k].denominator for k in keys))
    cum = list(
        itertools.accumulate(
            table[k].numerator * (denom // table[k].denominator) for k in keys
        )
    )
    if not cum or cum[-1] != denom:
        raise AssertionError("probability table does not sum to 1")
    return [keys[bisect.bisect_right(cum, rng.randrange(denom))] for _ in range(count)]


def sample(d: OccupancyDistribution, rng: random.Random) -> Composition:
    """Draw one composition exactly from the model."""
    return sample_exact(d.table, rng, 1)[0]
