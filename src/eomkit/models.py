"""Exact occupancy models and their label-variable views.

An occupancy model is a probability table over the compositions of ``r``
particles into ``n`` cells.  Exchangeable models correspond one-to-one to
exchangeable laws of ``r`` cell-valued label variables.  Every table is
stored exactly, as integer masses over one integer denominator
(``FractionTable``), and read as ``fractions.Fraction`` values.
"""

import bisect
import itertools
import math
import operator
import random
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from . import combinat
from .combinat import Composition, LabelVector
from .errors import EmptySupportError, NonExchangeableError

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative weights a(0), ..., a(x_max) defining a product-form model.

    Two tables that differ by a rescaling a(x) -> c * t**x * a(x) induce the
    same occupancy model for every (n, r).

    ``scale`` is L, the lcm of the values' denominators, and ``scaled`` holds
    the integers L * a(x): every model and process table is built from these,
    with the normalizers of the scaled weight as denominators.
    ``_power_rows`` memoizes the integer coefficient rows of A'(z)**n, where
    A'(z) = sum_x L * a(x) z^x (see ``_power_row``), and ``_weighted`` the
    tables of ``weighted_compositions`` per (n, r).  All four live as long
    as the weight object and take no part in equality, hashing or repr.
    """

    values: tuple[Fraction, ...]
    kind: str | None = None
    scale: int = field(init=False, repr=False, compare=False)
    scaled: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _power_rows: list = field(
        default_factory=list, init=False, repr=False, compare=False, hash=False
    )
    _weighted: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        if not vals:
            raise ValueError("weight function needs at least one value")
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("weight function must be positive somewhere")
        scale, scaled = masses_of(dict(enumerate(vals)))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled", tuple(scaled.values()))

    @property
    def x_max(self) -> int:
        return len(self.values) - 1

    def __call__(self, x: int) -> Fraction:
        if type(x) is not int:
            raise ValueError(f"occupancy must be an integer, got {x!r}")
        if not 0 <= x <= self.x_max:
            raise ValueError(
                f"weight undefined at occupancy {x} (table covers 0..{self.x_max})"
            )
        return self.values[x]

    def product(self, x) -> Fraction:
        """prod_j a(x_j): the weight of an occupancy vector or jump path.

        Each x_j is checked by ``a(x_j)``; the value is the integer
        ``scaled_product(x)`` over L**len(x), one Fraction.
        """
        x = tuple(x)
        for v in x:
            self(v)
        return Fraction(self.scaled_product(x), self.scale ** len(x))

    def scaled_product(self, x) -> int:
        """prod_j L * a(x_j), unchecked: the entries must lie in 0..x_max.

        The integer form of ``product`` that the table builders and the
        process checks use.
        """
        return math.prod(map(self.scaled.__getitem__, x))

    def scaled_products(self, keys) -> dict:
        """{x: scaled_product(x)} over the keys with a positive product."""
        weigh = self.scaled_product
        return {x: w for x in keys if (w := weigh(x))}

    def weighted_compositions(self, n: int, r: int) -> dict:
        """{x: scaled_product(x)} over every length-``n`` composition of
        ``r``, zero products included, in lexicographic order.

        Memoized per (n, r) on the weight: the process builder and checks
        read each table many times.  The memo is returned itself, so callers
        must not mutate it.  (n, r) are checked before the memo is read, ``r``
        must lie in 0..x_max, and the composition budget is charged before
        any composition is listed.  One-shot tables (``weight_model``) use
        ``scaled_products`` instead, so that no second copy outlives them.
        """
        combinat.check_space(n, r)
        table = self._weighted.get((n, r))
        if table is None:
            if r > self.x_max:
                raise ValueError(
                    f"weight table covers 0..{self.x_max} but occupancies up to {r} are possible"
                )
            weigh = self.scaled_product
            table = {x: weigh(x) for x in combinat.enumerate_compositions(n, r)}
            self._weighted[(n, r)] = table
        return table

    def support(self) -> list[int]:
        return [x for x, v in enumerate(self.values) if v > 0]


def builtin_weight(kind: str, x_max: int) -> WeightFunction:
    """Built-in weight tables on {0..x_max}.

    ``mb``     1/x!                 (distinguishable particles)
    ``be``     1                    (indistinguishable particles)
    ``fd``     1 if x <= 1 else 0   (cell capacity one)
    ``pc:s``   binom(s+x-1, x)      (pseudo-contagious, integer s >= 1)
    """
    combinat.check_int(x_max, "x_max", 0)
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
        combinat.check_int(s, "pseudo-contagious parameter", 1)
        vals = [Fraction(math.comb(s + x - 1, x)) for x in range(x_max + 1)]
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    return WeightFunction(tuple(vals), kind=key)


class FractionTable(Mapping):
    """Exact probabilities stored as integer masses over one denominator.

    ``masses`` maps each key to an int and ``denominator`` is a positive
    int; the probability of a key is ``masses[key] / denominator``.  Tables
    made by ``lowest`` (every table a model or process stores) keep only
    positive masses, in lowest terms: the gcd of the denominator and the
    masses is 1.  Equal tables then have equal storage, and the denominator
    is the lcm of the entries' reduced denominators.

    As a mapping the table is a read-only view key -> Fraction over the
    masses, which are its only copy: keys, ``len`` and membership read them,
    and each value read makes one Fraction, which is not kept.
    """

    __slots__ = ("denominator", "masses")

    def __init__(self, denominator: int, masses: dict):
        self.denominator = denominator
        self.masses = masses

    @classmethod
    def lowest(cls, denominator: int, masses: dict) -> "FractionTable":
        """The table of masses / denominator in lowest terms; the masses
        must be positive."""
        g = math.gcd(denominator, *masses.values())
        if g > 1:
            denominator //= g
            masses = {key: m // g for key, m in masses.items()}
        return cls(denominator, masses)

    def __getitem__(self, key) -> Fraction:
        return Fraction(self.masses[key], self.denominator)

    def get(self, key, default=None):
        m = self.masses.get(key)
        return default if m is None else Fraction(m, self.denominator)

    def __iter__(self):
        return iter(self.masses)

    def __len__(self) -> int:
        return len(self.masses)

    def __contains__(self, key) -> bool:
        return key in self.masses

    def __eq__(self, other):
        if isinstance(other, FractionTable):
            return self.denominator == other.denominator and self.masses == other.masses
        return super().__eq__(other)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def masses_of(table) -> tuple[int, dict]:
    """(denominator, masses) of a mapping of rationals, such as a table of
    probabilities: the one routine that puts rationals over a denominator.

    A ``FractionTable`` gives its own; any other mapping of values that
    ``Fraction`` accepts is put over the lcm of their denominators.
    """
    if isinstance(table, FractionTable):
        return table.denominator, table.masses
    probs = {key: p if type(p) is Fraction else Fraction(p) for key, p in table.items()}
    den = math.lcm(*(p.denominator for p in probs.values()))
    return den, {key: p.numerator * (den // p.denominator) for key, p in probs.items()}


def checked_masses(table, shape_error, what: str, key_error=None) -> FractionTable:
    """The validated table of ``table`` (see ``masses_of``), in lowest terms.

    The one place where a table is validated: the public constructors of
    ``ExactTable`` subclasses and ``FiniteProcess`` call it on every table
    they are given, so input from ``serialize``, the CLI and callers passes
    through it once.  The builders' ``from_masses`` does not.  Integer
    arguments follow the same rule: a public function checks each one once,
    before any cache (``combinat.check_space`` for (n, r)), and internal
    callers read ``_power_row`` unchecked, as ``process`` its count record.

    Entry by entry, ``shape_error(key)`` is reported first, then a negative
    probability, then ``key_error(key)`` if given; each check returns a
    message or None.  Zero entries are dropped, and the masses must sum to
    the denominator, i.e. the ``what`` must sum to 1.
    """
    den, masses = masses_of(table)
    if type(den) is not int or den < 1:
        raise ValueError(f"denominator must be a positive integer, got {den!r}")
    positive = {}
    for key, m in masses.items():
        key = tuple(key)
        error = shape_error(key)
        if error:
            raise ValueError(error)
        if m < 0:
            raise ValueError(f"negative probability {Fraction(m, den)} at {key}")
        error = key_error and key_error(key)
        if error:
            raise ValueError(error)
        if m:
            positive[key] = m
    total = sum(positive.values())
    if total != den:
        raise ValueError(f"{what} sum to {Fraction(total, den)}, not 1")
    return FractionTable.lowest(den, positive)


@dataclass(frozen=True)
class ExactTable:
    """Exact probability table of a model with ``n`` cells and ``r`` particles.

    The constructor is the trust boundary: ``table`` may be given as any
    mapping of probabilities (a ``FractionTable`` included), and it is
    validated by ``checked_masses`` and stored as a ``FractionTable`` in
    lowest terms.  The builders, whose input was validated this way, make
    their tables with ``from_masses`` instead, which validates nothing.
    Only strictly positive entries are stored, and they must sum to 1;
    looking up a valid key outside the table yields probability zero.  A
    subclass says which keys are valid: ``_key_length()`` and
    ``_key_error(key)`` (why a key of that length is not valid, or None),
    with ``key_name`` and ``key_description`` for the error messages.
    """

    n: int
    r: int
    table: FractionTable

    def __post_init__(self):
        combinat.check_space(self.n, self.r)
        length = self._key_length()

        def shape_error(key):
            if len(key) != length:
                return f"{self.key_name} {key} has length {len(key)}, expected {length}"
            return None

        table = checked_masses(self.table, shape_error, "probabilities", self._key_error)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_masses(cls, n: int, r: int, denominator: int, masses: dict):
        """The table of ``masses[key] / denominator``, trusted as it is.

        For builders only: every key must be valid for (n, r) and every
        mass a positive int.  Nothing is checked, not even the sum (the
        suites' ``model-normalization`` and ``mass-conservation`` checks
        test it); the masses are only put in lowest terms.
        """
        d = object.__new__(cls)
        # a frozen dataclass: set the fields without running __post_init__
        vars(d).update(n=n, r=r, table=FractionTable.lowest(denominator, masses))
        return d

    @classmethod
    def from_orbits(cls, n: int, r: int, denominator: int, orbits: dict):
        """The table with mass ``orbits[rep] / denominator`` on every
        reordering of each sorted key ``rep``, in ``distinct_permutations``
        order: the inverse of ``orbits``, trusted as ``from_masses`` is."""
        masses = {}
        for rep, m in orbits.items():
            for key in combinat.distinct_permutations(rep):
                masses[key] = m
        return cls.from_masses(n, r, denominator, masses)

    def orbits(self) -> dict | None:
        """``{sorted key: mass}`` when every orbit of the keys under permuting
        their coordinates carries one mass over ``table.denominator`` on all
        of its members, else None: the one grouping of a table by orbit.
        The keys are distinct, so the orbits are whole exactly when their
        sizes sum to the number of keys."""
        orbits: dict[tuple, int] = {}
        for key, m in self.table.masses.items():
            if orbits.setdefault(tuple(sorted(key)), m) != m:
                return None
        whole = sum(map(combinat.distinct_permutation_count, orbits)) == len(self.table)
        return orbits if whole else None

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
        if sum(x) != self.r or min(x) < 0:  # keys of length n >= 1
            return f"{x} is not a composition of {self.r}"
        return None


class LabelDistribution(ExactTable):
    """Exact probability table over the label vectors in {1..n}**r."""

    key_name = "label vector"
    key_description = "a label vector for n={n}, r={r}"

    def _key_length(self) -> int:
        return self.r

    def _key_error(self, y: LabelVector) -> str | None:
        if any(type(label) is not int for label in y):
            return f"label vector {y} has labels that are not integers"
        if y and (min(y) < 1 or max(y) > self.n):
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


def _power_row(a: WeightFunction, n: int) -> list[int]:
    """Coefficients 0..x_max of A'(z)**n, with A'(z) = sum_x L * a(x) z^x.

    The entries are integers: L**n times the coefficients of A(z)**n.  Rows
    are memoized on ``a``.  A missing row is extended from the highest
    cached one by truncated convolution with A', so rows 0..N cost
    O(N * x_max**2) in total whatever order they are asked for in.
    """
    rows = a._power_rows
    if not rows:
        rows.append([1] + [0] * a.x_max)
    base = a.scaled
    top = a.x_max
    while len(rows) <= n:
        prev = rows[-1]
        nxt = [0] * (top + 1)
        for i, c in enumerate(prev):
            if not c:
                continue
            for j in range(top - i + 1):
                if base[j]:
                    nxt[i + j] += c * base[j]
        rows.append(nxt)
    return rows[n]


def scaled_normalizer(a: WeightFunction, n: int, r: int) -> int:
    """Sum of prod_j L * a(x_j) over all length-``n`` compositions of ``r``.

    The integer L**n * C_n(r), read from the row memo on ``a`` (see
    ``_power_row``), so each row is computed once per weight object.
    Checks (n, r) and that the weight table reaches ``r``; internal callers
    that already know both read ``_power_row(a, n)[r]`` instead.
    """
    combinat.check_space(n, r)
    if a.x_max < r:
        raise ValueError(
            f"weight table covers 0..{a.x_max} but occupancies up to {r} are possible"
        )
    return _power_row(a, n)[r]


def normalization_constant(a: WeightFunction, n: int, r: int) -> Fraction:
    """Sum of prod_j a(x_j) over all length-``n`` compositions of ``r``.

    The degree-``r`` coefficient of (sum_x a(x) z^x)**n: the scaled
    normalizer over L**n; identical to the literal sum over the space.
    """
    return Fraction(scaled_normalizer(a, n, r), a.scale**n)


def _model_normalizer(a: WeightFunction, n: int, r: int) -> int:
    """The checks of a product-form model for (n, r), in order, and its
    scaled normalizer, which they leave positive."""
    combinat.check_composition_budget(n, r)
    c = scaled_normalizer(a, n, r)
    if c == 0:
        raise EmptySupportError(
            f"weight table has zero total mass over {n} cells and {r} particles"
        )
    return c


def weight_model(a: WeightFunction, n: int, r: int) -> OccupancyDistribution:
    """Product-form occupancy model P(x) = prod_j a(x_j) / normalizer.

    Built as the integer masses prod_j L * a(x_j) over the scaled
    normalizer, which is the same table.
    """
    c = _model_normalizer(a, n, r)
    masses = a.scaled_products(combinat.enumerate_compositions(n, r))
    return OccupancyDistribution.from_masses(n, r, c, masses)


def sample_model(
    a: WeightFunction, n: int, r: int, rng: random.Random, count: int
) -> Iterator[Composition]:
    """Draw ``count`` compositions from ``weight_model(a, n, r)``: the rows,
    and the generator's state after them, of ``sample_exact`` on the
    model's table, after the same checks in the same order.  The table is
    built only when that costs no more than walking it (see
    ``_product_sampler``)."""
    _model_normalizer(a, n, r)
    return _product_sampler(a, n, {r: 1}, rng, count, lambda: weight_model(a, n, r).table)


def is_exchangeable(d: OccupancyDistribution) -> bool:
    """True iff the law is invariant under every permutation of the cells."""
    return d.orbits() is not None


def label_distribution(d: OccupancyDistribution) -> LabelDistribution:
    """Joint law of the ``r`` cell labels corresponding to an exchangeable model.

    Each composition's mass is split evenly over the label vectors whose
    occurrence counts reproduce it: the orbit of its sorted labels ``psi(x)``.
    """
    if not is_exchangeable(d):
        raise NonExchangeableError(
            "label law is only defined for exchangeable occupancy models"
        )
    combinat.check_budget("label space", d.n**d.r, 1)
    # p(x) / multinomial(r, x) = m(x) * prod_j x_j! / (denominator * r!)
    factorials = [math.factorial(c) for c in range(d.r + 1)]
    shares = {
        combinat.psi(x): m * math.prod(factorials[c] for c in x)
        for x, m in d.table.masses.items()
    }
    return LabelDistribution.from_orbits(
        d.n, d.r, d.table.denominator * factorials[d.r], shares
    )


def occupancy_from_labels(ld: LabelDistribution) -> OccupancyDistribution:
    """Occupancy model of an exchangeable label law; inverse of label_distribution."""
    orbits = ld.orbits()
    if orbits is None:
        raise NonExchangeableError(
            "occupancy view is only defined for exchangeable label laws"
        )
    masses: dict[Composition, int] = {}
    for y, m in orbits.items():
        x = combinat.phi(y, ld.n)
        masses[x] = m * combinat.multinomial(ld.r, x)
    return OccupancyDistribution.from_masses(ld.n, ld.r, ld.table.denominator, masses)


def order_statistics_distribution(d: OccupancyDistribution) -> FractionTable:
    """Law of the sorted label vector: the composition law pushed through psi.

    psi is one-to-one, so the masses and denominator of ``d`` serve as
    they are.
    """
    psi = combinat.psi
    return FractionTable(d.table.denominator, {psi(x): m for x, m in d.table.masses.items()})


def label_marginal(ld: LabelDistribution, index_set) -> LabelDistribution:
    """Exact marginal of a label law on a set of 1-based coordinates."""
    idx = combinat.check_index_set(index_set, ld.r)
    out: dict[LabelVector, int] = {}
    for y, m in ld.table.masses.items():
        key = tuple(y[i - 1] for i in idx)
        out[key] = out.get(key, 0) + m
    return LabelDistribution.from_masses(ld.n, len(idx), ld.table.denominator, out)


def weight_model_label_density(
    a: WeightFunction, n: int, r: int, y: LabelVector
) -> Fraction:
    """Pointwise label-law density of the product-form model.

    Equals prod_l a(x_l) * x_l! / (r! * normalizer) with x the occupancy
    counts of ``y``; agrees with label_distribution(weight_model(a, n, r)).
    Computed on integers: the scaled product of ``x`` over multinomial(r, x)
    times the scaled normalizer, one Fraction.
    """
    if len(y) != r:
        raise ValueError(f"label vector {y} has length {len(y)}, expected {r}")
    c = scaled_normalizer(a, n, r)
    if c == 0:
        raise EmptySupportError(
            f"weight table has zero total mass over {n} cells and {r} particles"
        )
    x = combinat.tilde_phi(y, n)
    return Fraction(a.scaled_product(x), combinat.multinomial(r, x) * c)


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

    The masses are integers (see ``masses_of``): q on 0..r is the integers
    Q_z over Q, so atom m at rate p/s has the tilted table q(z) * rate**z
    = Q_z * p**z * s**(r-z) / (Q * s**r), the integers V_m(z) over B_m.
    The shares weight_m / B_m**n of the atoms are the integers c_m over one
    denominator, so a vector's mass is sum_m c_m * prod_j V_m(x_j).
    """
    combinat.check_composition_budget(n, r)
    weights = tuple(Fraction(v) for v in q)
    if any(v.numerator < 0 for v in weights):
        raise ValueError("weights must be nonnegative")
    if len(weights) - 1 < r:
        raise ValueError(
            f"weight table covers 0..{len(weights) - 1} but must reach {r}"
        )
    atoms = ((ONE, ONE),) if mix is None else mix.atoms  # unmixed: one atom at rate 1
    q_den, q_masses = masses_of(dict(enumerate(weights[: r + 1])))
    laws, shares = [], {}
    for m, (rho, weight) in enumerate(atoms):
        p, s = rho.numerator, rho.denominator
        laws.append({z: v * p**z * s ** (r - z) for z, v in q_masses.items()})
        shares[m] = weight / (q_den * s**r) ** n
    _, shares = masses_of(shares)
    tilted = list(zip(shares.values(), laws))
    masses: dict[Composition, int] = {}
    for x in combinat.enumerate_compositions(n, r):
        w = sum(c * math.prod(map(law.__getitem__, x)) for c, law in tilted)
        if w:
            masses[x] = w
    total = sum(masses.values())
    if total == 0:
        raise EmptySupportError(
            f"conditioning on total {r} over {n} cells leaves zero mass"
        )
    return OccupancyDistribution.from_masses(n, r, total, masses)


def sample_exact(table, rng: random.Random, count: int) -> Iterator:
    """Draw ``count`` keys independently from a given exact probability table.

    Inversion over the keys in sorted order: each draw is one integer
    uniform ``rng.randrange(denom)``, ``denom`` being the lcm of the
    denominators, so the draws are exact and reproducible by seed.  A
    stored ``FractionTable`` is in lowest terms, so its own denominator and
    masses serve as they are; any other mapping is put over that lcm first
    (see ``masses_of``).  The sorted keys and the cumulative masses are built
    once per call, and each draw is a bisection into the cumulative masses.
    A table that does not sum to 1 is rejected at the call, before any draw;
    the draws are then made one at a time, as the returned iterator is read.

    This samples the tables that callers hold (``sample``,
    ``process.sample_path``) and the product-form tables that are cheaper
    to build than to walk.  ``sample_model`` and ``process.sample_paths``
    draw the stream this function draws from the built table: it is their
    oracle.
    """
    denom, masses = masses_of(table)
    keys = sorted(masses)
    cum = list(itertools.accumulate(masses[k] for k in keys))
    if not cum or cum[-1] != denom:
        raise AssertionError("probability table does not sum to 1")
    return (keys[bisect.bisect_right(cum, rng.randrange(denom))] for _ in range(count))


#: about how many cells a walked draw of ``_product_sampler`` visits in the
#: time that building a table takes per vector (enumerated, weighed, sorted):
#: 1.3-2.2 us per vector against about 0.2 us per walked cell, measured with
#: CPython 3.11 on a 2-core x86-64 container
_CELLS_PER_LISTED_VECTOR = 8


def _product_sampler(
    a: WeightFunction, cells: int, factors: dict, rng: random.Random, count: int, table
) -> Iterator[tuple]:
    """``sample_exact`` on the table of masses f[sum x] * prod_j s(x_j) over
    the length-``cells`` vectors x, s = ``a.scaled`` and f = ``factors``,
    walked cell by cell unless building it, by the call ``table()``, costs
    no more.

    ``factors`` maps totals in 0..``a.x_max`` to positive ints, and the
    table must have positive mass.  In lexicographic order the vectors that
    start with a prefix p of t cells and sum q are one block, of mass
    prod s(p) * T_{cells-t}(q), with T_c(q) = sum_k f[k] * C'_c(k - q) read
    from the normalizer rows (``_power_row``).  The walk sets up about
    ``cells * (top + 1)**2`` products of them, ``top`` being the largest total,
    and visits ``cells`` per draw; building the table visits every vector
    of each total.  The table is built when the walk visits at least
    ``_CELLS_PER_LISTED_VECTOR`` cells per vector, or when the draws are at
    least its vectors of positive mass (``_support_count``): then a built
    table is read by every draw.

    A walked draw makes the one call u = ``rng.randrange(D)`` of
    ``sample_exact``, D being the total mass T_cells(0) over g, the gcd of
    the masses: g = gcd_k f[k] * G(k), with G(k) the gcd of the products of
    the vectors of sum k.  The draw finds the block that holds V = u * g one
    cell at a time.  In the block of a prefix p, V is kept as (V - the
    block's start) // prod s(p): every mass under p is a multiple of
    prod s(p), so this floor compares with the cumulative masses of the
    next cell's blocks, in units of prod s(p), as V itself does.  So each
    row, and the generator's state after it, is that of ``sample_exact`` on
    the built table.
    """
    s = a.scaled
    top = max(factors)
    vectors = sum(math.comb(cells + k - 1, k) for k in factors)
    if (
        cells * (count + (top + 1) ** 2) >= _CELLS_PER_LISTED_VECTOR * vectors
        or count >= _support_count(s, cells, factors)
    ):
        return sample_exact(table(), rng, count)
    f = [factors.get(k, 0) for k in range(top + 1)]
    tails = [  # tails[c][q] = T_c(q)
        [sum(map(operator.mul, row, f[q:])) for q in range(top + 1)]
        for row in (_power_row(a, c) for c in range(cells + 1))
    ]
    gcds = [1] + [0] * top  # G(k) over 0, 1, ..., cells cells
    for _ in range(cells):
        gcds = [math.gcd(*map(operator.mul, s[: k + 1], gcds[k::-1])) for k in range(top + 1)]
    g = math.gcd(*map(operator.mul, f, gcds))
    # per cell, per sum q of the cells before it: the cumulative masses of
    # its values' blocks, in units of the prefix's product
    rows = [
        [[0, *itertools.accumulate(map(operator.mul, s, tail[q:]))] for q in range(top + 1)]
        for tail in reversed(tails[:cells])
    ]
    return _walk(tails[cells][0] // g, rows, s, g, rng, count)


def _support_count(s, cells: int, totals) -> int:
    """The length-``cells`` vectors x with sum in ``totals`` and every
    s(x_j) > 0: the coefficients of z**k, k in ``totals``, in the power
    (sum over s(v) > 0 of z**v)**cells, taken as one integer power whose
    digits in base 2**width are the coefficients.  No coefficient up to the
    largest total passes the count of all the vectors of that sum, so
    none of them carries into the next digit."""
    top = max(totals)
    width = math.comb(cells + top - 1, top).bit_length()
    power = sum(1 << v * width for v in range(top + 1) if s[v]) ** cells
    mask = (1 << width) - 1
    return sum(power >> k * width & mask for k in totals)


def _walk(denom: int, rows, s, g: int, rng: random.Random, count: int) -> Iterator[tuple]:
    """The walked draws of ``_product_sampler``, one at a time: ``rows``
    holds the cumulative masses of each cell's blocks per sum before it."""
    bisect_right = bisect.bisect_right
    for _ in range(count):
        v, q, x = rng.randrange(denom) * g, 0, []
        for cell in rows:
            row = cell[q]
            j = bisect_right(row, v) - 1
            v = (v - row[j]) // s[j]
            x.append(j)
            q += j
        yield tuple(x)


def sample(d: OccupancyDistribution, rng: random.Random) -> Composition:
    """Draw one composition exactly from the model."""
    return next(sample_exact(d.table, rng, 1))
