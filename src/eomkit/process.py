"""Finite-horizon counting processes with product-form jump laws.

A process is stored as the exact joint law of its jump amounts
(J_0, ..., J_M), as integer masses over one denominator.  Built from a weight
table and a terminal count law, the joint factorizes as
R_t(total) * prod_h a(j_h) at every time t, which makes the conditional law
of the jumps given the count a product-form occupancy model; the checks in
this module verify those characterizations and the equivalent
arrival/inter-arrival formulas on arbitrary joints.

Arguments are checked once, at the public edge and before any cache: a
time against the horizon by ``_check_time``, a count by
``combinat.check_int``, each rejecting a value that is not an int before
its range is tested.  Internal callers pass trusted integers and read the
count record ``_counts`` and the normalizer rows ``_power_row`` unchecked.
The count record is read only in this module: other modules read the
count laws and the checks built on it, ``_markov_mismatch`` among them.
"""

import itertools
import math
import operator
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from . import combinat
from .combinat import check_int
from .errors import ConditioningError, EmptySupportError
from .models import (
    ZERO,
    FractionTable,
    OccupancyDistribution,
    WeightFunction,
    _power_row,
    _product_sampler,
    checked_masses,
    masses_of,
    normalization_constant,
    sample_exact,
    scaled_normalizer,
)
from .report import CheckOutcome

JumpPath = tuple[int, ...]


@dataclass(frozen=True)
class FiniteProcess:
    """Joint law of the jump amounts (J_0, ..., J_M) of a counting process.

    ``joint`` maps length-(M+1) jump paths to exact probabilities.  The
    constructor is the trust boundary: the joint may be given as any mapping
    of probabilities (a ``FractionTable`` included), and it is validated by
    ``checked_masses`` and stored as a ``FractionTable`` in lowest terms.
    Builders use ``from_masses`` instead, which validates nothing.  Only
    positive entries are stored.  The weight table must cover occupancies up
    to the largest total any path reaches, which is kept as ``count_cap``.

    The laws derived from the joint are computed once and cached on the
    process for its lifetime: the prefix law per t (``marginal``) and one
    count record per t (see ``_counts``), which every count query reads.
    The caches are not constructor parameters and take no part in equality.
    """

    weight: WeightFunction
    horizon: int
    joint: FractionTable
    _marginals: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _counts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    count_cap: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_int(self.horizon, "horizon", 0)

        def path_error(path):
            if len(path) != self.horizon + 1 or min(path) < 0:
                return f"{path} is not a jump path for horizon {self.horizon}"
            return None

        joint = checked_masses(self.joint, path_error, "path probabilities")
        cap = max(map(sum, joint), default=0)
        if self.weight.x_max < cap:
            raise ValueError(
                f"weight table covers 0..{self.weight.x_max} but paths reach total {cap}"
            )
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "count_cap", cap)

    @classmethod
    def from_masses(cls, weight: WeightFunction, horizon: int, denominator: int, masses: dict):
        """The process with joint ``masses[path] / denominator``, trusted as it is.

        For builders only: every key must be a jump path for the horizon
        whose total the weight table covers, and every mass a positive int.
        Nothing is checked, not even the sum; the masses are only put in
        lowest terms.  The process gets ``count_cap`` and caches of its own.
        """
        p = object.__new__(cls)
        # a frozen dataclass: set the fields without running __post_init__
        vars(p).update(
            weight=weight,
            horizon=horizon,
            joint=FractionTable.lowest(denominator, masses),
            _marginals={},
            _counts={},
            count_cap=max(map(sum, masses), default=0),
        )
        return p

    def marginal(self, t: int) -> FractionTable:
        """Exact law of the jump prefix (J_0, ..., J_t): the joint at t = M,
        where every path is its own prefix."""
        _check_time(t, self.horizon)
        if t == self.horizon:
            return self.joint
        table = self._marginals.get(t)
        if table is None:
            acc: dict[JumpPath, int] = {}
            for path, m in self.joint.masses.items():
                key = path[: t + 1]
                acc[key] = acc.get(key, 0) + m
            table = self._marginals[t] = FractionTable.lowest(self.joint.denominator, acc)
        return table


def _check_time(t, last: int, what: str = "time") -> None:
    """Raise ValueError unless ``t`` is an int (a bool is not) in 0..last."""
    if type(t) is not int:
        raise ValueError(f"{what} must be an integer, got {t!r}")
    if not 0 <= t <= last:
        raise ValueError(f"{what} {t} outside 0..{last}")


def build_process(
    a: WeightFunction, horizon: int, terminal_law
) -> FiniteProcess:
    """The unique jump law with terminal count law ``terminal_law`` whose
    conditional given each total is the product-form model for ``a``.

    ``terminal_law`` is a probability table indexed by total count 0..K.
    Every total with positive probability must be reachable, i.e. have a
    positive-weight path.
    """
    return _joint(a, horizon, _path_scales(a, horizon, terminal_law))


def sample_paths(
    a: WeightFunction, horizon: int, terminal_law, rng: random.Random, count: int
) -> Iterator[JumpPath]:
    """Draw ``count`` jump paths from ``build_process(a, horizon,
    terminal_law)``: the rows, and the generator's state after them, of
    ``sample_exact`` on its joint, after the same checks in the same order.
    The joint is built only when that costs no more than walking it (see
    ``models._product_sampler``)."""
    scales = cells, _, factors = _path_scales(a, horizon, terminal_law)
    return _product_sampler(
        a, cells, factors, rng, count, lambda: _joint(a, horizon, scales).joint
    )


def _path_scales(a: WeightFunction, horizon: int, terminal_law) -> tuple[int, int, dict]:
    """(M + 1, den, {k: factor}): the checks of a process for ``a`` and its
    budget charge, in order, and the integer scale of each total.

    A path of total k has probability pi_k * prod_h a(j_h) / C_{M+1}(k)
    = s_k * prod_h L * a(j_h) with s_k = pi_k / (L**(M+1) * C_{M+1}(k)), so
    the joint is the masses factor_k * prod_h L * a(j_h) over den, the
    common denominator of the s_k (see ``masses_of``): one Fraction per
    total, none per path.  Only totals with positive probability have a
    factor, and each factor is positive.
    """
    check_int(horizon, "horizon", 0)
    pi = [Fraction(p) for p in terminal_law]
    if any(p < 0 for p in pi):
        raise ValueError("terminal law has negative entries")
    if sum(pi) != 1:
        raise ValueError(f"terminal law sums to {sum(pi)}, not 1")
    cells = horizon + 1
    paths = sum(combinat.composition_count(cells, k) for k, p in enumerate(pi) if p)
    combinat.check_budget("jump path space", paths, cells)
    scales = {}
    for k, pk in enumerate(pi):
        if not pk:
            continue
        c = normalization_constant(a, cells, k)
        if c == 0:
            raise EmptySupportError(
                f"terminal count {k} has positive probability but no positive-weight path"
            )
        scales[k] = pk / (c * a.scale**cells)
    den, factors = masses_of(scales)
    return cells, den, factors


def _joint(a: WeightFunction, horizon: int, scales: tuple[int, int, dict]) -> FiniteProcess:
    """The process of ``_path_scales``'s (M + 1, den, {k: factor}): the
    masses factor_k * prod_h L * a(j_h) of its paths over den."""
    cells, den, factors = scales
    masses: dict[JumpPath, int] = {}
    for k, factor in factors.items():
        products = a.weighted_compositions(cells, k)
        masses.update((path, factor * w) for path, w in products.items() if w)
    return FiniteProcess.from_masses(a, horizon, den, masses)


def joint_jump_density(p: FiniteProcess, t: int, jumps) -> Fraction:
    """P{J_0 = jumps[0], ..., J_t = jumps[t]}."""
    marginal = p.marginal(t)
    jumps = tuple(jumps)
    if len(jumps) != t + 1:
        raise ValueError(f"expected {t + 1} jump amounts, got {len(jumps)}")
    return marginal.get(jumps, ZERO)


def _counts(
    p: FiniteProcess, t: int
) -> tuple[int, list[int], dict[JumpPath, int], dict[int, list[JumpPath]]]:
    """(D_t, [M_t(0), ..., M_t(cap)], masses, {k: [prefix, ...]}): the count record.

    ``p.marginal(t)`` indexed by total in one pass: its denominator D_t, the
    count masses M_t(k) = P{N_t = k} * D_t, its masses themselves, and the
    prefixes of each total k in the order of the marginal; only totals with
    mass have a list.  Cached on ``p`` per t and returned itself, so callers
    must not mutate it.
    """
    record = p._counts.get(t)
    if record is None:
        marginal = p.marginal(t)
        masses = [0] * (p.count_cap + 1)
        totals: dict[int, list[JumpPath]] = {}
        for prefix, m in marginal.masses.items():
            k = sum(prefix)
            masses[k] += m
            totals.setdefault(k, []).append(prefix)
        record = p._counts[t] = (marginal.denominator, masses, marginal.masses, totals)
    return record


def count_distribution(p: FiniteProcess, t: int) -> dict[int, Fraction]:
    """Exact law of the count N_t, tabulated for every total 0..cap.

    Read from the count record; each call returns a fresh dict.
    """
    _check_time(t, p.horizon)
    den, masses, _, _ = _counts(p, t)
    return {k: Fraction(m, den) for k, m in enumerate(masses)}


def terminal_law(p: FiniteProcess) -> dict[int, Fraction]:
    """Law of the total count at the horizon."""
    return count_distribution(p, p.horizon)


def structure_function(p: FiniteProcess, t: int, k: int) -> Fraction:
    """P{N_t = k} divided by the normalization constant over t+1 cells.

    Undefined (raises) when the normalization constant vanishes, i.e. when no
    positive-weight prefix reaches total ``k``.  With the count record and
    the scaled normalizer C'_{t+1}(k) = L**(t+1) * C_{t+1}(k) the value is
    one Fraction of integers, M_t(k) * L**(t+1) over D_t * C'_{t+1}(k).
    """
    check_int(k, "count", 0)
    # checked first: the normalizer would grow the weight's row memo to t + 1
    _check_time(t, p.horizon)
    a = p.weight
    c = scaled_normalizer(a, t + 1, k)
    if c == 0:
        raise _undefined_structure(t, k)
    den, masses, _, _ = _counts(p, t)
    mass = masses[k] if k <= p.count_cap else 0
    return Fraction(mass * a.scale ** (t + 1), den * c)


def _undefined_structure(t: int, k: int) -> EmptySupportError:
    return EmptySupportError(
        f"structure function undefined at t={t}, k={k}: no positive-weight path"
    )


def conditional_jumps_given_count(
    p: FiniteProcess, t: int, k: int
) -> OccupancyDistribution:
    """Law of (J_0, ..., J_t) given N_t = k, as an occupancy model.

    A fresh table of the masses of the prefixes of total k in the count
    record (see ``_counts``), over the count mass M_t(k).
    """
    _check_time(t, p.horizon)
    check_int(k, "count", 0)
    _, masses, prefixes, totals = _counts(p, t)
    keys = totals.get(k)
    if keys is None:
        raise ConditioningError(f"count {k} at time {t} has probability zero")
    return OccupancyDistribution.from_masses(t + 1, k, masses[k], {x: prefixes[x] for x in keys})


def check_weight_model_conditionals(p: FiniteProcess) -> CheckOutcome:
    """Verify that every reachable count conditional is the product-form
    model; the witness is the first failing (t, k) of ``_conditional_walk``."""
    return CheckOutcome("jump-conditionals-product-form", _conditional_walk(p)[0])


def check_mixed_geometric_form(p: FiniteProcess) -> CheckOutcome:
    """Verify the factorization density(prefix) = R(total) * prod a(jump);
    the witness is the first failing (t, prefix) of ``_conditional_walk``."""
    return CheckOutcome("joint-factorization", _conditional_walk(p)[1])


def _conditional_walk(p: FiniteProcess) -> tuple[str | None, str | None]:
    """First witnesses of the product-form conditionals and of the joint
    factorization.  Both read the same cases: on the count record of each t
    (see ``_counts``), with the prefix masses m and the count masses M_t(k)
    over one denominator, every k with count mass over the weight's memoized
    ``weighted_compositions(t+1, k)``, whose scaled weights are w.  Each
    test is decided on its own, so either can fail alone, and the walk
    stops once both have a witness.

    The law of the prefix given N_t = k is the model for (t+1, k) exactly
    when m(x) * C'_{t+1}(k) = M_t(k) * w(x) for every composition x of k.
    The witness is the first failing (t, k); a count with mass that no
    positive-weight prefix reaches has no product-form model, so it fails.

    The joint factorizes when every positive-weight prefix of the same
    length and total has the same ratio of density to weight, and every
    zero-weight prefix carries zero probability: each ratio is
    cross-multiplied with that of the first positive-weight prefix,
    m * w0 = m0 * w.  A total with no mass passes outright (every m is 0),
    so walking only the totals with count mass loses nothing.  The witness
    is the first failing (t, prefix).
    """
    a = p.weight
    by_model = by_form = None
    for t in range(p.horizon + 1):
        _, masses, prefixes, _ = _counts(p, t)
        normalizers = _power_row(a, t + 1)
        for k, mass in enumerate(masses):
            if not mass:
                continue
            c = normalizers[k]
            if by_model is None and c == 0:
                by_model = f"(t,k)={(t, k)}"
            m0 = w0 = None
            for x, w in a.weighted_compositions(t + 1, k).items():
                m = prefixes.get(x, 0)
                if by_model is None and m * c != mass * w:
                    by_model = f"(t,k)={(t, k)}"
                if by_form is None:
                    if w == 0:
                        ok = m == 0
                    else:
                        if w0 is None:
                            m0, w0 = m, w
                        ok = m * w0 == m0 * w
                    if not ok:
                        by_form = f"prefix {(t, x)}"
                if by_model and by_form:
                    return by_model, by_form
    return by_model, by_form


def _event_probability(p: FiniteProcess, values, gaps: bool) -> Fraction:
    """Density of the jump prefix (j_0..j_t) that arrival times pin, t the
    last one; with ``gaps`` the times are the prefix sums of ``values``.

    The one validating event path.  Its checks come in the order: none
    given, negative, order (times only: sums of gaps >= 0 are ordered),
    horizon, integers, the last two judged on the times.  A time that is
    not an integer fails to index the jump list, and one that cannot be
    compared with an int fails before; either is reported as a ValueError.
    """
    times = values = tuple(values)
    if not values:
        what = "inter-arrival gap" if gaps else "arrival time"
        raise ValueError(f"at least one {what} is required")
    try:
        if gaps:
            if min(values) < 0:
                raise ValueError(f"gaps must be >= 0, got {values}")
            times = tuple(itertools.accumulate(values))
        else:
            ordered = sorted(times)
            if ordered[0] < 0:
                raise ValueError(f"arrival times must be >= 0, got {times}")
            if times != tuple(ordered):
                raise ValueError(f"arrival times {times} are not nondecreasing")
        if times[-1] > p.horizon:
            raise ValueError(f"arrival time {times[-1]} beyond horizon {p.horizon}")
        profile = _profile(times)
    except TypeError:
        raise ValueError(f"arrival times must be integers, got {times}") from None
    t = len(profile) - 1
    return (p.joint if t == p.horizon else p.marginal(t)).get(profile, ZERO)


def _profile(times) -> JumpPath:
    """Jump prefix (j_0..j_t) of valid nondecreasing arrival times."""
    jumps = [0] * (times[-1] + 1)
    for t in times:
        jumps[t] += 1
    return tuple(jumps)


def interarrival_event_probability(p: FiniteProcess, gaps) -> Fraction:
    """P{Z_1 = gaps[0], ..., Z_k = gaps[-1], Z_{k+1} > 0}.

    The event pins the jump amounts up to the k-th arrival time, so it is
    evaluated as a prefix density; a zero gap is a tie (two arrivals at the
    same time).
    """
    return _event_probability(p, gaps, gaps=True)


def arrival_event_probability(p: FiniteProcess, arrival_times) -> Fraction:
    """P{T_1 = times[0], ..., T_x = times[-1], T_{x+1} > times[-1]}."""
    return _event_probability(p, arrival_times, gaps=False)


def check_characterizations(p: FiniteProcess) -> list[CheckOutcome]:
    """Cross-verify the four equivalent descriptions of the jump law.

    The conditional jump laws must be the product-form models, the joint must
    factorize through the total, and the closed-form inter-arrival and
    arrival-time probabilities must reproduce that factorization (with the
    arrival route also agreeing with the gap route event by event).  One
    outcome per description, carrying the first discrepancy found.  The two
    arrival descriptions are decided by one walk, ``_arrival_walk``, and
    the first two by another, ``_conditional_walk``.
    """
    names = ("jump-conditionals-product-form", "joint-factorization")
    out = list(map(CheckOutcome, names, _conditional_walk(p)))
    if not out[1].passed:
        return out
    names = ("interarrival-product-formula", "arrival-product-formula")
    return out + list(map(CheckOutcome, names, _arrival_walk(p)))


def _arrival_walk(p: FiniteProcess) -> tuple[str | None, str | None]:
    """First witnesses of the inter-arrival and the arrival-time formulas.

    Prefix sums map the k-tuples of gaps summing to at most M one-to-one
    onto the nondecreasing k-tuples of times in 0..M, keeping lexicographic
    order, so each event is walked once for both formulas, and each event
    function is called once per event.  The formula value of an event
    with prefix x is R_t(k) * w / L**(t+1), w = prod L * a(x_j), kept as
    the integer pair (numerator, denominator) that a probability is
    cross-multiplied with, so each event costs two comparisons: where the
    arrival probability meets the formula, the two probabilities differ
    exactly when the gap probability misses it.  R_t(k) is read from
    ``structure_function`` at the first positive-weight prefix of each
    (t, k).  The walk generates valid times, so it builds each prefix with
    the unchecked ``_profile`` and reads w from ``weighted_compositions``.
    """
    a, horizon = p.weight, p.horizon
    by_gaps = by_times = None
    for k in range(1, p.count_cap + 1):
        weights = [a.weighted_compositions(t + 1, k) for t in range(horizon + 1)]
        factors = [None] * (horizon + 1)
        for times in itertools.combinations_with_replacement(range(horizon + 1), k):
            t = times[-1]
            w = weights[t][_profile(times)]
            if w == 0:
                num, den = 0, 1
            else:
                factor = factors[t]
                if factor is None:
                    # R is the structure function once the joint factorizes;
                    # a positive weight means a positive normalizer, so the
                    # lookup never raises
                    r = structure_function(p, t, k)
                    factor = factors[t] = r.numerator, r.denominator * a.scale ** (t + 1)
                num, den = factor[0] * w, factor[1]
            gaps = (times[0], *map(operator.sub, times[1:], times))
            gap_law = interarrival_event_probability(p, gaps)
            time_law = arrival_event_probability(p, times)
            gap_ok = gap_law.numerator * den == num * gap_law.denominator
            if by_gaps is None and not gap_ok:
                by_gaps = f"gaps {gaps}"
            if by_times is None:
                if time_law.numerator * den != num * time_law.denominator:
                    by_times = f"times {times}"
                elif not gap_ok:
                    by_times = f"times {times} vs gaps {list(gaps)}"
            if by_gaps and by_times:
                return by_gaps, by_times
    return by_gaps, by_times


def transition_probability(p: FiniteProcess, t: int, k: int, i: int) -> Fraction:
    """P{N_{t+1} = k + i | N_t = k} via the structure-function form.

    Equals a(i) * R_{t+1}(k+i) / R_t(k); returns 0 outright when the target
    count is unreachable.  After the argument checks, one Fraction of
    ``_transition_step``; i > x_max is past the cap, as cap <= x_max.
    """
    _check_time(t, p.horizon - 1, "transition time")
    check_int(i, "jump amount", 0)
    check_int(k, "count", 0)
    here = _counts(p, t)
    if k > p.count_cap or here[1][k] == 0:
        raise ConditioningError(f"count {k} at time {t} has probability zero")
    if k + i > p.count_cap:
        return ZERO
    a = p.weight
    row, next_row = _power_row(a, t + 1), _power_row(a, t + 2)
    there = _counts(p, t + 1)
    return Fraction(*_transition_step(a, t, k, i, here, row, there, next_row))


def _transition_step(
    a: WeightFunction, t: int, k: int, i: int, here, row, there, next_row
) -> tuple[int, int]:
    """Unchecked (numerator, denominator > 0) of P{N_{t+1} = k + i | N_t = k}.

    ``here``, ``there`` are the count records of t, t + 1 and ``row``,
    ``next_row`` the normalizer rows C'_{t+1}, C'_{t+2}; M_t(k) > 0 and
    k + i <= cap.  As R_t(k) = M_t(k) * L**(t+1) / (D_t * C'_{t+1}(k)) (see
    ``structure_function``), the step is L * a(i) * M_{t+1}(k+i) * D_t *
    C'_{t+1}(k) over D_{t+1} * C'_{t+2}(k+i) * M_t(k), or (0, 1) when
    M_{t+1}(k+i) = 0.  A zero normalizer raises as ``structure_function``
    does, for the target count first.
    """
    mass = there[1][k + i]
    if mass == 0:
        return 0, 1
    c_there = next_row[k + i]
    if c_there == 0:
        raise _undefined_structure(t + 1, k + i)
    c_here = row[k]
    if c_here == 0:
        raise _undefined_structure(t, k)
    return a.scaled[i] * mass * here[0] * c_here, there[0] * c_there * here[1][k]


def check_structure_recursion(p: FiniteProcess) -> bool:
    """Exact check that each R_{t-1}(k) equals sum_l a(l) * R_t(k+l)
    (see ``_structure_mismatch``)."""
    return _structure_mismatch(p) is None


def _structure_mismatch(p: FiniteProcess) -> str | None:
    """First (t, k) where R_{t-1}(k) misses sum_l a(l) * R_t(k+l), or None.

    The sum is truncated at the count cap; omitted terms are exactly zero
    because no path reaches past the cap.  Decided on integers: with
    R_t(k) = M_t(k) * L**(t+1) / (D_t * C'_{t+1}(k)) (see
    ``structure_function``) and lam the lcm of the C'_{t+1}(k+l) in the
    sum, the identity reads
    M_{t-1}(k) * D_t * lam = D_{t-1} * C'_t(k) * sum_l L * a(l) * M_t(k+l)
    * (lam / C'_{t+1}(k+l)).  Every C'_{t+1}(k+l) in the sum is positive,
    being at least C'_t(k) * L * a(l).
    """
    a = p.weight
    cap = p.count_cap
    support = a.support()
    prev_den, prev_masses, _, _ = _counts(p, 0)
    for t in range(1, p.horizon + 1):
        den, masses, _, _ = _counts(p, t)
        here, there = _power_row(a, t), _power_row(a, t + 1)
        for k in range(cap + 1):
            c_here = here[k]
            if c_here == 0:
                continue
            terms = [
                (a.scaled[l] * masses[k + l], there[k + l])
                for l in support
                if k + l <= cap
            ]
            lam = math.lcm(*(c for _, c in terms))
            rhs = sum(w * (lam // c) for w, c in terms)
            if prev_masses[k] * den * lam != prev_den * c_here * rhs:
                return f"(t,k)=({t},{k})"
        prev_den, prev_masses = den, masses
    return None


def _markov_mismatch(p: FiniteProcess) -> str | None:
    """First transition step of ``p`` that misses its cell of the joint, or
    first row of steps that does not sum to 1.

    Per t, one pass over the count record of t + 1 (see ``_counts``) sums
    the masses of P{N_t = k, J_{t+1} = i} over D_{t+1} for every cell
    (k, i), k + i <= cap.  With the count mass M_t(k) over D_t, each step,
    the integer pair of ``_transition_step``, must equal
    cell(k, i) * D_t / (D_{t+1} * M_t(k)), cross-multiplied; each count
    record and normalizer row is read once per t.  Once every step of a row
    equals its cell, the row sums to 1 exactly when its cells sum to
    D_{t+1} * M_t(k) / D_t, so the sum is decided on integers; a
    ``Fraction`` is made only for the witness of a failing row.
    """
    a = p.weight
    here, row = _counts(p, 0), _power_row(a, 1)
    for t in range(p.horizon):
        there, next_row = _counts(p, t + 1), _power_row(a, t + 2)
        den, masses, _, _ = here
        fine_den, _, prefixes, totals = there
        cells = [[0] * (len(masses) - k) for k in range(len(masses))]
        for total, group in totals.items():
            for prefix in group:
                i = prefix[-1]
                cells[total - i][i] += prefixes[prefix]
        for k, mass in enumerate(masses):
            if not mass:
                continue
            scale = fine_den * mass
            for i, cell in enumerate(cells[k]):
                num, step_den = _transition_step(a, t, k, i, here, row, there, next_row)
                if num * scale != cell * den * step_den:
                    return f"(t,k,i)=({t},{k},{i})"
            row_sum = sum(cells[k])
            if row_sum * den != scale:
                return f"row (t,k)=({t},{k}) sums to {Fraction(row_sum * den, scale)}"
        here, row = there, next_row
    return None


def classic_uosp_value(kind: str, t: int, k: int, times) -> Fraction:
    """Closed-form conditional arrival-time probabilities of the classical
    uniform order statistics properties for unit- and multiple-jump processes.

    ``strict``: strictly increasing times in {1..t}; probability 1/binom(t, k).
    ``leq1``:   nondecreasing times in {0..t}; multinomial over ties times (t+1)**-k.
    ``leq2``:   nondecreasing times in {0..t}; probability 1/binom(t+k, k).

    After t and k, the times are checked for their count, their order,
    their range and then for being integers, in that order; a time that
    cannot be compared with an int is reported as not an integer.
    """
    check_int(t, "time", 0)
    check_int(k, "count", 0)
    times = tuple(times)
    if len(times) != k:
        raise ValueError(f"expected {k} arrival times, got {len(times)}")
    strict = kind == "strict"
    first = 1 if strict else 0
    try:
        # strictly increasing times are their sorted distinct values
        if times != tuple(sorted(set(times) if strict else times)):
            order = "strictly increasing" if strict else "nondecreasing"
            raise ValueError(f"times {times} are not {order}")
        if times and not (first <= times[0] and times[-1] <= t):
            raise ValueError(f"times {times} outside {first}..{t}")
        ties = [0] * (t + 1)
        for h in times:
            ties[h] += 1
    except TypeError:
        raise ValueError(f"times {times} are not integers") from None
    if strict:
        return Fraction(1, math.comb(t, k))
    if kind == "leq1":
        return Fraction(combinat.multinomial(k, ties), (t + 1) ** k)
    if kind == "leq2":
        return Fraction(1, math.comb(t + k, k))
    raise ValueError(f"unknown kind {kind!r}")


def sample_path(p: FiniteProcess, rng: random.Random) -> JumpPath:
    """Draw one jump path exactly from the stored joint law."""
    return next(sample_exact(p.joint, rng, 1))
