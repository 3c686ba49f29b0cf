"""Per-entry ``Fraction`` constructions of the model, process and transform
tables, and the ``Fraction`` forms of the drop-closure check, the process
characterization and structure-recursion checks and queries, the arrival
event probabilities, and the per-process bodies of the ``theorem`` suite's
Markov check and the ``classic`` suite's recovery checks: the
straightforward bodies that the integer-mass paths in ``eomkit`` replace.
Each table builder returns a plain dict of exact probabilities, so a test
can compare a fast path with its oracle table for table; each check returns
the same ``CheckOutcome`` (list of them, bool or witness) as its fast path, and
each query raises the same errors.  Weights are read one value at a time
through ``a(v)``, normalizers are the literal sums over the composition
space, and process laws are summed from the joint's ``Fraction`` view, so no
oracle calls the code it judges.
"""

import itertools
import math
from fractions import Fraction

from eomkit import combinat
from eomkit.errors import ConditioningError, EmptySupportError
from eomkit.report import CheckOutcome

ZERO = Fraction(0)


def weight_product(a, x) -> Fraction:
    return math.prod((a(v) for v in x), start=Fraction(1))


def literal_normalizer(a, n: int, r: int) -> Fraction:
    return sum(
        (weight_product(a, x) for x in combinat.enumerate_compositions(n, r)),
        start=ZERO,
    )


def weight_model(a, n: int, r: int) -> dict:
    c = literal_normalizer(a, n, r)
    if c == 0:
        raise EmptySupportError(f"no mass over {n} cells and {r} particles")
    table = {}
    for x in combinat.enumerate_compositions(n, r):
        w = weight_product(a, x)
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
            w = weight_product(a, path)
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


def check_drop_closure(a, n: int, r: int) -> CheckOutcome:
    """C(n, r-1) / C(n, r) * sum_h ((x'_h + 1) / r) * a(x'_h + 1) / a(x'_h)
    == 1 at every x' of r - 1 with positive weight, one Fraction per cell."""
    if r < 1:
        raise ValueError("closure under particle drop needs at least one particle")
    c_lo = literal_normalizer(a, n, r - 1)
    c_hi = literal_normalizer(a, n, r)
    if c_lo == 0 or c_hi == 0:
        raise EmptySupportError(
            f"weight table has zero total mass over {n} cells at {r - 1} or {r} particles"
        )
    ratio = c_lo / c_hi
    for xp in combinat.enumerate_compositions(n, r - 1):
        if any(a(v) == 0 for v in xp):
            continue
        total = ZERO
        for v in xp:
            total += Fraction(v + 1, r) * (a(v + 1) / a(v))
        if ratio * total != 1:
            return CheckOutcome("drop-closure", str(xp))
    return CheckOutcome("drop-closure")


def conditional_from_iid(q, n: int, r: int, mix=None) -> dict:
    """The law of n i.i.d. counts with weights q (or their mixture over the
    atoms of ``mix``) given total r: the joint mass of each composition is
    summed over the atoms in Fractions, then divided by the total."""
    weights = tuple(Fraction(v) for v in q)
    if any(v < 0 for v in weights):
        raise ValueError("weights must be nonnegative")
    if len(weights) - 1 < r:
        raise ValueError(
            f"weight table covers 0..{len(weights) - 1} but must reach {r}"
        )
    atoms = ((Fraction(1), Fraction(1)),) if mix is None else mix.atoms
    tilted = [(m, [v * rho**z for z, v in enumerate(weights)]) for rho, m in atoms]
    table = {}
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
    return {x: w / total for x, w in table.items()}


def perturbed_joint(p) -> dict | None:
    """The joint with half the mass of its first path moved onto its second
    path of the same total, at the smallest total that has two paths."""
    by_total = {}
    for path in sorted(p.joint):
        by_total.setdefault(sum(path), []).append(path)
    for total in sorted(by_total):
        paths = by_total[total]
        if len(paths) >= 2:
            joint = dict(p.joint)
            eps = joint[paths[0]] / 2
            joint[paths[0]] -= eps
            joint[paths[1]] += eps
            return joint
    return None


def prefix_law(p, t: int) -> dict:
    """P{(J_0, ..., J_t) = x}, summed from the joint."""
    law = {}
    for path, pr in p.joint.items():
        prefix = path[: t + 1]
        law[prefix] = law.get(prefix, ZERO) + pr
    return law


def count_law(p, t: int) -> dict:
    """P{N_t = k} for k = 0..cap, summed from the joint."""
    law = dict.fromkeys(range(p.count_cap + 1), ZERO)
    for path, pr in p.joint.items():
        law[sum(path[: t + 1])] += pr
    return law


def conditional_given_count(p, t: int, k: int) -> dict:
    """P{(J_0, ..., J_t) = x | N_t = k}: the prefix law filtered by sum."""
    if k < 0:
        raise ValueError(f"count must be >= 0, got {k}")
    cond = {x: pr for x, pr in prefix_law(p, t).items() if sum(x) == k}
    total = sum(cond.values(), start=ZERO)
    if total == 0:
        raise ConditioningError(f"count {k} at time {t} has probability zero")
    return {x: pr / total for x, pr in cond.items()}


def structure_value(p, t: int, k: int) -> Fraction:
    """R_t(k) = P{N_t = k} / C_{t+1}(k), raising where C_{t+1}(k) = 0."""
    c = literal_normalizer(p.weight, t + 1, k)
    if c == 0:
        raise EmptySupportError(
            f"structure function undefined at t={t}, k={k}: no positive-weight path"
        )
    return count_law(p, t).get(k, ZERO) / c


def check_structure_recursion(p) -> bool:
    """The recursion holds at every (t, k) (see ``structure_mismatch``)."""
    return structure_mismatch(p) is None


def structure_mismatch(p) -> str | None:
    """First (t, k) with C_t(k) > 0 where R_{t-1}(k) misses
    sum_l a(l) * R_t(k+l), summed up to the count cap."""
    a, cap = p.weight, p.count_cap
    for t in range(1, p.horizon + 1):
        for k in range(cap + 1):
            if literal_normalizer(a, t, k) == 0:
                continue
            rhs = sum(
                (a(l) * structure_value(p, t, k + l)
                 for l in range(cap - k + 1) if l <= a.x_max and a(l)),
                start=ZERO,
            )
            if structure_value(p, t - 1, k) != rhs:
                return f"(t,k)=({t},{k})"
    return None


def transition_probability(p, t: int, k: int, i: int) -> Fraction:
    """a(i) * R_{t+1}(k+i) / R_t(k), with the count laws summed from the
    joint and the same checks, in the same order, as the fast path."""
    if not 0 <= t < p.horizon:
        raise ValueError(f"transition time {t} outside 0..{p.horizon - 1}")
    if i < 0:
        raise ValueError(f"jump amount must be >= 0, got {i}")
    if k < 0:
        raise ValueError(f"count must be >= 0, got {k}")
    if count_law(p, t).get(k, ZERO) == 0:
        raise ConditioningError(f"count {k} at time {t} has probability zero")
    if i > p.weight.x_max or count_law(p, t + 1).get(k + i, ZERO) == 0:
        return ZERO
    return p.weight(i) * structure_value(p, t + 1, k + i) / structure_value(p, t, k)


def check_weight_model_conditionals(p) -> CheckOutcome:
    name = "jump-conditionals-product-form"
    for t in range(p.horizon + 1):
        marg = prefix_law(p, t)
        for k, mass in count_law(p, t).items():
            if not mass:
                continue
            c = literal_normalizer(p.weight, t + 1, k)
            if c == 0 or any(
                marg.get(x, ZERO) * c != mass * weight_product(p.weight, x)
                for x in combinat.enumerate_compositions(t + 1, k)
            ):
                return CheckOutcome(name, f"(t,k)={(t, k)}")
    return CheckOutcome(name)


def check_mixed_geometric_form(p) -> CheckOutcome:
    name = "joint-factorization"
    for t in range(p.horizon + 1):
        marg = prefix_law(p, t)
        for k in range(p.count_cap + 1):
            common = None
            for prefix in combinat.enumerate_compositions(t + 1, k):
                prob = marg.get(prefix, ZERO)
                w = weight_product(p.weight, prefix)
                if w == 0:
                    ok = prob == 0
                else:
                    value = prob / w
                    if common is None:
                        common = value
                    ok = value == common
                if not ok:
                    return CheckOutcome(name, f"prefix {(t, prefix)}")
    return CheckOutcome(name)


def check_characterizations(p) -> list:
    """The four outcomes.  The arrival events are walked one by one: the
    event with times T pins the jump prefix x up to its last time t, whose
    probability must be P{N_t = k} / C_{t+1}(k) * prod a(x_j), k = sum x.
    The gap and time routes read that one probability, so both fail at the
    first event that misses."""
    out = [check_weight_model_conditionals(p), check_mixed_geometric_form(p)]
    if not out[1].passed:
        return out
    laws = [prefix_law(p, t) for t in range(p.horizon + 1)]
    counts = [count_law(p, t) for t in range(p.horizon + 1)]
    events = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(p.horizon + 1), k)
        for k in range(1, p.count_cap + 1)
    )
    for times in events:
        profile = [0] * (times[-1] + 1)
        for h in times:
            profile[h] += 1
        t, k = len(profile) - 1, len(times)
        w = weight_product(p.weight, profile)
        expected = counts[t][k] / literal_normalizer(p.weight, t + 1, k) * w if w else ZERO
        if laws[t].get(tuple(profile), ZERO) != expected:
            gaps = (times[0],) + tuple(b - a for a, b in zip(times, times[1:]))
            return out + [
                CheckOutcome("interarrival-product-formula", f"gaps {gaps}"),
                CheckOutcome("arrival-product-formula", f"times {times}"),
            ]
    return out + [
        CheckOutcome("interarrival-product-formula"),
        CheckOutcome("arrival-product-formula"),
    ]


def markov_mismatch(p) -> str | None:
    """Each step a(i) * R_{t+1}(k+i) / R_t(k) (``transition_probability``
    above) against P{N_t = k, J_{t+1} = i} / P{N_t = k}, summed from the
    joint, and each row of steps summed in Fractions against 1."""
    for t in range(p.horizon):
        cells = {}
        for prefix, pr in prefix_law(p, t + 1).items():
            key = (sum(prefix[:-1]), prefix[-1])
            cells[key] = cells.get(key, ZERO) + pr
        for k, mass in count_law(p, t).items():
            if not mass:
                continue
            steps = []
            for i in range(p.count_cap - k + 1):
                step = transition_probability(p, t, k, i)
                if step != cells.get((k, i), ZERO) / mass:
                    return f"(t,k,i)=({t},{k},{i})"
                steps.append(step)
            row = sum(steps, start=ZERO)
            if row != 1:
                return f"row (t,k)=({t},{k}) sums to {row}"
    return None


def classic_uosp_value(kind: str, t: int, k: int, times) -> Fraction:
    """The closed forms with their checks as first written: pairwise order
    scans, the range, then an ``isinstance`` test for integers; ties are
    counted with ``tuple.count``."""
    times = tuple(times)
    if len(times) != k:
        raise ValueError(f"expected {k} arrival times, got {len(times)}")
    if kind == "strict":
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError(f"times {times} are not strictly increasing")
        if times and not (1 <= times[0] and times[-1] <= t):
            raise ValueError(f"times {times} outside 1..{t}")
    else:
        if any(a > b for a, b in zip(times, times[1:])):
            raise ValueError(f"times {times} are not nondecreasing")
        if times and not (0 <= times[0] and times[-1] <= t):
            raise ValueError(f"times {times} outside 0..{t}")
    if not all(isinstance(h, int) for h in times):
        raise ValueError(f"times {times} are not integers")
    if kind == "strict":
        return Fraction(1, math.comb(t, k))
    if kind == "leq1":
        coeff = math.factorial(k)
        for h in range(t + 1):
            coeff //= math.factorial(times.count(h))
        return Fraction(coeff, (t + 1) ** k)
    if kind == "leq2":
        return Fraction(1, math.comb(t + k, k))
    raise ValueError(f"unknown kind {kind!r}")


def classic_mismatch(p, uosp_kind: str) -> str | None:
    """Each conditional probability of a jump prefix given N_t = k, summed
    from the joint, against ``classic_uosp_value`` above at its arrival
    times: the prefixes with mass for unit jumps (``strict``, times shifted
    into 1..t+1), every composition of k otherwise."""
    for t in range(p.horizon + 1):
        for k, mass in count_law(p, t).items():
            if not mass:
                continue
            cond = conditional_given_count(p, t, k)
            if uosp_kind == "strict":
                cases, shift, last = cond.items(), 1, t + 1
            else:
                cases = (
                    (x, cond.get(x, ZERO))
                    for x in combinat.enumerate_compositions(t + 1, k)
                )
                shift, last = 0, t
            for prefix, pr in cases:
                times = [h + shift for h, j in enumerate(prefix) for _ in range(j)]
                if pr != classic_uosp_value(uosp_kind, last, k, times):
                    return f"(t,k)=({t},{k}) at {prefix}"
    return None


def _event_law(p, times: tuple) -> Fraction:
    """P{(J_0, ..., J_t) = x} for the prefix x that the times pin, t the last."""
    profile = tuple(times.count(h) for h in range(times[-1] + 1))
    return prefix_law(p, times[-1]).get(profile, ZERO)


def arrival_event_probability(p, arrival_times) -> Fraction:
    """The event's prefix probability, with the checks as first written:
    the minimum, a pairwise order scan, the horizon, then integers."""
    times = tuple(arrival_times)
    if not times:
        raise ValueError("at least one arrival time is required")
    if min(times) < 0:
        raise ValueError(f"arrival times must be >= 0, got {times}")
    if any(a > b for a, b in zip(times, times[1:])):
        raise ValueError(f"arrival times {times} are not nondecreasing")
    if times[-1] > p.horizon:
        raise ValueError(f"arrival time {times[-1]} beyond horizon {p.horizon}")
    if not all(isinstance(h, int) for h in times):
        raise ValueError(f"arrival times must be integers, got {times}")
    return _event_law(p, times)


def interarrival_event_probability(p, gaps) -> Fraction:
    """The prefix probability of the event whose times are the prefix sums
    of the gaps, checked as ``arrival_event_probability`` above checks
    times, with the order implied by gaps >= 0."""
    gaps = tuple(gaps)
    if not gaps:
        raise ValueError("at least one inter-arrival gap is required")
    if min(gaps) < 0:
        raise ValueError(f"gaps must be >= 0, got {gaps}")
    times = tuple(itertools.accumulate(gaps))
    if times[-1] > p.horizon:
        raise ValueError(f"arrival time {times[-1]} beyond horizon {p.horizon}")
    if not all(isinstance(h, int) for h in times):
        raise ValueError(f"arrival times must be integers, got {times}")
    return _event_law(p, times)
