"""Exact verification suites over the model, transform, and process layers.

Every check is a tolerance-zero comparison of rational tables.  The suites
are pure functions of their seed and bounds, so reports are reproducible;
they are reused verbatim by the command-line ``verify`` command and the
acceptance tests.
"""

import itertools
import math
import random
from fractions import Fraction

from . import combinat
from .errors import BudgetExceededError, EmptySupportError
from .models import (
    ONE,
    ZERO,
    FractionTable,
    MixingSpec,
    OccupancyDistribution,
    WeightFunction,
    builtin_weight,
    conditional_from_iid,
    is_exchangeable,
    label_distribution,
    label_marginal,
    masses_of,
    occupancy_from_labels,
    order_statistics_distribution,
    scaled_normalizer,
    weight_model,
    weight_model_label_density,
)
from .process import (
    FiniteProcess,
    _conditional_walk,
    _markov_mismatch,
    _structure_mismatch,
    build_process,
    check_characterizations,
    classic_uosp_value,
    conditional_jumps_given_count,
    count_distribution,
    structure_function,
)
from .report import CheckOutcome, SuiteReport
from .transforms import (
    check_drop_closure,
    drop_particle,
    erase_cell,
    partial_sum_conditionals,
    product_form_weights,
)

BUILTIN_KINDS = ("mb", "be", "fd", "pc:2", "pc:3")


def random_weight_function(rng: random.Random, x_max: int) -> WeightFunction:
    """Strictly positive random weight table with small rational entries."""
    values = tuple(
        Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(x_max + 1)
    )
    return WeightFunction(values)


def random_eom(rng: random.Random, n: int, r: int) -> OccupancyDistribution:
    """Random exchangeable model: positive mass per orbit, spread evenly.

    Orbit ``rep`` draws the integer mass m(rep) and gives each of its c(rep)
    compositions m(rep) / (total * c(rep)): with the shares m(rep) / c(rep)
    as integers over L (see ``masses_of``), the integer share over total * L.
    """
    reps = sorted({tuple(sorted(x)) for x in combinat.enumerate_compositions(n, r)})
    masses = {rep: rng.randint(1, 20) for rep in reps}
    den, shares = masses_of(
        {rep: Fraction(m, combinat.distinct_permutation_count(rep)) for rep, m in masses.items()}
    )
    return OccupancyDistribution.from_orbits(n, r, sum(masses.values()) * den, shares)


def _grid(max_n: int, max_r: int, min_n: int = 2, min_r: int = 1):
    """The (n, r) points with n in min_n..max_n and r in min_r..max_r, n
    major, made one at a time."""
    return itertools.product(range(min_n, max_n + 1), range(min_r, max_r + 1))


def _cells(n: int, r: int) -> int:
    """What the budget charges for an occupancy table: compositions x n."""
    return combinat.composition_count(n, r) * n


def _kinds(n: int, r: int) -> list[str]:
    """The built-in kinds with support at (n, r), in ``BUILTIN_KINDS`` order:
    fd weighs only the occupancies 0 and 1, so it needs r <= n; the other
    kinds weigh every occupancy."""
    return [kind for kind in BUILTIN_KINDS if kind != "fd" or r <= n]


def _check_plan(suite: str, max_n: int, max_r: int, charge) -> int:
    """The cells of the tables a model suite builds, summed before it builds
    any table or weight, in the budget's unit (see ``_cells``).

    The grid is walked once.  ``charge(n, r, builtins, randoms)`` is the
    work at the point (n, r), with ``builtins`` the number of built-in
    models there (``_kinds``) and ``randoms`` the number of random models
    placed there; each suite's docstring says which tables it charges.  The
    tables that one check builds and drops for itself, and the checks with
    fixed cells off the grid, are not charged.  The sum is refused
    (``_refuse_past_budget``) as soon as it passes the budget, so a huge
    grid is refused before it is walked to the end; otherwise it is
    returned.
    """
    if max_n < 2 or max_r < 1:
        raise ValueError(
            f"model grid needs max_n >= 2 and max_r >= 1, got {max_n}, {max_r}"
        )
    points = (max_n - 1) * max_r
    total = 0
    for index, (n, r) in enumerate(_grid(max_n, max_r)):
        # random model i (0..19) is placed on grid point i % points
        total += charge(n, r, len(_kinds(n, r)), len(range(index, 20, points)))
        _refuse_past_budget(f"{suite} suite at max_n={max_n}, max_r={max_r}", total)
    return total


def _refuse_past_budget(plan: str, total: int) -> None:
    """Raise BudgetExceededError, naming ``plan`` and its ``total`` cells,
    when the total passes ``combinat.ENUMERATION_BUDGET``."""
    if total > combinat.ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{plan} needs at least {total} cells (budget {combinat.ENUMERATION_BUDGET})"
        )


def _grid_models(max_n: int, max_r: int) -> tuple[dict, dict]:
    """``({kind: weight}, {(kind, n, r): model})``: one built-in weight per
    kind on 0..max_r, which a model at (n, r) reads only on 0..r, and its
    model at each grid point with support, in grid and kind order."""
    weights = {kind: builtin_weight(kind, max_r) for kind in BUILTIN_KINDS}
    models = {
        (kind, n, r): weight_model(weights[kind], n, r)
        for n, r in _grid(max_n, max_r)
        for kind in _kinds(n, r)
    }
    return weights, models


def _all_models(models: dict, seed: int, max_n: int, max_r: int):
    """``(name, kind, model)`` of the built-in models on the grid, then of 20
    seeded random exchangeable models cycling through the same grid, whose
    kind is None."""
    out = [(f"{kind}({n},{r})", kind, d) for (kind, n, r), d in models.items()]
    rng = random.Random(seed)
    for i, (n, r) in zip(range(20), itertools.cycle(_grid(max_n, max_r))):
        out.append((f"random-eom-{i}({n},{r})", None, random_eom(rng, n, r)))
    return out


def _report(suite: str, found: dict) -> SuiteReport:
    """The report of ``suite`` from ``found``, which maps each check name,
    in report order, to its first witness or None."""
    return SuiteReport(suite, [CheckOutcome(name, w) for name, w in found.items()])


def _first(found: dict, check: str, body, *args) -> None:
    """Run ``body(*args)``, one unit (a model, conditioned table or process)
    of ``check``, unless the check has failed already: so ``found`` keeps
    the check's first witness."""
    if found[check] is None:
        found[check] = body(*args)


def eom_suite(seed: int = 0, max_n: int = 4, max_r: int = 4) -> SuiteReport:
    """Model-layer checks: marginals, label laws, order statistics, sufficiency.

    The suite first plans its work (``_check_plan``): each model on the grid
    at compositions x n cells, its label law at n**r cells, and the 20
    random weight models per grid point of ``weight-model-exchangeable``.
    Then it builds the grid models (``_grid_models``) and walks the model
    list once.  Each model's label law is built once, read by every
    per-model check that has not failed yet (``_first``), and dropped before
    the next model's law is built.  The grid checks and the fixed
    ``iid-conditional-sufficiency`` run after the walk.  Every check decides
    on the integer masses of the tables; none reads their ``Fraction`` view.
    """
    _check_plan(
        "eom",
        max_n,
        max_r,
        lambda n, r, builtins, randoms: (builtins + randoms) * (_cells(n, r) + n**r)
        + 20 * _cells(n, r),
    )
    weights, grid = _grid_models(max_n, max_r)
    models = _all_models(grid, seed, max_n, max_r)
    rng = random.Random(seed + 1)
    random_weights = [random_weight_function(rng, max_r) for _ in range(20)]
    found = dict.fromkeys(
        (
            "model-normalization",
            "weight-model-exchangeable",
            "uniform-single-marginals",
            "label-law-closed-forms",
            "order-statistics-match",
            "uniform-transfer",
            "label-occupancy-roundtrip",
            "weight-label-density",
            "iid-conditional-sufficiency",
        )
    )

    # builders store their tables unchecked (``from_masses``), so this and
    # the transforms suite's mass-conservation are where sums are tested
    def model_normalization(name, d):
        if sum(d.table.masses.values()) != d.table.denominator:
            return name
        return None

    def weight_model_exchangeable():
        for n, r in _grid(max_n, max_r):
            for kind in _kinds(n, r):
                if not is_exchangeable(grid[kind, n, r]):
                    return f"{kind}({n},{r})"
            for i, a in enumerate(random_weights):
                if not is_exchangeable(weight_model(a, n, r)):
                    return f"random-weight-{i}({n},{r})"
        return None

    # the per-model checks decide on the integer masses of the label laws:
    # a probability m / D is 1 / n exactly when m * n == D
    def uniform_single_marginals(name, d, ld):
        for i in range(1, d.r + 1):
            marg = label_marginal(ld, {i}).table
            for label in range(1, d.n + 1):
                if marg.masses.get((label,), 0) * d.n != marg.denominator:
                    return f"{name} coordinate {i} label {label}"
        return None

    def label_law_closed_form(name, kind, ld):
        # the closed form p / q of the law at y as (p, q): rising is the
        # ascending factorial n (n+1) ... (n+r-1), and fd puts 1 / falling
        # on each y of r distinct labels
        n, r = ld.n, ld.r
        rising, falling = math.perm(n + r - 1, r), math.perm(n, r)
        closed = {
            "mb": lambda y: (1, n**r),
            "be": lambda y: (math.prod(map(math.factorial, combinat.tilde_phi(y, n))), rising),
            "fd": lambda y: (len(set(y)) == r, falling),
        }[kind]
        for y in combinat.enumerate_labels(r, n):
            p, q = closed(y)
            if ld.table.masses.get(y, 0) * q != p * ld.table.denominator:
                return f"{name} at {y}"
        return None

    def order_statistics_match(name, d, ld):
        direct = order_statistics_distribution(d)
        brute: dict[tuple, int] = {}
        for y, m in ld.table.masses.items():
            key = tuple(sorted(y))
            brute[key] = brute.get(key, 0) + m
        if direct != FractionTable.lowest(ld.table.denominator, brute):
            return name
        return None

    def uniform_transfer():
        # a model is uniform when each of the |space| compositions has a
        # mass m with m * |space| == D; its order statistics are uniform
        # when they cover the space with equal masses
        for n, r in _grid(max_n, max_r):
            size = combinat.composition_count(n, r)
            candidates = [d for _, _, d in models if (d.n, d.r) == (n, r)]
            uniform = []
            for d in candidates:
                den, masses = d.table.denominator, d.table.masses
                uniform_a = len(masses) == size and all(m * size == den for m in masses.values())
                _, order = masses_of(order_statistics_distribution(d))
                uniform_b = len(order) == size and len(set(order.values())) == 1
                if uniform_a != uniform_b:
                    return f"({n},{r})"
                uniform.append(uniform_a)
            if not any(uniform):
                return f"no uniform instance at ({n},{r})"
        return None

    def label_occupancy_roundtrip(name, d, ld):
        # once the rebuilt model is d, its label law is ld: nothing more to test
        if occupancy_from_labels(ld) != d:
            return name
        return None

    def weight_label_density(name, a, ld):
        den, masses = ld.table.denominator, ld.table.masses
        for y in combinat.enumerate_labels(ld.r, ld.n):
            v = weight_model_label_density(a, ld.n, ld.r, y)
            if masses.get(y, 0) * v.denominator != v.numerator * den:
                return f"{name} at {y}"
        return None

    def iid_conditional_sufficiency():
        mixes = [
            None,
            MixingSpec(((Fraction(1, 2), ONE),)),
            MixingSpec(((Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 2)))),
            MixingSpec(
                (
                    (Fraction(1, 5), Fraction(1, 4)),
                    (Fraction(1, 2), Fraction(1, 4)),
                    (Fraction(3, 4), Fraction(1, 2)),
                )
            ),
        ]
        for n, r in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            theta = Fraction(1, 2)
            poisson = [theta**x / math.factorial(x) for x in range(r + 1)]
            geom_p = Fraction(1, 3)
            geometric = [geom_p * (1 - geom_p) ** x for x in range(r + 1)]
            bern_p = Fraction(1, 4)
            bernoulli = [1 - bern_p, bern_p] + [ZERO] * (r - 1)
            nb_s, nb_p = 2, Fraction(1, 3)
            negbin = [
                Fraction(math.comb(nb_s + x - 1, x)) * nb_p**x * (1 - nb_p) ** nb_s
                for x in range(r + 1)
            ]
            targets = [
                ("mb", poisson),
                ("be", geometric),
                ("fd", bernoulli),
                ("pc:2", negbin),
            ]
            for kind, q in targets:
                try:
                    expected = weight_model(builtin_weight(kind, r), n, r)
                except EmptySupportError:
                    continue
                results = [conditional_from_iid(q, n, r, mix) for mix in mixes]
                if any(res != expected for res in results):
                    return f"{kind}({n},{r})"
        return None

    for name, kind, d in models:
        ld = label_distribution(d)
        _first(found, "model-normalization", model_normalization, name, d)
        _first(found, "uniform-single-marginals", uniform_single_marginals, name, d, ld)
        if kind in ("mb", "be", "fd"):
            _first(found, "label-law-closed-forms", label_law_closed_form, name, kind, ld)
        _first(found, "order-statistics-match", order_statistics_match, name, d, ld)
        _first(found, "label-occupancy-roundtrip", label_occupancy_roundtrip, name, d, ld)
        if kind is not None and d.n <= 3:
            _first(found, "weight-label-density", weight_label_density, name, weights[kind], ld)
        del ld  # dropped before the next model's law is built
    found["weight-model-exchangeable"] = weight_model_exchangeable()
    found["uniform-transfer"] = uniform_transfer()
    found["iid-conditional-sufficiency"] = iid_conditional_sufficiency()
    return _report("eom", found)


ADHOC_WEIGHT = WeightFunction((1, 1, 5, 1), kind="adhoc")


def transforms_suite(seed: int = 0, max_n: int = 4, max_r: int = 4) -> SuiteReport:
    """Transform-layer checks: closure properties and the product-form boundary.

    The suite first plans its work (``_check_plan``), at compositions x n
    cells per table: each model on the grid, its drop image, its erase image
    and its conditioned tables, and per built-in model its
    ``check_drop_closure`` enumeration.  Then it builds the grid models
    (``_grid_models``) and walks the model list once.  Each model's drop and
    erase images, its conditioned tables (one ``partial_sum_conditionals``
    pass per prefix length) and, for a built-in model, its
    ``check_drop_closure`` outcome are built once, read by every per-model
    check that has not failed yet (``_first``), and dropped with the model.
    A built-in model's drop image and conditioned tables are compared with
    the grid models they must equal, so no target is built.  The checks with
    fixed cells off the grid run after the walk and build their few small
    models themselves.
    """

    def charge(n, r, builtins, randoms):
        conditioned = sum(_cells(sub_n, s) for sub_n, s in _grid(n - 1, r, min_n=1, min_r=0))
        tables = _cells(n, r) + _cells(n, r - 1) + _cells(n - 1, r) + conditioned
        return (builtins + randoms) * tables + builtins * _cells(n, r - 1)

    _check_plan("transforms", max_n, max_r, charge)
    weights, grid = _grid_models(max_n, max_r)
    models = _all_models(grid, seed, max_n, max_r)

    def keeps_exchangeable(name, image):
        if not is_exchangeable(image):
            return name
        return None

    def conditioned_exchangeable(name, sub_n, s, cond):
        if cond is not None and not is_exchangeable(cond):
            return f"{name} cond({sub_n},{s})"
        return None

    def conditioned_weight_model(name, kind, d, sub_n, s, cond):
        # where sub_n = 1 or s = 0 the space holds one composition, so the
        # table and its target are both mass 1 on it: they are not compared;
        # elsewhere the target, the built-in model at (sub_n, s), is on the grid
        if cond is None:
            a = weights[kind]
            if scaled_normalizer(a, sub_n, s) and scaled_normalizer(a, d.n - sub_n, d.r - s):
                return f"{name} cond({sub_n},{s}) empty"
        elif sub_n > 1 and s > 0 and cond != grid.get((kind, sub_n, s)):
            return f"{name} cond({sub_n},{s})"
        return None

    # a built-in weight with support at (n, r) has support at (n, r - 1)
    # too, so check_drop_closure raises on none of the grid models
    def drop_closure_builtin(name, closure):
        return None if closure.passed else f"{name} witness {closure.witness}"

    def drop_closure_counterexample():
        if check_drop_closure(ADHOC_WEIGHT, 2, 3).passed:
            return "ad-hoc weight (1,1,5,1) unexpectedly passes at n=2, r=3"
        return None

    def drop_matches_weight_model(name, kind, d, closure, drop):
        # at r = 1 the image and its target are both mass 1 on the one
        # composition of no particles: they are not compared
        if d.r > 1 and closure.passed and drop != grid[kind, d.n, d.r - 1]:
            return name
        return None

    def drop_breaks_weight_model():
        # the ad-hoc failure of the closure condition must show up in the model
        d = weight_model(ADHOC_WEIGHT, 2, 3)
        if drop_particle(d) == weight_model(ADHOC_WEIGHT, 2, 2):
            return "ad-hoc weight (1,1,5,1) preserved by drop at n=2, r=3"
        return None

    def dropped_label_marginal(name, d, drop):
        if label_distribution(drop) != label_marginal(label_distribution(d), range(1, d.r)):
            return name
        return None

    def mass_conservation(name, *images):
        if any(sum(out.table.masses.values()) != out.table.denominator for out in images):
            return name
        return None

    def product_form_detector_positive():
        be = weight_model(builtin_weight("be", 2), 3, 2)
        recovered = product_form_weights(be)
        if recovered is None:
            return "detector missed the uniform model at (3,2)"
        if weight_model(recovered, 3, 2) != be:
            return "detector returned an inconsistent weight table"
        return None

    def strict_containment():
        """Search 3..5 x 3..5 for a drop or erase image outside the product
        form; one decides the check.  Product form constrains an image on m
        cells with k particles only where ``orbit_count(m, k) > k``: below
        that its k - 1 free weight ratios fit any law with one value per
        orbit.  So only those images, and their bases, are built."""
        for n, r in _grid(5, 5, min_n=3, min_r=3):
            ops = [
                op
                for op, (m, k) in ((drop_particle, (n, r - 1)), (erase_cell, (n - 1, r)))
                if combinat.orbit_count(m, k) > k
            ]
            if not ops:
                continue
            adhoc = WeightFunction(tuple([ONE] * 2 + [Fraction(5)] + [ONE] * (r - 2)))
            weights = (builtin_weight("be", r), builtin_weight("pc:2", r), adhoc)
            bases = [weight_model(a, n, r) for a in weights]
            for d in bases:
                for op in ops:
                    if product_form_weights(op(d)) is None:
                        return None
        return "every searched transform image stayed product-form"

    found = dict.fromkeys(
        (
            "drop-keeps-exchangeable",
            "erase-keeps-exchangeable",
            "conditioning-keeps-exchangeable",
            "conditioning-preserves-weight-model",
            "drop-closure-builtins",
            "drop-closure-counterexample",
            "drop-matches-weight-model",
            "drop-breaks-weight-model",
            "dropped-label-marginal",
            "mass-conservation",
            "product-form-detector-positive",
            "strict-containment",
        )
    )
    for name, kind, d in models:
        drop, erase = drop_particle(d), erase_cell(d)
        _first(found, "drop-keeps-exchangeable", keeps_exchangeable, name, drop)
        _first(found, "erase-keeps-exchangeable", keeps_exchangeable, name, erase)
        for sub_n in range(1, d.n):
            conds = partial_sum_conditionals(d, sub_n)
            for s in range(d.r + 1):
                _first(found, "conditioning-keeps-exchangeable",
                       conditioned_exchangeable, name, sub_n, s, conds.get(s))
                if kind is not None:
                    _first(found, "conditioning-preserves-weight-model",
                           conditioned_weight_model, name, kind, d, sub_n, s, conds.get(s))
        if kind is not None:
            closure = check_drop_closure(weights[kind], d.n, d.r)
            _first(found, "drop-closure-builtins", drop_closure_builtin, name, closure)
            _first(found, "drop-matches-weight-model",
                   drop_matches_weight_model, name, kind, d, closure, drop)
        if d.n <= 3 and 2 <= d.r <= 4:
            _first(found, "dropped-label-marginal", dropped_label_marginal, name, d, drop)
        _first(found, "mass-conservation", mass_conservation, name, drop, erase)
    found["drop-closure-counterexample"] = drop_closure_counterexample()
    found["drop-breaks-weight-model"] = drop_breaks_weight_model()
    found["product-form-detector-positive"] = product_form_detector_positive()
    found["strict-containment"] = strict_containment()
    return _report("transforms", found)


def _terminal_laws(rng: random.Random, cap: int):
    """Uniform, truncated-geometric, and random terminal count laws on 0..cap."""
    size = cap + 1
    uniform = [Fraction(1, size)] * size
    weights = [Fraction(1, 2**k) for k in range(size)]
    total = sum(weights)
    geometric = [w / total for w in weights]
    raw = [Fraction(rng.randint(1, 9)) for _ in range(size)]
    total = sum(raw)
    randomized = [w / total for w in raw]
    return [("uniform", uniform), ("geometric", geometric), ("random", randomized)]


def _normalized_at_zero(a: WeightFunction) -> WeightFunction:
    """Gauge with a(0) = 1; induces the same models and processes."""
    return WeightFunction(tuple(v / a(0) for v in a.values), kind=a.kind)


#: the weights of the process checks: four built-in kinds, then five random
#: weights drawn from the suite's seed
PROCESS_WEIGHTS = ("mb", "be", "fd", "pc:2") + tuple(f"random-{i}" for i in range(5))


def _process_pairs(max_horizon: int):
    """(weight name, horizon, cap) of each (weight, horizon) pair of the
    process checks, in order: every weight at the horizons {2, max_horizon},
    with terminal laws on 0..cap."""
    for wname in PROCESS_WEIGHTS:
        for horizon in sorted({2, max_horizon}):
            yield wname, horizon, min(5, horizon + 1) if wname == "fd" else 5


def _theorem_plan(max_horizon: int) -> int:
    """The cells of the jump path spaces of the process checks, paths x
    (horizon + 1) summed over the processes before any is built, with the
    paths counted as ``build_process`` counts them; refused past the budget
    (``_refuse_past_budget``), otherwise returned.

    Each pair has three terminal laws (``_terminal_laws``), all positive on
    every total 0..cap, so the plan draws none of them.
    """
    total = 0
    for _, horizon, cap in _process_pairs(max_horizon):
        cells = horizon + 1
        paths = sum(combinat.composition_count(cells, k) for k in range(cap + 1))
        total += 3 * paths * cells
    _refuse_past_budget(f"theorem suite at horizon={max_horizon}", total)
    return total


def _suite_processes(seed: int, max_horizon: int):
    """The deterministic (label, process) pairs of the process checks, one
    per (weight, horizon, terminal law), yielded one at a time: a process
    is built only when the one before it has been yielded.

    The five random weights are drawn first, then the random terminal laws
    in the order of the pairs.  Random weights are normalized to a(0) = 1,
    the gauge under which the structure function at count zero equals the
    zero-count probability.
    """
    rng = random.Random(seed)
    randoms = {
        wname: _normalized_at_zero(random_weight_function(rng, 6))
        for wname in PROCESS_WEIGHTS
        if wname.startswith("random-")
    }
    for wname, horizon, cap in _process_pairs(max_horizon):
        a = randoms[wname] if wname in randoms else builtin_weight(wname, cap)
        for lname, pi in _terminal_laws(rng, cap):
            yield f"{wname}/M={horizon}/{lname}", build_process(a, horizon, pi)


def perturbed_process(p: FiniteProcess) -> FiniteProcess | None:
    """Move half the mass of one path onto another path with the same total.

    Over twice the joint's denominator the donor keeps its mass m and the
    receiver gains it, so the move is made on the integer masses.
    """
    by_total: dict[int, list] = {}
    for path in sorted(p.joint):
        by_total.setdefault(sum(path), []).append(path)
    for total in sorted(by_total):
        paths = by_total[total]
        if len(paths) >= 2:
            donor, receiver = paths[0], paths[1]
            masses = {path: 2 * m for path, m in p.joint.masses.items()}
            masses[donor] //= 2
            masses[receiver] += masses[donor]
            return FiniteProcess.from_masses(
                p.weight, p.horizon, 2 * p.joint.denominator, masses
            )
    return None


CHARACTERIZATION_NAMES = (
    "jump-conditionals-product-form",
    "joint-factorization",
    "interarrival-product-formula",
    "arrival-product-formula",
)


def theorem_suite(seed: int = 0, max_horizon: int = 3) -> SuiteReport:
    """Process-layer checks: the four equivalent characterizations and the
    supporting structure-function identities, plus a verifier sanity test.

    The suite first checks the horizon and plans its work
    (``_theorem_plan``).  Then one walk visits the processes of
    ``_suite_processes`` in order, one at a time.  Each process gets its
    four characterization outcomes, then every other check that has not
    failed yet (``_first``), and is dropped before the next one is built.  ``mutation-detected`` also fails when no
    process admitted a perturbation.
    """
    combinat.check_int(max_horizon, "horizon", 0)
    _theorem_plan(max_horizon)
    mutated = 0  # processes that admitted a perturbation

    def zero_count_identity(p):
        if p.weight(0) == 0:
            return None
        for t in range(p.horizon + 1):
            if count_distribution(p, t)[0] != structure_function(p, t, 0):
                return f"t={t}"
        return None

    def marginal_consistency(p):
        for t in range(1, p.horizon + 1):
            coarse = p.marginal(t - 1)
            fine = p.marginal(t)
            acc: dict[tuple, int] = {}
            for prefix, m in fine.masses.items():
                key = prefix[:-1]
                acc[key] = acc.get(key, 0) + m
            if FractionTable.lowest(fine.denominator, acc) != coarse:
                return f"t={t}"
        return None

    def mutation_detected(p):
        nonlocal mutated
        bad = perturbed_process(p)
        if bad is None:
            return None
        mutated += 1
        if _conditional_walk(bad) == (None, None):
            return "perturbation went undetected"
        return None

    def characterization(label, outcome):
        return None if outcome.passed else f"{label}: {outcome.witness}"

    def labelled(label, body, p):
        witness = body(p)
        return witness and f"{label} {witness}"

    checks = {
        "markov-transitions": _markov_mismatch,
        "structure-recursion": _structure_mismatch,
        "zero-count-identity": zero_count_identity,
        "marginal-consistency": marginal_consistency,
        "mutation-detected": mutation_detected,
    }
    found = dict.fromkeys(CHARACTERIZATION_NAMES + tuple(checks))
    for label, p in _suite_processes(seed, max_horizon):
        for outcome in check_characterizations(p):
            _first(found, outcome.name, characterization, label, outcome)
        for name, body in checks.items():
            _first(found, name, labelled, label, body, p)
    if not mutated:
        found["mutation-detected"] = "no process admitted a perturbation"
    return _report("theorem", found)


#: (check name, weight kind, classical property) of the recovery checks.
#: Unit jumps come from the capacity-one weight: over t+1 cells the
#: conditional is uniform over the binom(t+1, k) strictly increasing time
#: sets.  The two multiple-jump variants come from the factorial-decay and
#: constant weights.
CLASSIC_RECOVERIES = (
    ("strict-unit-jump-recovery", "fd", "strict"),
    ("multinomial-recovery", "mb", "leq1"),
    ("flat-count-recovery", "be", "leq2"),
)


def _classic_recovery(weight_kind: str, uosp_kind: str, max_horizon: int) -> str | None:
    """First jump prefix whose conditional probability misses the closed form,
    over the processes of horizon 1..``max_horizon`` with a uniform terminal
    law."""
    for horizon in range(1, max_horizon + 1):
        cap = horizon + 1 if weight_kind == "fd" else 4
        pi = [Fraction(1, cap + 1)] * (cap + 1)
        p = build_process(builtin_weight(weight_kind, cap), horizon, pi)
        witness = _classic_mismatch(p, uosp_kind)
        if witness:
            return f"M={horizon} {witness}"
    return None


def _classic_mismatch(p: FiniteProcess, uosp_kind: str) -> str | None:
    """First (t, k) and jump prefix of ``p`` whose conditional probability
    misses ``classic_uosp_value``.

    The conditional's integer mass m over its denominator D is
    cross-multiplied with each closed-form value v: m * v.denominator must
    equal v.numerator * D.  Unit jumps (``strict``) put one arrival time in
    1..t+1 on each occupied cell, so only the prefixes with mass are cases;
    otherwise every composition of k into t+1 cells is one.
    """
    strict = uosp_kind == "strict"
    shift = 1 if strict else 0
    for t in range(p.horizon + 1):
        for k, prob in count_distribution(p, t).items():
            if not prob:
                continue
            cond = conditional_jumps_given_count(p, t, k).table
            den, masses = cond.denominator, cond.masses
            cases = masses if strict else combinat.enumerate_compositions(t + 1, k)
            for prefix in cases:
                times = [h + shift for h, j in enumerate(prefix) for _ in range(j)]
                value = classic_uosp_value(uosp_kind, t + shift, k, times)
                if masses.get(prefix, 0) * value.denominator != value.numerator * den:
                    return f"(t,k)=({t},{k}) at {prefix}"
    return None


def classic_suite(max_horizon: int = 4) -> SuiteReport:
    """Recovery of the classical uniform order statistics properties.

    Each check walks the processes of horizon 1..``max_horizon``, so a
    horizon below 1 would pass them without examining a case; it is refused.
    """
    if max_horizon < 1:
        raise ValueError(f"classic suite needs a horizon >= 1, got {max_horizon}")
    return _report(
        "classic",
        {
            name: _classic_recovery(weight, uosp, max_horizon)
            for name, weight, uosp in CLASSIC_RECOVERIES
        },
    )


def run_suite(
    suite: str,
    seed: int = 0,
    max_n: int = 4,
    max_r: int = 4,
    horizon: int = 3,
) -> SuiteReport:
    """Dispatch a verification suite by name."""
    if suite == "eom":
        return eom_suite(seed, max_n, max_r)
    if suite == "transforms":
        return transforms_suite(seed, max_n, max_r)
    if suite == "theorem":
        return theorem_suite(seed, horizon)
    if suite == "classic":
        return classic_suite(horizon)
    raise ValueError(f"unknown suite {suite!r}")
