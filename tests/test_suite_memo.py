"""The ``eom`` and ``transforms`` suites plan their work before they build
anything, then walk their models one at a time: each model's derived
tables are built once and dropped before the next model's are built.  The
``theorem`` suite plans its path spaces too, and keeps one process at a
time.

Spies on the names ``eomkit.verify`` imports count the calls per model
object over one whole suite run.  Each spy keeps the arguments it saw
alive, so no object id is reused.  Models with equal contents are
different inputs: the suites keep no table by its contents.
"""

import re
import sys
import weakref
from collections import Counter

import pytest

from eomkit import verify
from eomkit.combinat import composition_count, orbit_count
from eomkit.errors import BudgetExceededError
from eomkit.models import FractionTable, WeightFunction, builtin_weight, weight_model
from eomkit.transforms import drop_particle, erase_cell, product_form_weights


def spy(monkeypatch, names, record):
    """Replace each name in ``verify`` by a wrapper that calls
    ``record(name, args, checks)`` before the real builder, with
    ``checks`` the names of the functions on the call stack."""
    for name in names:
        real = getattr(verify, name)

        def build(*args, _name=name, _real=real):
            frame, checks = sys._getframe(1), set()
            while frame is not None:
                checks.add(frame.f_code.co_name)
                frame = frame.f_back
            record(_name, args, checks)
            return _real(*args)

        monkeypatch.setattr(verify, name, build)


BUILT_ONCE = {
    verify.eom_suite: ("label_distribution",),
    verify.transforms_suite: (
        "label_distribution",
        "drop_particle",
        "erase_cell",
        "check_drop_closure",
        "weight_model",
        "partial_sum_conditionals",
    ),
}


@pytest.mark.parametrize("suite", [verify.eom_suite, verify.transforms_suite])
@pytest.mark.parametrize("seed", [0, 5])
def test_each_derived_table_is_built_once_per_suite_run(suite, seed, monkeypatch):
    calls = Counter()
    kept = []

    def record(name, args, checks):
        kept.append(args)
        if name == "weight_model":
            # the checks with fixed cells off the grid build their own
            if checks & UNPLANNED[suite]:
                return
            a, n, r = args
            key = (a.kind, n, r)
        elif name == "check_drop_closure":
            a, n, r = args
            key = (id(a), n, r)
        elif name == "partial_sum_conditionals":
            d, sub_n = args
            key = (id(d), sub_n)
        else:
            key = id(args[0])
        calls[(name, key)] += 1

    spy(monkeypatch, BUILT_ONCE[suite], record)
    assert suite(seed, 4, 4).passed
    assert [key for key, n in calls.items() if n > 1] == []
    assert {name for name, _ in calls} == set(BUILT_ONCE[suite])


def test_an_eom_label_law_lives_for_one_grid_cell(monkeypatch):
    real = verify.label_distribution
    laws = []  # (cell, weak reference) of every label law built
    visited = []

    def build(d):
        cell = (d.n, d.r)
        if visited and visited[-1] != cell:
            assert [c for c, law in laws if law() is not None] == [], cell
        visited.append(cell)
        ld = real(d)
        laws.append((cell, weakref.ref(ld)))
        return ld

    monkeypatch.setattr(verify, "label_distribution", build)
    assert verify.eom_suite(0, 4, 4).passed
    assert len(set(visited)) == 12


def test_the_eom_walk_holds_one_label_law_at_a_time(monkeypatch):
    real = verify.label_distribution
    laws = []  # weak reference of every label law built

    def build(d):
        alive = [i for i, law in enumerate(laws) if law() is not None]
        assert len(alive) <= 1, len(laws)
        ld = real(d)
        laws.append(weakref.ref(ld))
        return ld

    monkeypatch.setattr(verify, "label_distribution", build)
    assert verify.eom_suite(0, 4, 4).passed
    # the 57 built-in models of the grid and the 20 random ones
    assert len(laws) == 57 + 20


def test_the_transforms_walk_holds_one_models_images_at_a_time(monkeypatch):
    images = []  # (model, weak reference) of every drop and erase image of the walk
    walk = []  # whether each spied call came from the walk, not an off-grid check
    spy(monkeypatch, ("drop_particle", "erase_cell"),
        lambda name, args, checks: walk.append(not checks & UNPLANNED[verify.transforms_suite]))

    def hold(spied):
        def build(d):
            image = spied(d)
            if walk.pop():
                alive = {id(m) for m, ref in images if ref() is not None and m is not d}
                assert len(alive) <= 1, len(images)
                images.append((d, weakref.ref(image)))
            return image

        return build

    for name in ("drop_particle", "erase_cell"):
        monkeypatch.setattr(verify, name, hold(getattr(verify, name)))
    assert verify.transforms_suite(0, 4, 4).passed
    assert len(images) == 2 * (57 + 20)


def test_the_theorem_suite_holds_one_process_at_a_time(monkeypatch):
    real = verify.build_process
    processes = []  # weak reference of every process built

    def build(*args):
        # the walk may still hold the last process while the next is built
        alive = [i for i, p in enumerate(processes[:-1]) if p() is not None]
        assert alive == [], len(processes)
        p = real(*args)
        processes.append(weakref.ref(p))
        return p

    monkeypatch.setattr(verify, "build_process", build)
    assert verify.theorem_suite(0, 3).passed
    assert len(processes) == 54


@pytest.mark.parametrize("max_horizon", [0, 2, 4])
def test_the_theorem_plan_is_the_sum_of_the_built_path_spaces(max_horizon, monkeypatch):
    charged = []
    planned = []
    real_plan = verify._theorem_plan

    def plan(*args):
        planned.append(real_plan(*args))
        return planned[-1]

    def record(name, args, checks):
        _, horizon, pi = args
        paths = sum(composition_count(horizon + 1, k) for k, p in enumerate(pi) if p)
        charged.append(paths * (horizon + 1))

    monkeypatch.setattr(verify, "_theorem_plan", plan)
    spy(monkeypatch, ("build_process",), record)
    assert verify.theorem_suite(0, max_horizon).passed
    assert planned == [sum(charged)]


@pytest.mark.parametrize("max_horizon, total", [(16, 12091518), (24, 96195762)])
def test_a_theorem_suite_over_the_budget_is_refused_before_it_builds(
    max_horizon, total, monkeypatch
):
    def record(name, args, checks):
        raise AssertionError(f"{name} called before the refusal")

    spy(monkeypatch, ("build_process", "random_weight_function"), record)
    with pytest.raises(BudgetExceededError) as refused:
        verify.theorem_suite(0, max_horizon)
    assert str(refused.value) == (
        f"theorem suite at horizon={max_horizon} needs at least {total} cells "
        "(budget 10000000)"
    )


def test_the_theorem_plan_accepts_horizon_15():
    assert verify._theorem_plan(15) == 8794980


def cells(n, r):
    return composition_count(n, r) * n


#: the budget charge of each spied builder, from its arguments
CHARGES = {
    "weight_model": lambda a, n, r: cells(n, r),
    "random_eom": lambda rng, n, r: cells(n, r),
    "label_distribution": lambda d: d.n**d.r,
    "drop_particle": lambda d: cells(d.n, d.r - 1),
    "erase_cell": lambda d: cells(d.n - 1, d.r),
    "partial_sum_conditionals": lambda d, n: sum(cells(n, s) for s in range(d.r + 1)),
    "check_drop_closure": lambda a, n, r: cells(n, r - 1),
}

#: the checks whose builds the plan leaves out: the fixed cells off the
#: grid, and the label laws ``dropped-label-marginal`` builds and drops
UNPLANNED = {
    verify.eom_suite: {"iid_conditional_sufficiency"},
    verify.transforms_suite: {
        "drop_closure_counterexample",
        "drop_breaks_weight_model",
        "dropped_label_marginal",
        "product_form_detector_positive",
        "strict_containment",
    },
}


@pytest.mark.parametrize("suite", [verify.eom_suite, verify.transforms_suite])
def test_the_plan_is_the_sum_of_the_builders_charges(suite, monkeypatch):
    charged = []
    planned = []
    real_plan = verify._check_plan

    def plan(*args):
        planned.append(real_plan(*args))
        return planned[-1]

    def record(name, args, checks):
        if not checks & UNPLANNED[suite]:
            charged.append(CHARGES[name](*args))

    monkeypatch.setattr(verify, "_check_plan", plan)
    spy(monkeypatch, CHARGES, record)
    assert suite(0, 4, 4).passed
    assert planned == [sum(charged)]


@pytest.mark.parametrize(
    "suite, max_n, max_r",
    [(verify.eom_suite, 8, 8), (verify.eom_suite, 3, 14), (verify.transforms_suite, 10, 10)],
)
def test_a_suite_over_the_budget_is_refused_before_it_builds(suite, max_n, max_r, monkeypatch):
    def record(name, args, checks):
        raise AssertionError(f"{name} called before the refusal")

    spy(monkeypatch, ("weight_model", "random_eom"), record)
    with pytest.raises(BudgetExceededError) as refused:
        suite(0, max_n, max_r)
    name = suite.__name__.removesuffix("_suite")
    assert re.fullmatch(
        rf"{name} suite at max_n={max_n}, max_r={max_r} needs at least \d+ cells "
        r"\(budget 10000000\)",
        str(refused.value),
    )


def test_strict_containment_fails_when_every_image_is_product_form(monkeypatch):
    seen = []

    def accept(d):
        seen.append((d.n, d.r))
        return builtin_weight("be", d.r)

    monkeypatch.setattr(verify, "product_form_weights", accept)
    outcomes = {c.name: c for c in verify.transforms_suite().checks}
    strict = outcomes["strict-containment"]
    assert (strict.passed, strict.witness) == (
        False,
        "every searched transform image stayed product-form",
    )
    # the detector's be(3,2), then the images of three bases where product
    # form constrains: the drops at (4, 5) and (5, 5) and the erasures at
    # (5, 4) and (5, 5); the search ends only when none is rejected
    assert len(seen) == 1 + 12
    assert outcomes["product-form-detector-positive"].passed


def test_every_image_strict_containment_skips_is_product_form():
    # the search's bases at each (n, r) in 3..5 x 3..5; an image on m cells
    # with k particles is skipped unless its orbits outnumber its particles
    skipped = tested = 0
    for n, r in verify._grid(5, 5, min_n=3, min_r=3):
        adhoc = WeightFunction((1, 1, 5) + (1,) * (r - 2))
        for a in (builtin_weight("be", r), builtin_weight("pc:2", r), adhoc):
            d = weight_model(a, n, r)
            for image in (drop_particle(d), erase_cell(d)):
                if orbit_count(image.n, image.r) > image.r:
                    tested += 1
                    continue
                skipped += 1
                assert product_form_weights(image) is not None, (a.values, n, r)
    assert (skipped, tested) == (42, 12)


def test_the_small_suites_build_only_what_they_decide(monkeypatch):
    calls = Counter()
    spy(monkeypatch, ("product_form_weights", "label_distribution"),
        lambda name, args, checks: calls.update([name]))
    assert verify.transforms_suite(0, 2, 2).passed
    # the detector's be(3,2), then the three drop images at (4, 5)
    assert calls["product_form_weights"] == 4

    def no_view(table, *args):
        raise AssertionError("a Fraction view was read")

    calls.clear()
    monkeypatch.setattr(FractionTable, "__getitem__", no_view)
    monkeypatch.setattr(FractionTable, "get", no_view)
    assert verify.eom_suite(0, 2, 2).passed
    # the five built-in models at (2, 1) and at (2, 2), and the 20 random ones
    assert calls["label_distribution"] == 5 + 5 + 20
