"""Failure witnesses of the verification suites under injected faults.

With default arguments every check passes, so a report pins only check names
and order.  Each case below swaps one or two names that ``eomkit.verify``
imports (or a method of one) for a version that is wrong on a few models,
processes or (t, k) deep in the sweep, and pins which checks then fail and
at which witness.  Builders store their tables unchecked (``from_masses``),
so a builder that loses mass reaches the suites, and the sum checks
report it.
The witnesses were recorded before the suites became table-driven, so they
also pin the order in which each sweep visits its cases.  So do the digests
of the arguments that one imported name receives over a whole clean run.
The conditioning case and the two digests at seed 1 and of
``check_drop_closure`` were recorded before the two conditioning checks
shared one walk and the suites one weight per kind.  The ``theorem`` digests
of ``build_process`` and ``check_characterizations``, and the case where no
process admits a perturbation, were recorded before that suite walked its
processes one at a time.  Since ``eom`` and ``transforms`` walk their
models one at a time, the calls of different checks interleave, so the
``transforms`` ``is_exchangeable`` calls are digested per check
(``CHECK_DIGESTS``): each digest is the part of the check-by-check run's
sequence that belonged to that check.  The conditioning case faults
``partial_sum_conditionals``, which builds a model's conditioned tables of
one prefix length at once, at the same tables as before.
"""

import functools
import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from eomkit import combinat, verify
from eomkit.models import FractionTable, LabelDistribution, OccupancyDistribution
from eomkit.models import weight_model as real_weight_model
from eomkit.process import FiniteProcess
from eomkit.report import CheckOutcome

F = Fraction


def shift_orbit_mass(d: OccupancyDistribution) -> OccupancyDistribution:
    """Move mass from the first orbit to the last: still exchangeable, but no
    longer the model it came from."""
    orbits = sorted({tuple(sorted(x)) for x in d.table})
    lo = [x for x in d.table if tuple(sorted(x)) == orbits[0]]
    hi = [x for x in d.table if tuple(sorted(x)) == orbits[-1]]
    eps = min(d.table.values()) / 2
    table = dict(d.table)
    for x in lo:
        table[x] -= eps / len(lo)
    for x in hi:
        table[x] += eps / len(hi)
    return OccupancyDistribution(d.n, d.r, table)


def skewed(d: OccupancyDistribution) -> bool:
    """A few three-cell models; no built-in model at (3, 2) is among them."""
    if (d.n, d.r) == (3, 2) and d.table.get((1, 1, 0), 0) < F(1, 8):
        return True
    return d.n == 3 and max(p.denominator for p in d.table.values()) > 1000


def exchangeable_fault(real):
    return lambda d: False if skewed(d) else real(d)


def order_statistics_fault(real):
    def fake(d):
        out = dict(real(d))  # the real table is read-only
        if skewed(d):
            key = min(out)
            out[key] += 1
        return out

    return fake


def weight_model_fault(kind, n, r):
    def make(real):
        def fake(a, n_, r_):
            d = real(a, n_, r_)
            return shift_orbit_mass(d) if (a.kind, n_, r_) == (kind, n, r) else d

        return fake

    return make


def lose_orbit(d: OccupancyDistribution) -> OccupancyDistribution:
    """Forget the orbit of the largest sorted key: still exchangeable, but
    the masses no longer sum to the denominator."""
    top = max(tuple(sorted(x)) for x in d.table.masses)
    kept = {x: m for x, m in d.table.masses.items() if tuple(sorted(x)) != top}
    return OccupancyDistribution.from_masses(d.n, d.r, d.table.denominator, kept)


def weight_model_loses(kind, n, r):
    def make(real):
        def fake(a, n_, r_):
            d = real(a, n_, r_)
            return lose_orbit(d) if (a.kind, n_, r_) == (kind, n, r) else d

        return fake

    return make


def erase_cell_loses(real):
    def fake(d):
        out = real(d)
        return lose_orbit(out) if (d.n, d.r) == (4, 3) else out

    return fake


def label_marginal_overwrites(real):
    """On three-cell laws, keep the last mass of each key instead of the sum."""

    def fake(ld, index_set):
        if ld.n != 3:
            return real(ld, index_set)
        idx = sorted(set(index_set))
        out = {tuple(y[i - 1] for i in idx): m for y, m in ld.table.masses.items()}
        return LabelDistribution.from_masses(ld.n, len(idx), ld.table.denominator, out)

    return fake


def occupancy_without_multinomial(real):
    """Give each composition the mass of one label vector, not of its orbit."""

    def fake(ld):
        masses = {
            combinat.phi(y, ld.n): m
            for y, m in ld.table.masses.items()
            if list(y) == sorted(y)
        }
        return OccupancyDistribution.from_masses(ld.n, ld.r, ld.table.denominator, masses)

    return fake


def tilt(d: OccupancyDistribution) -> OccupancyDistribution:
    """Move half the mass of the first composition onto the last one of its
    orbit: the masses still sum to the denominator, but the law is no longer
    exchangeable."""
    masses = {x: 2 * m for x, m in d.table.masses.items()}
    first = min(masses)
    last = max(x for x in masses if sorted(x) == sorted(first))
    masses[first] //= 2
    masses[last] += masses[first]
    return OccupancyDistribution.from_masses(d.n, d.r, 2 * d.table.denominator, masses)


def conditioning_fault(real):
    """Wrong but exchangeable at cond(2,2) of the models at (3, 2); not
    exchangeable at cond(3,3) of the models at (4, 4)."""

    def fake(d, sub_n):
        out = real(d, sub_n)
        if (d.n, d.r, sub_n) == (3, 2, 2):
            out[2] = shift_orbit_mass(out[2])
        if (d.n, d.r, sub_n) == (4, 4, 3):
            out[3] = tilt(out[3])
        return out

    return fake


def drop_closure_rejects(real):
    def fake(a, n, r):
        if (a.kind, n, r) == ("pc:3", 4, 3):
            return CheckOutcome("drop-closure", "(0, 0, 1, 1)")
        return real(a, n, r)

    return fake


def drop_closure_accepts(real):
    return lambda a, n, r: CheckOutcome("drop-closure")


def drop_keeps_adhoc_product_form(real):
    adhoc = real_weight_model(verify.ADHOC_WEIGHT, 2, 3)

    def fake(d):
        if d == adhoc:
            return real_weight_model(verify.ADHOC_WEIGHT, 2, 2)
        return real(d)

    return fake


def structure_reads_previous_time(real):
    return lambda p, t, k: real(p, max(t - 1, 0), k)


def marginal_overwrites(real):
    """For pc:2 processes, keep the last path's mass of each prefix."""

    def fake(self, t):
        if self.weight.kind != "pc:2":
            return real(self, t)
        acc = {path[: t + 1]: m for path, m in self.joint.masses.items()}
        return FractionTable.lowest(self.joint.denominator, acc)

    return fake


def perturbation_onto_donor(real):
    """Move the mass onto the donor itself: the process is unchanged."""

    def fake(p):
        if real(p) is None:
            return None
        return FiniteProcess.from_masses(
            p.weight, p.horizon, p.joint.denominator, dict(p.joint.masses)
        )

    return fake


def uosp_fault(real):
    bad = {("strict", 4, 2, (1, 3)), ("leq1", 2, 3, (0, 1, 1)), ("leq2", 3, 2, (1, 2))}

    def fake(kind, t, k, times):
        value = real(kind, t, k, times)
        return value + F(1, 1000) if (kind, t, k, tuple(times)) in bad else value

    return fake


def build_process_fault(real):
    def fake(a, horizon, pi):
        p = real(a, horizon, pi)
        if a.kind is None and horizon == 3 and pi[0] == pi[1]:
            # random-0/M=3/uniform .. random-4/M=3/uniform; the first is reported
            return verify.perturbed_process(p)
        return p

    return fake


CASES = {
    "eom, skewed models": (
        lambda: verify.eom_suite(),
        [("is_exchangeable", exchangeable_fault),
         ("order_statistics_distribution", order_statistics_fault)],
        [
            ("weight-model-exchangeable", "random-weight-2(3,2)"),
            ("order-statistics-match", "random-eom-17(3,2)"),
        ],
    ),
    "eom, be(3,3) moved": (
        lambda: verify.eom_suite(),
        [("weight_model", weight_model_fault("be", 3, 3))],
        [
            ("label-law-closed-forms", "be(3,3) at (1, 1, 1)"),
            ("uniform-transfer", "no uniform instance at (3,3)"),
            ("weight-label-density", "be(3,3) at (1, 1, 1)"),
            ("iid-conditional-sufficiency", "be(3,3)"),
        ],
    ),
    "transforms, skewed models": (
        lambda: verify.transforms_suite(),
        [("is_exchangeable", exchangeable_fault)],
        [
            ("drop-keeps-exchangeable", "random-eom-18(3,3)"),
            ("erase-keeps-exchangeable", "pc:3(4,3)"),
            ("conditioning-keeps-exchangeable", "random-eom-11(4,4) cond(3,2)"),
        ],
    ),
    "transforms, pc:2(3,2) moved": (
        lambda: verify.transforms_suite(),
        [("weight_model", weight_model_fault("pc:2", 3, 2))],
        [
            ("conditioning-preserves-weight-model", "pc:2(3,2) cond(2,2)"),
            ("drop-matches-weight-model", "pc:2(3,3)"),
        ],
    ),
    "theorem, five perturbed processes": (
        lambda: verify.theorem_suite(0, 3),
        [("build_process", build_process_fault)],
        [
            ("jump-conditionals-product-form", "random-0/M=3/uniform: (t,k)=(2, 1)"),
            ("joint-factorization", "random-0/M=3/uniform: prefix (2, (0, 1, 0))"),
            ("markov-transitions", "random-0/M=3/uniform (t,k,i)=(1,0,1)"),
            ("structure-recursion", "random-0/M=3/uniform (t,k)=(2,0)"),
        ],
    ),
    "eom, be(3,3) loses an orbit": (
        lambda: verify.eom_suite(),
        [("weight_model", weight_model_loses("be", 3, 3))],
        [
            ("model-normalization", "be(3,3)"),
            ("uniform-single-marginals", "be(3,3) coordinate 1 label 1"),
            ("label-law-closed-forms", "be(3,3) at (1, 2, 3)"),
            ("uniform-transfer", "no uniform instance at (3,3)"),
            ("weight-label-density", "be(3,3) at (1, 2, 3)"),
            ("iid-conditional-sufficiency", "be(3,3)"),
        ],
    ),
    "transforms, one conditioning fault fails both conditioning checks": (
        lambda: verify.transforms_suite(),
        [("partial_sum_conditionals", conditioning_fault)],
        [
            ("conditioning-keeps-exchangeable", "mb(4,4) cond(3,3)"),
            ("conditioning-preserves-weight-model", "mb(3,2) cond(2,2)"),
        ],
    ),
    "transforms, erase loses an orbit at (4,3)": (
        lambda: verify.transforms_suite(),
        [("erase_cell", erase_cell_loses)],
        [("mass-conservation", "mb(4,3)")],
    ),
    "eom, three-cell marginals overwrite": (
        lambda: verify.eom_suite(),
        [("label_marginal", label_marginal_overwrites)],
        [("uniform-single-marginals", "mb(3,2) coordinate 1 label 1")],
    ),
    "transforms, three-cell marginals overwrite": (
        lambda: verify.transforms_suite(),
        [("label_marginal", label_marginal_overwrites)],
        [("dropped-label-marginal", "mb(3,2)")],
    ),
    "eom, occupancy view without multinomials": (
        lambda: verify.eom_suite(),
        [("occupancy_from_labels", occupancy_without_multinomial)],
        [("label-occupancy-roundtrip", "mb(2,2)")],
    ),
    "transforms, drop closure rejects pc:3(4,3)": (
        lambda: verify.transforms_suite(),
        [("check_drop_closure", drop_closure_rejects)],
        [("drop-closure-builtins", "pc:3(4,3) witness (0, 0, 1, 1)")],
    ),
    "transforms, drop closure accepts everything": (
        lambda: verify.transforms_suite(),
        [("check_drop_closure", drop_closure_accepts)],
        [
            (
                "drop-closure-counterexample",
                "ad-hoc weight (1,1,5,1) unexpectedly passes at n=2, r=3",
            )
        ],
    ),
    "transforms, drop keeps the ad-hoc model product-form": (
        lambda: verify.transforms_suite(),
        [("drop_particle", drop_keeps_adhoc_product_form)],
        [
            (
                "drop-breaks-weight-model",
                "ad-hoc weight (1,1,5,1) preserved by drop at n=2, r=3",
            )
        ],
    ),
    "transforms, detector recovers nothing": (
        lambda: verify.transforms_suite(),
        [("product_form_weights", lambda real: lambda d: None)],
        [("product-form-detector-positive", "detector missed the uniform model at (3,2)")],
    ),
    "theorem, structure function one time late": (
        lambda: verify.theorem_suite(0, 3),
        [("structure_function", structure_reads_previous_time)],
        [("zero-count-identity", "mb/M=2/uniform t=1")],
    ),
    "theorem, pc:2 marginals overwrite": (
        lambda: verify.theorem_suite(0, 3),
        [("FiniteProcess.marginal", marginal_overwrites)],
        [
            ("markov-transitions", "pc:2/M=2/uniform row (t,k)=(0,0) sums to 28/3"),
            ("structure-recursion", "pc:2/M=2/uniform (t,k)=(1,0)"),
            ("marginal-consistency", "pc:2/M=2/uniform t=1"),
        ],
    ),
    "theorem, perturbation onto the donor": (
        lambda: verify.theorem_suite(0, 3),
        [("perturbed_process", perturbation_onto_donor)],
        [("mutation-detected", "mb/M=2/uniform perturbation went undetected")],
    ),
    "theorem, no process admits a perturbation": (
        lambda: verify.theorem_suite(0, 3),
        [("perturbed_process", lambda real: lambda p: None)],
        [("mutation-detected", "no process admitted a perturbation")],
    ),
    "classic, three wrong closed-form values": (
        lambda: verify.classic_suite(4),
        [("classic_uosp_value", uosp_fault)],
        [
            ("strict-unit-jump-recovery", "M=3 (t,k)=(3,2) at (1, 0, 1, 0)"),
            ("multinomial-recovery", "M=2 (t,k)=(2,3) at (1, 2, 0)"),
            ("flat-count-recovery", "M=3 (t,k)=(3,2) at (0, 1, 1, 0)"),
        ],
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_injected_fault_is_reported_at_its_witness(case, monkeypatch):
    suite, patches, expected = CASES[case]
    clean = [c.name for c in suite().checks]
    for name, make in patches:
        *path, attr = name.split(".")
        owner = functools.reduce(getattr, path, verify)
        monkeypatch.setattr(owner, attr, make(getattr(owner, attr)))
    report = suite()
    assert [c.name for c in report.checks] == clean
    assert [(c.name, c.witness) for c in report.checks if not c.passed] == expected


def table_key(d: OccupancyDistribution):
    return d.n, d.r, sorted(d.table.items())


#: (calls, first 16 hex digits of the sha256 of the argument reprs in call
#: order) for one name that each suite calls once per case it visits,
#: recorded before the suites became table-driven (see the module docstring)
SWEEP_DIGESTS = {
    "eom is_exchangeable": (
        lambda: verify.eom_suite(), "is_exchangeable", table_key, 297, "508e93f8e446b587"
    ),
    # the weight objects' x_max is not part of the key: only the kind is
    "transforms check_drop_closure": (
        lambda: verify.transforms_suite(),
        "check_drop_closure",
        lambda a, n, r: (a.kind, n, r),
        58,
        "c053e2706389f655",
    ),
    "theorem build_process": (
        lambda: verify.theorem_suite(0, 3),
        "build_process",
        lambda a, horizon, pi: (a.values, horizon, pi),
        54,
        "5a8a29e373214b9b",
    ),
    "theorem check_characterizations": (
        lambda: verify.theorem_suite(0, 3),
        "check_characterizations",
        lambda p: sorted(p.joint.items()),
        54,
        "301f35cf5f2cefb8",
    ),
    "theorem _structure_mismatch": (
        lambda: verify.theorem_suite(0, 3),
        "_structure_mismatch",
        lambda p: sorted(p.joint.items()),
        54,
        "301f35cf5f2cefb8",
    ),
    "classic classic_uosp_value": (
        lambda: verify.classic_suite(4),
        "classic_uosp_value",
        lambda *args: args,
        1014,
        "7f77f913c433f678",
    ),
}


@pytest.mark.parametrize("case", list(SWEEP_DIGESTS))
def test_sweep_visits_the_same_cases_in_the_same_order(case, monkeypatch):
    suite, name, key, calls, digest = SWEEP_DIGESTS[case]
    real = getattr(verify, name)
    seen = hashlib.sha256()
    count = 0

    def spy(*args):
        nonlocal count
        count += 1
        seen.update(repr(key(*args)).encode())
        return real(*args)

    monkeypatch.setattr(verify, name, spy)
    assert suite().passed
    assert (count, seen.hexdigest()[:16]) == (calls, digest)


#: per check, the (calls, digest) of the calls one name receives while
#: ``_first`` runs that check, as in ``SWEEP_DIGESTS``; recorded when the
#: suite ran check by check, by splitting its sequence of calls per check
CHECK_DIGESTS = {
    "transforms is_exchangeable": (
        lambda: verify.transforms_suite(),
        "is_exchangeable",
        table_key,
        {
            "drop-keeps-exchangeable": (77, "04f8de39c9d03a21"),
            "erase-keeps-exchangeable": (77, "675221f99352cbcf"),
            "conditioning-keeps-exchangeable": (497, "af949a2917a5f0d1"),
        },
    ),
    "transforms is_exchangeable at seed 1, (3, 4)": (
        lambda: verify.transforms_suite(1, 3, 4),
        "is_exchangeable",
        table_key,
        {
            "drop-keeps-exchangeable": (57, "9d2801d39d6e3ce5"),
            "erase-keeps-exchangeable": (57, "b8dcc6f4b1e858a9"),
            "conditioning-keeps-exchangeable": (279, "83a43c39620ac477"),
        },
    ),
}


@pytest.mark.parametrize("case", list(CHECK_DIGESTS))
def test_each_check_visits_the_same_cases_in_the_same_order(case, monkeypatch):
    suite, name, key, expected = CHECK_DIGESTS[case]
    real, real_first = getattr(verify, name), verify._first
    running = []  # the check that ``_first`` runs; a call outside one fails
    counts, seen = Counter(), {}

    def first(found, check, body, *args):
        running.append(check)
        try:
            real_first(found, check, body, *args)
        finally:
            running.pop()

    def spy(*args):
        check = running[-1]
        counts[check] += 1
        seen.setdefault(check, hashlib.sha256()).update(repr(key(*args)).encode())
        return real(*args)

    monkeypatch.setattr(verify, "_first", first)
    monkeypatch.setattr(verify, name, spy)
    assert suite().passed
    assert {c: (counts[c], h.hexdigest()[:16]) for c, h in seen.items()} == expected


def test_check_outcome_passes_exactly_without_a_witness():
    assert CheckOutcome("x", "w").passed is False
    assert CheckOutcome("x").passed is True
    assert CheckOutcome("x", "w").to_doc() == {"name": "x", "passed": False, "witness": "w"}
    with pytest.raises(TypeError):
        CheckOutcome("x", False, "w")
