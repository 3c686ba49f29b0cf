"""Failure witnesses of the verification suites under injected faults.

With default arguments every check passes, so a report pins only check names
and order.  Each case below swaps one or two names that ``eomkit.verify``
imports for a version that is wrong on a few models, processes or (t, k)
deep in the sweep, and pins which checks then fail and at which witness.
The witnesses were recorded before the suites became table-driven, so they
also pin the order in which each sweep visits its cases.  So do the digests
of the arguments that one imported name receives over a whole clean run.
"""

import hashlib
from fractions import Fraction

import pytest

from eomkit import verify
from eomkit.models import OccupancyDistribution

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
        out = real(d)
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
            ("structure-recursion", "random-0/M=3/uniform"),
        ],
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
        monkeypatch.setattr(verify, name, make(getattr(verify, name)))
    report = suite()
    assert [c.name for c in report.checks] == clean
    assert [(c.name, c.witness) for c in report.checks if not c.passed] == expected


def table_key(d: OccupancyDistribution):
    return d.n, d.r, sorted(d.table.items())


#: (calls, first 16 hex digits of the sha256 of the argument reprs in call
#: order) for one name that each suite calls once per case it visits,
#: recorded before the suites became table-driven
SWEEP_DIGESTS = {
    "eom is_exchangeable": (
        lambda: verify.eom_suite(), "is_exchangeable", table_key, 297, "508e93f8e446b587"
    ),
    "transforms is_exchangeable": (
        lambda: verify.transforms_suite(), "is_exchangeable", table_key, 651, "af1bebb2906740b1"
    ),
    "theorem check_structure_recursion": (
        lambda: verify.theorem_suite(0, 3),
        "check_structure_recursion",
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
