"""The ``eom`` and ``transforms`` suites build each derived table once.

A spy on the names ``eomkit.verify`` imports counts the calls per distinct
input over one whole suite run.  Tables count as the same input when their
contents are equal, weights when their values and kind are.  The one build
allowed to repeat an input is the label law of the model that the
round-trip check rebuilds from a label law: building it afresh is that
check.
"""

from collections import Counter

import pytest

from eomkit import verify
from eomkit.models import ExactTable, builtin_weight

SHARED = ("weight_model", "label_distribution", "drop_particle", "erase_cell", "check_drop_closure")


def input_key(arg):
    if isinstance(arg, ExactTable):
        return type(arg).__name__, arg.n, arg.r, tuple(sorted(arg.table.masses.items()))
    return repr(arg)


@pytest.mark.parametrize("suite", [verify.eom_suite, verify.transforms_suite])
@pytest.mark.parametrize("seed", [0, 5])
def test_each_derived_table_is_built_once_per_suite_run(suite, seed, monkeypatch):
    calls = Counter()
    rebuilt = []  # models made by occupancy_from_labels, kept alive for `is`

    def spy(name, real):
        def build(*args):
            if not (name == "label_distribution" and any(args[0] is d for d in rebuilt)):
                calls[(name, tuple(map(input_key, args)))] += 1
            return real(*args)

        return build

    for name in SHARED:
        monkeypatch.setattr(verify, name, spy(name, getattr(verify, name)))
    real_back = verify.occupancy_from_labels

    def back(ld):
        rebuilt.append(real_back(ld))
        return rebuilt[-1]

    monkeypatch.setattr(verify, "occupancy_from_labels", back)
    assert suite(seed, 4, 4).passed
    assert [key for key, n in calls.items() if n > 1] == []
    built = {name for name, _ in calls}
    assert built == (set(SHARED) if suite is verify.transforms_suite else set(SHARED[:2]))


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
    # the detector's be(3,2), then a drop and an erase image of three bases
    # at each (n, r) in 3..5 x 3..5: the search ends only when none is rejected
    assert len(seen) == 1 + 9 * 3 * 2
    assert outcomes["product-form-detector-positive"].passed
