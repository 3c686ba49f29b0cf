"""Acceptance criteria, one test per criterion.

Every check is exact (tolerance zero) except the seeded sampling frequencies,
which use the stated four-standard-error band.  Each test prints one
PASS/FAIL line; the underlying sweeps live in eomkit.verify and are shared
with the command-line ``verify`` suites.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from eomkit import combinat
from eomkit.models import builtin_weight, sample, weight_model
from eomkit.transforms import erase_cell, product_form_weights
from eomkit.verify import (
    classic_suite,
    eom_suite,
    theorem_suite,
    transforms_suite,
)

F = Fraction


@pytest.fixture(scope="module")
def eom_report():
    return eom_suite(seed=0, max_n=4, max_r=4)


@pytest.fixture(scope="module")
def transforms_report():
    return transforms_suite(seed=0, max_n=4, max_r=4)


@pytest.fixture(scope="module")
def theorem_report():
    return theorem_suite(seed=0, max_horizon=4)


@pytest.fixture(scope="module")
def classic_report():
    return classic_suite(max_horizon=4)


def _finish(num: int, name: str, failures: list[str]):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    if failures:
        pytest.fail(f"criterion {num} ({name}): " + "; ".join(failures))


def _require(report, failures: list[str], *names: str):
    by_name = {c.name: c for c in report.checks}
    for name in names:
        check = by_name.get(name)
        if check is None:
            failures.append(f"check {name} missing from suite {report.suite}")
        elif not check.passed:
            failures.append(f"{name} failed ({check.witness})")


def test_criterion_01_combinatorial_core():
    failures = []
    checks = 0
    for n in range(1, 6):
        for r in range(7):
            space = combinat.enumerate_compositions(n, r)
            if len(space) != math.comb(n + r - 1, n - 1):
                failures.append(f"size mismatch at ({n},{r})")
            for x in space:
                checks += 1
                if combinat.phi(combinat.psi(x), n) != x:
                    failures.append(f"round trip failed at {x}")
            if sum(combinat.multinomial(r, x) for x in space) != n**r:
                failures.append(f"fiber sizes do not sum to {n}**{r}")
            fibers = {x: 0 for x in space}
            for y in combinat.enumerate_labels(r, n):
                checks += 1
                fibers[combinat.tilde_phi(y, n)] += 1
            bad = [x for x in space if fibers[x] != combinat.multinomial(r, x)]
            if bad:
                failures.append(f"fiber size wrong at ({n},{r}): {bad[0]}")
    if checks < 10**4:
        failures.append(f"only {checks} checks executed")
    _finish(1, "combinatorial-core", failures)


def test_criterion_02_uniform_marginals(eom_report):
    failures = []
    _require(eom_report, failures, "model-normalization", "uniform-single-marginals")
    _finish(2, "uniform-marginals", failures)


def test_criterion_03_label_law_closed_forms(eom_report):
    failures = []
    _require(eom_report, failures, "label-law-closed-forms")
    _finish(3, "label-law-closed-forms", failures)


def test_criterion_04_order_statistics(eom_report):
    failures = []
    _require(
        eom_report,
        failures,
        "order-statistics-match",
        "uniform-transfer",
        "label-occupancy-roundtrip",
    )
    _finish(4, "order-statistics", failures)


def test_criterion_05_sufficiency(eom_report):
    failures = []
    _require(eom_report, failures, "iid-conditional-sufficiency")
    _finish(5, "iid-conditional-sufficiency", failures)


def test_criterion_06_process_characterizations(theorem_report):
    failures = []
    from eomkit.verify import _suite_processes

    if len(list(_suite_processes(0, 4))) < 8:
        failures.append("fewer than 8 (weight, horizon, terminal-law) triples")
    _require(
        theorem_report,
        failures,
        "jump-conditionals-product-form",
        "joint-factorization",
        "interarrival-product-formula",
        "arrival-product-formula",
        "mutation-detected",
    )
    _finish(6, "process-characterizations", failures)


def test_criterion_07_classic_recovery(classic_report):
    failures = []
    _require(
        classic_report,
        failures,
        "strict-unit-jump-recovery",
        "multinomial-recovery",
        "flat-count-recovery",
    )
    _finish(7, "classic-recovery", failures)


def test_criterion_08_transform_closures(transforms_report, theorem_report):
    failures = []
    _require(
        transforms_report,
        failures,
        "drop-keeps-exchangeable",
        "erase-keeps-exchangeable",
        "conditioning-keeps-exchangeable",
        "conditioning-preserves-weight-model",
        "drop-closure-builtins",
        "drop-closure-counterexample",
        "drop-matches-weight-model",
        "dropped-label-marginal",
        "mass-conservation",
    )
    _require(
        theorem_report,
        failures,
        "markov-transitions",
        "structure-recursion",
        "zero-count-identity",
        "marginal-consistency",
    )
    _finish(8, "transform-closures", failures)


def test_criterion_09_strict_containment(transforms_report):
    failures = []
    _require(
        transforms_report,
        failures,
        "product-form-detector-positive",
        "strict-containment",
    )
    # concrete instance with an independent certificate: for any product-form
    # table, {2,2,0,0} + {1,1,1,1} = 2 * {2,1,1,0} as count multisets forces
    # P(2,2,0,0) * P(1,1,1,1) == P(2,1,1,0)**2
    image = erase_cell(weight_model(builtin_weight("be", 4), 5, 4))
    if product_form_weights(image) is not None:
        failures.append("detector accepted the erased uniform model")
    p_a = image.probability((2, 2, 0, 0))
    p_b = image.probability((1, 1, 1, 1))
    p_c = image.probability((2, 1, 1, 0))
    if p_a * p_b == p_c**2:
        failures.append("independent product-form certificate did not discriminate")
    _finish(9, "strict-containment", failures)


def test_criterion_10_sampling(tmp_path):
    failures = []
    be = weight_model(builtin_weight("be", 2), 2, 2)
    draws = 30000
    rng = random.Random(7)
    counts = {x: 0 for x in be.table}
    for _ in range(draws):
        counts[sample(be, rng)] += 1
    p = 1 / 3
    band = 4 * math.sqrt(p * (1 - p) / draws)
    for x, c in counts.items():
        freq = c / draws
        if abs(freq - p) > band:
            failures.append(f"frequency {freq:.4f} at {x} outside 4 standard errors")
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({"weight": "be", "n": 2, "r": 2}))
    cmd = [
        sys.executable, "-m", "eomkit",
        "sample", "--spec", str(spec), "--paths", str(draws), "--seed", "7",
    ]
    # the child process imports eomkit from this checkout's src
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }
    first = subprocess.run(cmd, capture_output=True, timeout=300, env=env)
    second = subprocess.run(cmd, capture_output=True, timeout=300, env=env)
    if first.returncode != 0 or second.returncode != 0:
        failures.append(f"sampler exited nonzero: {first.stderr!r}")
    elif first.stdout != second.stdout:
        failures.append("sampler CSV not byte-identical across runs")
    elif len(first.stdout.splitlines()) != draws + 1:
        failures.append("sampler CSV row count wrong")
    _finish(10, "sampling", failures)
