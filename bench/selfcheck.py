"""Tracer self-check: exact call counts on a fixed suite, and self time on a
synthetic span tree.

    python3 bench/selfcheck.py

A traced ``theorem_suite(seed=0, max_horizon=4)`` must report 20,349
``models.normalization_constant`` calls over 282 distinct arguments and
30,927 ``process.count_distribution`` calls over 378 distinct (process, t)
arguments.  Prints one line per figure and exits 1 on any mismatch.
"""

import sys
from pathlib import Path

import tracing

EXPECTED = {
    "models.normalization_constant": (20349, 282),
    "process.count_distribution": (30927, 378),
}


#: self times of the synthetic tree: 10 - 5 for the root (its children cover
#: [1, 6]), 3 - 1 and 3 for the children, 1 for the grandchild
SYNTHETIC_SELF_TIMES = [5.0, 2.0, 1.0, 3.0]


def synthetic_self_times() -> list[float]:
    """Self times of a root [0, 10] with overlapping children [1, 4] and
    [3, 6], the first of which has a child [2, 3]."""
    spans = [
        (0, 0.0, 10.0, -1, 0, 0, None),
        (0, 1.0, 4.0, 0, 0, 0, None),
        (0, 2.0, 3.0, 1, 0, 0, None),
        (0, 3.0, 6.0, 0, 0, 0, None),
    ]
    return tracing.self_times(spans)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from eomkit import verify

    ok = synthetic_self_times() == SYNTHETIC_SELF_TIMES
    print(f"synthetic self times {'ok' if ok else 'WRONG'}")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = verify.theorem_suite(seed=0, max_horizon=4)
    finally:
        tracer.uninstall()
    stats = tracing.summarize(tracer.spans, per_request_scope=False)
    ok &= report.passed
    for name, (calls, distinct) in EXPECTED.items():
        got_calls = stats[name]["calls"]
        got_distinct = stats[name]["distinct"]
        match = (got_calls, got_distinct) == (calls, distinct)
        ok &= match
        print(f"{name}: {got_calls} calls over {got_distinct} distinct arguments "
              f"(expected {calls} over {distinct}) {'ok' if match else 'MISMATCH'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
