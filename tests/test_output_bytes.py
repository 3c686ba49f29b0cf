"""Byte identity of the command line's standard output and of the process
queries.

Each command below prints a table document, a CSV of seeded draws or a
verification report.  The sha256 digests of those bytes are pinned, so any
change to how tables are stored, transformed or sampled that alters a single
output byte fails here.  A passing ``verify`` report names no witness, so the
process layer's query results are pinned as well, through one digest over
their canonical bytes.  A deliberate change of output must re-record them.
"""

import contextlib
import hashlib
import io
import itertools
import json

import pytest

from eomkit import process
from eomkit.cli import main
from eomkit.models import WeightFunction, builtin_weight

#: a rational weight table with a zero entry (a gap in its support)
WEIGHT_FILE = {"values": ["3/7", "0", "5/2", "1/9", "2", "4/3"]}
MODEL_SPEC = {"weight": "mb", "n": 4, "r": 5}
PROCESS_SPEC = {"weight": "pc:2", "horizon": 3, "terminal_law": ["1/6", "1/3", "0", "1/2"]}
#: specs with far more table entries than the draws pinned below (6,435
#: and 252 compositions, the second under the gapped weight, and 3,003
#: paths): their streams are walked cell by cell, where the two specs
#: above are drawn from the built table
WALK_SPECS = {
    "walk_model.json": {"weight": "mb", "n": 8, "r": 8},
    "walk_gapped.json": {"weight": WEIGHT_FILE, "n": 6, "r": 5},
    "walk_process.json": {"weight": "pc:2", "horizon": 5, "terminal_law": ["1/9"] * 9},
}

DIGESTS = {
    ("model", "--weight", "mb", "--n", "3", "--r", "4"):
        "8e4a2f4bfba32ec751defe394c0b0c5b9f123e3e1a8096791a2d68d4dc9e7e07",
    ("model", "--weight", "mb", "--n", "3", "--r", "4", "--labels"):
        "46db48ff232e82192f0984b6ca689af871bc10cfbcb5233528db22afe43bccbf",
    ("model", "--weight", "be", "--n", "4", "--r", "3"):
        "20079f3908f25d06be03347cde8f4075fea29e56dda5eb7192cc639da7aa959c",
    ("model", "--weight", "be", "--n", "3", "--r", "3", "--labels"):
        "595d9173b6cc7a445bfd48abf3d42ce4a3fd638cedd2f218cd5b42ebe4c6fce9",
    ("model", "--weight", "pc:2", "--n", "3", "--r", "5"):
        "b4267590befd60980004467ecab5284defa384e41bcb7a3e0bd3c0db06d979c1",
    ("model", "--weight", "pc:2", "--n", "3", "--r", "4", "--labels"):
        "ab78a69f3bebd8a5e197a936a23646579df4083eecb05a3fb3cfddbf92520ff5",
    ("model", "--weight", "@w.json", "--n", "3", "--r", "5"):
        "570f84492a881383c2ba16274d6fcd441fc48f2ba3f1a8205522ecdd3847467f",
    ("model", "--weight", "@w.json", "--n", "3", "--r", "4", "--labels"):
        "a19f7412745b5461d48945f4aa3835ea62bb9b900c9c0299c7f2cab813e2f369",
    ("model", "--weight", "@w.json", "--n", "3", "--r", "4", "--order-stats"):
        "05fde339ad27e2d469ac82884b8081d8f77e46192b0d571755c3184258acf443",
    ("model", "--weight", "pc:2", "--n", "3", "--r", "4", "--marginal", "2"):
        "da04ca3412f081659e94df84e708ebb0d29f7085f429ce5437cf4beda0b34170",
    ("enumerate", "--n", "3", "--r", "4"):
        "e11c90b7dac742e5db18745a8d66ccfcd254ed4513f53aa5accd77850f4531c3",
    ("enumerate", "--n", "3", "--r", "4", "--format", "csv"):
        "6f73729a92b2dc9c9000bdb1a2b10e7ac78b89294a802ad393603ffbd4236562",
    ("transform", "--op", "k1", "--weight", "mb", "--n", "4", "--r", "4"):
        "d731a9165ea719be698c82441357337c51ac2a37dafebff279d1a7fbed7058b1",
    ("transform", "--op", "k2", "--weight", "@w.json", "--n", "3", "--r", "5"):
        "8fe202d62e28c07b84f6e0ed28914cf936d356ace58860b7a64b71a3ea49bb06",
    ("transform", "--op", "k2", "--weight", "pc:2", "--n", "4", "--r", "4"):
        "0733ff2c66600a55086c13b5090aa4de9c326d776957d7f6a9de02309e62dcc8",
    ("transform", "--op", "cond:2,3", "--weight", "@w.json", "--n", "4", "--r", "5"):
        "32c7a3ee5bd825b8a7ab09efb0adac156c362b4dbb17822901de246945400847",
    ("sample", "--spec", "model.json", "--paths", "300", "--seed", "3"):
        "b550cb671aac482b17f73075e5ee11864d3080fb97f8fb219b25ae63354c8b84",
    ("sample", "--spec", "process.json", "--paths", "300", "--seed", "5"):
        "fd1eb8829966467a39633c56f1d2797397b48f5bbfbac2859a709919314301ea",
    ("sample", "--spec", "walk_model.json", "--paths", "20", "--seed", "3"):
        "b2f5924b742665bd2c9182ce7c7455be12cf8c434c3077744116a1dba3cf0aa6",
    ("sample", "--spec", "walk_gapped.json", "--paths", "9", "--seed", "3"):
        "c6a38137fcf8e7f89f16d017a62bb2d1a62fbabff6f6e85bec7e8c0f3421cce8",
    ("sample", "--spec", "walk_process.json", "--paths", "25", "--seed", "5"):
        "762e248dfbfa3eda0f89b561e90f08cf184ed5f6d18d300752ee5bf781797bd4",
    ("verify", "--suite", "classic", "--horizon", "2"):
        "d8e35f7330fad5bf5f1a9593abbe1039ff161bbfa4f631bed1a3907ae86a8185",
    ("verify", "--suite", "eom", "--max-n", "3", "--max-r", "3"):
        "5d506c6c9995b56dcdeca6ed072437cf1589cf87235679dd35e52e43c6247def",
    ("verify", "--suite", "transforms", "--max-n", "3", "--max-r", "3"):
        "2d3565964ede9785d32544a6d57973db6ff648623a5a52589fcb0d774677e7b7",
    ("verify", "--suite", "theorem", "--horizon", "2"):
        "e9694e56ea1e55c6a2ebf592a281d24a899731eea3bd7184083af59e48e9dd91",
    # a passing report names no witness, so these two read as the one
    # above: they pin that the suite still passes at these bounds
    ("verify", "--suite", "theorem", "--horizon", "3", "--seed", "3"):
        "e9694e56ea1e55c6a2ebf592a281d24a899731eea3bd7184083af59e48e9dd91",
    ("verify", "--suite", "theorem", "--horizon", "4"):
        "e9694e56ea1e55c6a2ebf592a281d24a899731eea3bd7184083af59e48e9dd91",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bytes")
    (path / "w.json").write_text(json.dumps(WEIGHT_FILE))
    (path / "model.json").write_text(json.dumps(MODEL_SPEC))
    (path / "process.json").write_text(json.dumps(PROCESS_SPEC))
    for name, spec in WALK_SPECS.items():
        (path / name).write_text(json.dumps(spec))
    return path


def stdout_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", list(DIGESTS), ids=" ".join)
def test_stdout_bytes_are_pinned(workdir, command):
    argv = [
        f"@{workdir / a[1:]}" if a.startswith("@")
        else str(workdir / a) if a.endswith(".json") else a
        for a in command
    ]
    assert stdout_digest(argv) == DIGESTS[command]


def test_parses_in_one_process_share_no_defaults():
    # main parses with one parser for the whole process: a flag given to one
    # call must not carry over to the next
    labels = ("model", "--weight", "mb", "--n", "3", "--r", "4", "--labels")
    plain = labels[:-1]
    for command in (labels, plain, labels):
        assert stdout_digest(list(command)) == DIGESTS[command]


#: terminal law on 0..5 with a zero at count 1, which the WEIGHT_FILE
#: weight cannot reach (a(1) = 0); fd holds at most M + 1 = 4 arrivals
TERMINAL_LAW = ["1/6", "0", "1/4", "1/3", "1/8", "1/8"]
FD_TERMINAL_LAW = ["1/6", "0", "1/4", "1/3", "1/4"]
QUERY_DIGEST = "33304166c1fbf7ba29de602f0a1895d6af1618d142ed6a0477c0c8d3e21089c6"


def query_bytes(p) -> bytes:
    """Canonical bytes of the count laws, the count conditionals, the gap
    and time laws of every arrival event, and the transition matrix."""
    horizon, cap = p.horizon, p.count_cap
    laws = [process.count_distribution(p, t) for t in range(horizon + 1)]
    data = [[[str(law[k]) for k in sorted(law)] for law in laws]]
    data.append([
        [t, k, [[*x, str(q)] for x, q in sorted(
            process.conditional_jumps_given_count(p, t, k).table.items())]]
        for t, law in enumerate(laws) for k, mass in law.items() if mass
    ])
    events = []
    for chi in range(1, cap + 1):
        for times in itertools.combinations_with_replacement(range(horizon + 1), chi):
            gaps = (times[0],) + tuple(b - a for a, b in zip(times, times[1:]))
            events.append([
                list(times),
                str(process.arrival_event_probability(p, times)),
                str(process.interarrival_event_probability(p, gaps)),
            ])
    data.append(events)
    data.append([
        [t, k, i, str(process.transition_probability(p, t, k, i))]
        for t in range(horizon)
        for k, mass in laws[t].items() if mass
        for i in range(cap - k + 1)
    ])
    return json.dumps(data, separators=(",", ":")).encode()


def test_process_query_bytes_are_pinned():
    horizon = 3
    processes = [
        process.build_process(builtin_weight("mb", 5), horizon, TERMINAL_LAW),
        process.build_process(builtin_weight("fd", 4), horizon, FD_TERMINAL_LAW),
        process.build_process(builtin_weight("pc:2", 5), horizon, TERMINAL_LAW),
        process.build_process(
            WeightFunction(tuple(WEIGHT_FILE["values"])), horizon, TERMINAL_LAW
        ),
    ]
    digest = hashlib.sha256()
    for p in processes:
        digest.update(query_bytes(p))
    assert digest.hexdigest() == QUERY_DIGEST
