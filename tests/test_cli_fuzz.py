"""Grammar-driven fuzzing of the command line.

Argument lists and the JSON files they name are drawn from a small grammar
that mixes valid values with malformed fields, negative sizes and sizes past
the enumeration budget (which must fail before any work).  Every run must end
in exit code 0 or 2 (``verify`` may also return 1, a failed check), without
a traceback; when ``main`` itself reports an error it prints exactly one
``error:`` line.  The examples are derandomized, so every run tests the same
inputs.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eomkit.cli import main

small = st.integers(-2, 4)
cells, particles = st.integers(1, 3), st.integers(0, 3)
builtins = st.sampled_from(["be", "mb", "fd", "pc:2"])
# (n, r): small ones, and composition spaces past the budget, which must be
# refused before any work.  The budget counts compositions times their n
# cells, so a huge n is refused even with r = 0, where there is one
# composition
sizes = st.one_of(
    st.tuples(small, small),
    st.sampled_from([(30, 30), (1200, 4), (30_000_000, 2), (30_000_000, 0)]),
)
json_scalars = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([1.7, 2.0, True, False, None, "1", "x", [], {}]),
)
fractions = st.sampled_from(["1", "1/2", "1/3", "0", "-1/2", "1/0", "x", 0.5, 1, None])
weight_specs = st.one_of(
    st.sampled_from(["be", "mb", "fd", "pc:2", "pc:0", "bose", 5, None]),
    st.lists(fractions, max_size=4),
    st.fixed_dictionaries({"values": st.lists(fractions, max_size=4)}),
    st.sampled_from([{"kind": "be"}, {"values": 5}]),
)
entries = st.one_of(
    st.lists(st.lists(json_scalars, max_size=3).map(lambda e: e + ["1/2"]), max_size=3),
    st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), max_size=3).map(
        lambda keys: [k + [f"1/{len(keys)}"] for k in keys]
    ),
    json_scalars,
)
valid_docs = st.sampled_from([
    {"n": 2, "r": 1, "entries": [[0, 1, "1/2"], [1, 0, "1/2"]]},
    {"n": 3, "r": 2, "entries": [[0, 1, 1, "1/3"], [1, 0, 1, "1/3"], [1, 1, 0, "1/3"]]},
    {"n": 2, "r": 2, "entries": [[0, 2, "1/4"], [1, 1, "1/2"], [2, 0, "1/4"]]},
    {"n": 1, "r": 2, "entries": [[2, "1"]]},
])
distribution_docs = st.one_of(
    valid_docs,
    st.fixed_dictionaries({"n": st.one_of(small, json_scalars), "r": small, "entries": entries}),
    st.fixed_dictionaries({"n": json_scalars, "r": json_scalars}),
    json_scalars,
)
terminal_laws = st.one_of(
    st.sampled_from([["1"], ["1/3", "1/3", "1/3"], ["0", "1/4", "3/4"]]),
    st.lists(fractions, max_size=4),
    st.sampled_from([["1/2", "1/2"], ["0"] * 20 + ["1"], "1"]),
)
sample_specs = st.one_of(
    st.fixed_dictionaries({"weight": builtins, "n": cells, "r": particles}),
    st.fixed_dictionaries(
        {"weight": builtins, "horizon": st.integers(0, 3), "terminal_law": terminal_laws}
    ),
    st.tuples(sizes, weight_specs).map(lambda s: {"n": s[0][0], "r": s[0][1], "weight": s[1]}),
    st.fixed_dictionaries(
        {"weight": weight_specs, "horizon": st.one_of(small, json_scalars, st.just(40)),
         "terminal_law": terminal_laws}
    ),
    st.dictionaries(st.sampled_from(["n", "r", "weight", "horizon", "terminal_law"]),
                    json_scalars, max_size=4),
    json_scalars,
)


def flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


@st.composite
def invocations(draw):
    """(argv, {file name: file text}) for one command."""
    command = draw(st.sampled_from(["enumerate", "model", "transform", "verify", "sample"]))
    files = {}
    if command == "enumerate":
        n, r = draw(sizes)
        argv = ["enumerate", "--n", str(n), "--r", str(r)]
        argv += draw(flag("--format", st.sampled_from(["json", "csv", "xml"])))
    elif command == "model":
        weight = draw(st.one_of(builtins, st.sampled_from(["pc:x", "bose", "@w.json"])))
        files["w.json"] = json.dumps(draw(weight_specs))
        n, r = draw(st.one_of(st.tuples(cells, particles), sizes))
        argv = ["model", "--weight", weight, "--n", str(n), "--r", str(r)]
        argv += draw(st.sampled_from([[], ["--labels"], ["--order-stats"], ["--marginal"]]))
        if argv[-1] == "--marginal":
            argv.append(str(draw(small)))
    elif command == "transform":
        op = draw(st.sampled_from(["k1", "k2", "cond:1,1", "cond:2,0", "cond:5,1",
                                   "cond:-1,0", "cond:x", "k3"]))
        argv = ["transform", "--op", op]
        source = draw(st.sampled_from(["document", "flags", "some flags"]))
        if source == "document":
            files["d.json"] = json.dumps(draw(st.one_of(valid_docs, distribution_docs)))
            argv += ["--input", "d.json"]
        else:
            n, r = draw(st.one_of(st.tuples(cells, particles), sizes))
            given_flags = ["--weight", draw(builtins), "--n", str(n), "--r", str(r)]
            if source == "some flags":
                given_flags = draw(st.lists(st.sampled_from(given_flags[::2]), unique=True))
                given_flags = sum(([f, "1"] for f in given_flags), [])
            argv += given_flags
    elif command == "verify":
        argv = ["verify", "--suite",
                draw(st.sampled_from(["eom", "transforms", "theorem", "classic", "all"]))]
        argv += draw(flag("--seed", st.integers(0, 3)))
        # always given: the defaults would make each run take a second
        argv += ["--max-n", str(draw(st.integers(-1, 3))),
                 "--max-r", str(draw(st.integers(-1, 3))),
                 "--horizon", str(draw(st.integers(-1, 2)))]
    else:
        files["s.json"] = draw(st.one_of(
            st.just("{"), sample_specs.map(json.dumps)
        ))
        argv = ["sample", "--spec", "s.json"]
        argv += draw(flag("--paths", st.integers(-1, 5))) + draw(flag("--seed", small))
    return argv, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(invocations())
def test_cli_ends_in_a_result_or_a_one_line_error(workdir, invocation):
    argv, files = invocation
    for name, text in files.items():
        (workdir / name).write_text(text)
    argv = [
        str(workdir / a) if a in files else f"@{workdir / a[1:]}" if a[1:] in files else a
        for a in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            handled = True
        except SystemExit as exc:  # argparse rejected the arguments
            code, handled = exc.code, False
    stderr = err.getvalue()
    assert "Traceback" not in stderr
    allowed = {0, 1, 2} if argv[0] == "verify" else {0, 2}
    assert code in allowed, (argv, code, stderr)
    if handled and code == 2:
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1, (argv, stderr)
