"""Command-line interface: outputs, exit codes, and byte-level determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from eomkit import serialize
from eomkit.combinat import enumerate_compositions
from eomkit.models import weight_model

CMD = [sys.executable, "-m", "eomkit"]
#: the child process imports eomkit from this checkout's src
SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def run_cli(*args, check=False):
    proc = subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=120, env=ENV
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"{args} failed: {proc.stderr}")
    return proc


def test_enumerate_json():
    proc = run_cli("enumerate", "--n", "3", "--r", "2", check=True)
    doc = json.loads(proc.stdout)
    assert doc["n"] == 3 and doc["r"] == 2
    assert len(doc["compositions"]) == 6
    assert doc["compositions"][0] == [0, 0, 2]


def test_enumerate_csv():
    proc = run_cli("enumerate", "--n", "2", "--r", "2", "--format", "csv", check=True)
    assert proc.stdout == "x1,x2\n0,2\n1,1\n2,0\n"


def test_enumerate_budget_exit_code():
    proc = run_cli("enumerate", "--n", "30", "--r", "30")
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def test_enumerate_many_cells_single_row():
    proc = run_cli("enumerate", "--n", "1200", "--r", "0", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == [",".join(["0"] * 1200)]


def test_model_budget_charged_before_normalizer():
    start = time.perf_counter()
    proc = run_cli("model", "--weight", "be", "--n", "30000000", "--r", "2")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "budget" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert elapsed < 2, f"budget error took {elapsed:.2f} s"


def test_weight_list_without_mass_on_the_occupancies_fails_fast(tmp_path):
    # [0, 0] and then 8,000 ones: cut just after its first positive value,
    # the list is not convolved whole before the empty model is reported
    spec = tmp_path / "w.json"
    spec.write_text(json.dumps([0, 0] + [1] * 8000))
    start = time.perf_counter()
    proc = run_cli("model", "--weight", f"@{spec}", "--n", "2", "--r", "1")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: weight table has zero total mass over 2 cells and 1 particles\n"
    )
    assert elapsed < 2, f"error took {elapsed:.2f} s"


def test_model_budget_counts_cells_of_a_single_composition():
    # one composition of 0 particles, but 30 million cells to write
    start = time.perf_counter()
    proc = run_cli("model", "--weight", "be", "--n", "30000000", "--r", "0")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "budget" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert elapsed < 2, f"budget error took {elapsed:.2f} s"


def test_verify_theorem_past_the_budget_exits_2_at_once():
    start = time.perf_counter()
    proc = run_cli("verify", "--suite", "theorem", "--horizon", "24")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: theorem suite at horizon=24 needs at least 96195762 cells "
        "(budget 10000000)\n"
    )
    assert elapsed < 2, f"budget error took {elapsed:.2f} s"


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_verify_classic_without_a_horizon_exits_2(horizon):
    # no process of horizon 1..h exists, so the checks would examine nothing
    proc = run_cli("verify", "--suite", "classic", "--horizon", horizon)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "horizon" in proc.stderr


def test_model_occupancy():
    proc = run_cli("model", "--weight", "be", "--n", "2", "--r", "2", check=True)
    doc = json.loads(proc.stdout)
    assert doc["entries"] == [[0, 2, "1/3"], [1, 1, "1/3"], [2, 0, "1/3"]]


def test_model_labels():
    proc = run_cli(
        "model", "--weight", "mb", "--n", "2", "--r", "2", "--labels", check=True
    )
    doc = json.loads(proc.stdout)
    assert [e[-1] for e in doc["entries"]] == ["1/4"] * 4


def test_model_order_stats():
    proc = run_cli(
        "model", "--weight", "mb", "--n", "2", "--r", "2", "--order-stats", check=True
    )
    doc = json.loads(proc.stdout)
    assert doc["entries"] == [[1, 1, "1/4"], [1, 2, "1/2"], [2, 2, "1/4"]]


def test_model_marginal_uniform():
    proc = run_cli(
        "model", "--weight", "pc:2", "--n", "3", "--r", "2", "--marginal", "1",
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert [e[-1] for e in doc["entries"]] == ["1/3"] * 3


def test_model_marginal_goes_through_the_drop_chain():
    # the label space of mb(8, 8) has 8**8 vectors, past the budget
    start = time.perf_counter()
    proc = run_cli("model", "--weight", "mb", "--n", "8", "--r", "8", "--marginal", "1")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["entries"] == [[label, "1/8"] for label in range(1, 9)]
    assert elapsed < 10, f"marginal took {elapsed:.2f} s"


#: sha256 and length of ``model --weight @w.json --n 2 --r 2`` with the
#: weight values ["1E+2200", "1", "1"]: masses of about 2,200 digits
LARGE_MASS_DIGEST = ("96c4bcf867c9f1d3923900408dceb180889a1b9ae1300bebfa8452a3ac109d50", 11171)


@pytest.mark.parametrize(
    "command",
    [
        ("model", "--n", "2", "--r", "2"),
        ("model", "--n", "2", "--r", "2", "--labels"),
        ("model", "--n", "2", "--r", "2", "--order-stats"),
        ("transform", "--op", "k2", "--n", "3", "--r", "2"),
    ],
)
def test_mass_past_the_digit_limit_is_refused_before_the_first_byte(tmp_path, command):
    spec = tmp_path / "weight.json"
    spec.write_text(json.dumps({"values": ["1E+4300", "1", "1"]}))
    proc = run_cli(*command, "--weight", f"@{spec}")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "past 4300 digits" in proc.stderr


def test_mass_inside_the_digit_limit_is_written(tmp_path):
    spec = tmp_path / "weight.json"
    spec.write_text(json.dumps({"values": ["1E+2200", "1", "1"]}))
    proc = run_cli("model", "--weight", f"@{spec}", "--n", "2", "--r", "2", check=True)
    assert (hashlib.sha256(proc.stdout.encode()).hexdigest(), len(proc.stdout)) == LARGE_MASS_DIGEST


def test_model_weight_file(tmp_path):
    spec = tmp_path / "weight.json"
    spec.write_text(json.dumps({"values": ["1", "1", "5"]}))
    proc = run_cli("model", "--weight", f"@{spec}", "--n", "2", "--r", "2", check=True)
    doc = json.loads(proc.stdout)
    assert doc["entries"] == [[0, 2, "5/11"], [1, 1, "1/11"], [2, 0, "5/11"]]


def test_transform_drop():
    proc = run_cli(
        "transform", "--op", "k1", "--weight", "be", "--n", "2", "--r", "2",
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["entries"] == [[0, 1, "1/2"], [1, 0, "1/2"]]


def test_transform_condition():
    proc = run_cli(
        "transform", "--op", "cond:2,1", "--weight", "mb", "--n", "3", "--r", "2",
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["entries"] == [[0, 1, "1/2"], [1, 0, "1/2"]]


def test_transform_from_document(tmp_path):
    model = run_cli("model", "--weight", "mb", "--n", "3", "--r", "2", check=True)
    path = tmp_path / "model.json"
    path.write_text(model.stdout)
    direct = run_cli(
        "transform", "--op", "k2", "--weight", "mb", "--n", "3", "--r", "2",
        check=True,
    )
    via_file = run_cli("transform", "--op", "k2", "--input", str(path), check=True)
    assert via_file.stdout == direct.stdout


def test_transform_erase_single_cell_exits_2():
    proc = run_cli("transform", "--op", "k2", "--weight", "be", "--n", "1", "--r", "2")
    assert proc.returncode == 2


def test_transform_bad_op_exits_2():
    proc = run_cli("transform", "--op", "k3", "--weight", "be", "--n", "2", "--r", "2")
    assert proc.returncode == 2


def test_verify_suites_pass():
    for suite in ("eom", "classic"):
        proc = run_cli("verify", "--suite", suite, "--horizon", "2")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["suite"] == suite and doc["passed"]
        assert all(c["passed"] for c in doc["checks"])


def test_verify_unknown_suite_exits_2():
    proc = run_cli("verify", "--suite", "everything")
    assert proc.returncode == 2


def test_sample_model_csv_deterministic(tmp_path):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({"weight": "be", "n": 2, "r": 2}))
    args = ("sample", "--spec", str(spec), "--paths", "20", "--seed", "7")
    first = run_cli(*args, check=True)
    second = run_cli(*args, check=True)
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 21
    other_seed = run_cli(
        "sample", "--spec", str(spec), "--paths", "20", "--seed", "8", check=True
    )
    assert other_seed.stdout != first.stdout


def test_sample_process_csv(tmp_path):
    spec = tmp_path / "proc.json"
    spec.write_text(
        json.dumps(
            {"weight": "be", "horizon": 1, "terminal_law": ["1/3", "1/3", "1/3"]}
        )
    )
    proc = run_cli("sample", "--spec", str(spec), "--paths", "10", "--seed", "1",
                   check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "j0,j1"
    assert len(lines) == 11
    for line in lines[1:]:
        j0, j1 = map(int, line.split(","))
        assert 0 <= j0 + j1 <= 2


def test_model_output_byte_identical():
    a = run_cli("model", "--weight", "pc:3", "--n", "3", "--r", "3", check=True)
    b = run_cli("model", "--weight", "pc:3", "--n", "3", "--r", "3", check=True)
    assert a.stdout == b.stdout


def assert_one_line_error(proc, text=None):
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    if text is not None:
        assert proc.stderr == f"error: {text}\n"


def test_transform_malformed_entry_exits_2(tmp_path):
    doc = tmp_path / "d.json"
    doc.write_text(json.dumps({"n": 2, "r": 1, "entries": [5]}))
    assert_one_line_error(run_cli("transform", "--op", "k1", "--input", str(doc)))


@pytest.mark.parametrize(
    "count, shown", [(1.7, "1.7"), (True, "True"), ("1", "'1'")]
)
def test_transform_non_integer_entry_count_exits_2(tmp_path, count, shown):
    doc = tmp_path / "d.json"
    doc.write_text(json.dumps({"n": 2, "r": 1, "entries": [[count, 0, "1"]]}))
    proc = run_cli("transform", "--op", "k1", "--input", str(doc))
    assert_one_line_error(
        proc,
        f"distribution entry [{shown}, 0, '1'] is not a list [x_1, ..., x_n, p] "
        "of integer counts and a probability",
    )
    assert proc.stdout == ""


def test_transform_duplicate_entry_exits_2(tmp_path):
    # keeping only the last repeat would read a table that sums to 3/2 as 1
    doc = tmp_path / "d.json"
    entries = [[2, 0, "1/2"], [0, 2, "1/2"], [2, 0, "1/2"]]
    doc.write_text(json.dumps({"n": 2, "r": 2, "entries": entries}))
    proc = run_cli("transform", "--op", "k1", "--input", str(doc))
    assert_one_line_error(proc, "duplicate entry (2, 0)")
    assert proc.stdout == ""


@pytest.mark.parametrize("suite", ["eom", "transforms"])
def test_verify_empty_model_grid_exits_2(suite):
    proc = run_cli("verify", "--suite", suite, "--max-n", "1")
    assert_one_line_error(proc, "model grid needs max_n >= 2 and max_r >= 1, got 1, 4")
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, doc, text",
    [
        (["model", "--weight", "@{}", "--n", "2", "--r", "2"],
         {"values": ["1", "1E+6000000", "1"]}, "'1E+6000000'"),
        (["sample", "--spec", "{}"],
         {"weight": "be", "horizon": 1, "terminal_law": ["1e999999999", "0"]}, "'1e999999999'"),
        (["transform", "--op", "k1", "--input", "{}"],
         {"n": 2, "r": 1, "entries": [[1, 0, "1E+6000000"], [0, 1, "0"]]}, "'1E+6000000'"),
    ],
)
def test_an_exponent_past_the_limit_exits_2_at_once(argv, doc, text, tmp_path):
    # Fraction would build a power of 10 of millions of digits first
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    proc = run_cli(*(arg.format(path) for arg in argv))
    elapsed = time.perf_counter() - start
    assert_one_line_error(proc, f"exponent in {text} is past the limit of 4300")
    assert elapsed < 1, f"the refusal took {elapsed:.2f} s"


@pytest.mark.parametrize(
    "suite, bound, total",
    [("eom", 8, 11133102), ("transforms", 10, 11081876)],
)
def test_verify_over_the_budget_exits_2_at_once(suite, bound, total):
    start = time.perf_counter()
    proc = run_cli("verify", "--suite", suite, "--max-n", str(bound), "--max-r", str(bound))
    assert time.perf_counter() - start < 5  # the whole suite takes minutes
    assert_one_line_error(
        proc,
        f"{suite} suite at max_n={bound}, max_r={bound} needs at least {total} cells "
        "(budget 10000000)",
    )
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--spec", "{}"],
        ["model", "--weight", "@{}", "--n", "2", "--r", "1"],
        ["transform", "--op", "k1", "--input", "{}"],
    ],
)
def test_deeply_nested_json_exits_2(argv, tmp_path):
    # the parser recurses once per level
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli(*(arg.format(path) for arg in argv))
    assert_one_line_error(proc, f"JSON in {path} is nested too deeply")
    assert proc.stdout == ""


def test_a_long_weight_list_prints_as_its_head(tmp_path):
    # a model with r particles reads a(0..r); convolving the normalizer rows
    # over the whole list took seconds per few thousand values
    head, whole = tmp_path / "head.json", tmp_path / "whole.json"
    head.write_text(json.dumps([1, 1]))
    whole.write_text(json.dumps([1] * 30_000))
    argv = ["model", "--n", "2", "--r", "1", "--weight"]
    expected = run_cli(*argv, f"@{head}", check=True).stdout
    start = time.perf_counter()
    assert run_cli(*argv, f"@{whole}", check=True).stdout == expected
    assert time.perf_counter() - start < 10


def test_sample_malformed_weight_spec_exits_2(tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"n": 2, "r": 1, "weight": 5}))
    assert_one_line_error(run_cli("sample", "--spec", str(spec)))


@pytest.mark.parametrize(
    "spec, text",
    [
        ({"n": 2.9, "r": 1, "weight": "be"}, "field 'n' must be an integer, got 2.9"),
        ({"n": True, "r": 1, "weight": "be"}, "field 'n' must be an integer, got True"),
        ({"n": "3", "r": 1, "weight": "be"}, "field 'n' must be an integer, got '3'"),
        (
            {"weight": "be", "horizon": 1.7, "terminal_law": ["1/2", "1/2"]},
            "field 'horizon' must be an integer, got 1.7",
        ),
    ],
)
def test_sample_non_integer_field_exits_2(tmp_path, spec, text):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("sample", "--spec", str(path), "--paths", "2")
    assert_one_line_error(proc, text)
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "--weight", "mb", "--n", "2", "--r", "-1"],
        ["transform", "--op", "k1", "--weight", "mb", "--n", "2", "--r", "-1"],
        ["sample", "--spec", "{spec}"],
    ],
)
def test_negative_particle_count_is_named_before_the_weight_is_built(argv, tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"n": 2, "r": -1, "weight": "mb"}))
    proc = run_cli(*(arg.format(spec=spec) for arg in argv))
    assert_one_line_error(proc, "particle count must be >= 0, got -1")
    assert proc.stdout == ""


def test_sample_negative_paths_exits_2(tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"weight": "be", "n": 2, "r": 1}))
    proc = run_cli("sample", "--spec", str(spec), "--paths", "-3")
    assert_one_line_error(proc, "--paths must be >= 0")
    assert proc.stdout == ""


def test_sample_zero_paths_prints_header_only(tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"weight": "be", "n": 2, "r": 1}))
    proc = run_cli("sample", "--spec", str(spec), "--paths", "0", check=True)
    assert proc.stdout == "x1,x2\n"


def test_sample_past_its_draws_builds_no_table(tmp_path, monkeypatch, capsys):
    # 50,388 compositions and 12,870 paths, 5 draws from each: the rows are
    # those of the built tables, but no table is listed, weighed or sorted
    from eomkit import cli, combinat, models, process

    specs = {
        "model": {"weight": "mb", "n": 8, "r": 12},
        "process": {"weight": "pc:2", "horizon": 7, "terminal_law": ["1/9"] * 9},
    }

    def refuse(*args):
        raise AssertionError("sample built a table")

    builders = ("enumerate_compositions", "weight_model", "build_process", "sample_exact")
    rows = {}
    with monkeypatch.context() as patch:
        for module in (cli, combinat, models, process, serialize):
            for name in builders:
                if hasattr(module, name):
                    patch.setattr(module, name, refuse)
        for kind, spec in specs.items():
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(spec))
            assert cli.main(["sample", "--spec", str(path), "--paths", "5", "--seed", "2"]) == 0
            rows[kind] = capsys.readouterr().out.splitlines()[1:]
    paths = process.build_process(*serialize.process_spec_from_doc(specs["process"]))
    tables = {
        "model": weight_model(serialize.weight_from_spec("mb", 12), 8, 12).table,
        "process": paths.joint,
    }
    for kind, table in tables.items():
        drawn = models.sample_exact(table, random.Random(2), 5)
        assert rows[kind] == [",".join(map(str, row)) for row in drawn]


def test_sample_with_draws_past_the_positive_entries_builds_the_table(
    tmp_path, monkeypatch, capsys
):
    # fd leaves 56 of 120 compositions and 64 of 924 paths with positive
    # mass: 100 draws are fewer than the compositions or the paths but
    # more than the table's entries, so the table is built, as the table
    # commands build it, and not walked
    from eomkit import cli, models, process

    specs = {
        "model": {"weight": "fd", "n": 8, "r": 3},
        "process": {"weight": "fd", "horizon": 5, "terminal_law": ["1/7"] * 7},
    }
    built = []

    def spy(builder):
        def build(*args):
            built.append(builder.__name__)
            return builder(*args)

        return build

    def refuse(*args):
        raise AssertionError("sample walked the table")

    rows = {}
    with monkeypatch.context() as patch:
        patch.setattr(models, "weight_model", spy(models.weight_model))
        patch.setattr(process, "_joint", spy(process._joint))
        patch.setattr(models, "_walk", refuse)
        for kind, spec in specs.items():
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(spec))
            argv = ["sample", "--spec", str(path), "--paths", "100", "--seed", "4"]
            assert cli.main(argv) == 0
            rows[kind] = capsys.readouterr().out.splitlines()[1:]
    assert built == ["weight_model", "_joint"]
    paths = process.build_process(*serialize.process_spec_from_doc(specs["process"]))
    tables = {
        "model": weight_model(serialize.weight_from_spec("fd", 3), 8, 3).table,
        "process": paths.joint,
    }
    for kind, table in tables.items():
        assert len(table) < 100
        drawn = models.sample_exact(table, random.Random(4), 100)
        assert rows[kind] == [",".join(map(str, row)) for row in drawn]


def test_model_labels_many_particles_completes():
    # 2**11 label vectors; the multiset permutations must not cost 11!
    proc = run_cli(
        "model", "--weight", "be", "--n", "2", "--r", "11", "--labels", check=True
    )
    doc = json.loads(proc.stdout)
    assert len(doc["entries"]) == 2048


#: ``sample --paths 50 --seed 3`` output recorded before draws were batched
#: into one cumulative table per request
MODEL_CSV = (
    "x1,x2,x3\n"
    "1,1,2\n3,0,1\n2,2,0\n1,0,3\n1,3,0\n3,1,0\n2,1,1\n4,0,0\n3,0,1\n0,2,2\n"
    "3,1,0\n0,1,3\n2,1,1\n1,2,1\n2,2,0\n1,1,2\n1,1,2\n2,1,1\n2,2,0\n2,2,0\n"
    "2,1,1\n2,0,2\n1,0,3\n1,1,2\n1,0,3\n2,2,0\n2,0,2\n0,1,3\n0,2,2\n1,1,2\n"
    "3,0,1\n0,2,2\n1,2,1\n0,1,3\n1,2,1\n2,1,1\n3,1,0\n2,0,2\n2,1,1\n2,0,2\n"
    "3,0,1\n2,1,1\n1,0,3\n1,3,0\n0,3,1\n0,1,3\n1,0,3\n2,1,1\n1,1,2\n1,2,1\n"
)
PROCESS_CSV = (
    "j0,j1,j2,j3\n"
    "0,1,0,1\n2,0,0,1\n0,0,1,0\n1,0,0,0\n1,1,0,0\n3,0,0,0\n0,0,0,1\n0,0,0,0\n"
    "1,1,0,0\n0,1,0,2\n2,0,0,1\n0,1,0,0\n0,0,2,1\n1,1,0,0\n2,0,0,0\n2,0,0,1\n"
    "1,1,0,0\n1,0,0,1\n0,0,1,1\n0,1,0,0\n0,0,1,1\n1,2,0,0\n1,0,0,1\n0,0,0,0\n"
    "0,0,0,1\n0,0,1,2\n0,0,0,0\n0,1,2,0\n0,0,0,0\n0,1,1,0\n1,1,0,0\n1,0,0,0\n"
    "1,0,1,0\n1,0,0,1\n2,1,0,0\n1,0,1,1\n0,0,1,0\n1,0,0,0\n0,0,0,2\n0,0,0,0\n"
    "0,0,1,0\n1,1,0,1\n0,1,0,0\n0,1,0,2\n1,0,1,0\n0,1,2,0\n1,0,1,0\n1,1,1,0\n"
    "1,0,0,0\n2,1,0,0\n"
)


def test_sample_csv_bytes_are_pinned(tmp_path):
    specs = {
        "model.json": ({"weight": "mb", "n": 3, "r": 4}, MODEL_CSV),
        "proc.json": (
            {"weight": "pc:2", "horizon": 3,
             "terminal_law": ["1/10", "1/5", "3/10", "2/5"]},
            PROCESS_CSV,
        ),
    }
    for name, (spec, expected) in specs.items():
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        proc = run_cli("sample", "--spec", str(path), "--paths", "50", "--seed", "3",
                       check=True)
        assert proc.stdout == expected, name


def test_main_parses_with_the_parser_built_at_import(monkeypatch, capsys):
    from eomkit import cli

    def refuse():
        raise AssertionError("build_parser called after import")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert cli.main(["enumerate", "--n", "2", "--r", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "x1,x2\n0,2\n1,1\n2,0\n"


def test_streamed_output_to_a_file_is_the_whole_document(tmp_path):
    # stdout is a real file here, behind the interpreter's own text wrapper,
    # and each output is far larger than one buffer of it
    rng = random.Random(11)
    weight = {"values": [f"{rng.randint(1, 97)}/{rng.randint(1, 89)}" for _ in range(8)]}
    (tmp_path / "w.json").write_text(json.dumps(weight))
    d = weight_model(serialize.weight_from_spec(weight, 7), 9, 7)
    assert len(d.table) == 6435
    cases = [
        (
            ["model", "--weight", f"@{tmp_path / 'w.json'}", "--n", "9", "--r", "7"],
            json.dumps(serialize.table_doc(9, 7, d.table), indent=2) + "\n",
        ),
        (
            ["enumerate", "--n", "9", "--r", "7", "--format", "csv"],
            serialize.rows_to_csv(
                serialize.composition_header(9), enumerate_compositions(9, 7)
            ),
        ),
    ]
    for argv, expected in cases:
        out = tmp_path / "out.txt"
        with open(out, "wb") as fh:
            proc = subprocess.run(
                CMD + argv, stdout=fh, stderr=subprocess.PIPE, timeout=120, env=ENV
            )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == expected.encode()
