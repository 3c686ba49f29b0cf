"""Tests for the benchmark itself: seeded generation, oracles that can fail,
and the tracer's bookkeeping.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import selfcheck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eomkit import cli, process, verify  # noqa: E402
from eomkit.models import builtin_weight  # noqa: E402


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    first = workloads.generate(workload, 7, 300)
    again = workloads.generate(workload, 7, 300)
    assert json.dumps(first) == json.dumps(again)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_requests(workload):
    a = workloads.generate(workload, 7, 100)
    b = workloads.generate(workload, 8, 100)
    assert json.dumps(a) != json.dumps(b)
    # the class sequence is fixed; only the parameters move with the seed
    assert [r["kind"] for r in a] == [r["kind"] for r in b]


def test_composition_oracle_matches_lexicographic_order():
    from eomkit.combinat import enumerate_compositions

    for n in range(1, 6):
        for r in range(6):
            assert list(oracles.compositions(n, r)) == enumerate_compositions(n, r)


def _model_request():
    return {"kind": "model", "check": {"weight": "mb", "n": 3, "r": 3}}


def test_table_oracle_rejects_a_changed_entry():
    req = _model_request()
    code, out, err = run_cli(["model", "--weight", "mb", "--n", "3", "--r", "3"])
    assert run.judge_cli("tables", req, code, out, err) is None
    doc = json.loads(out)
    doc["entries"][0][-1] = "1/7"
    bad = json.dumps(doc, indent=2) + "\n"
    assert run.judge_cli("tables", req, code, bad, err) is not None


def test_table_oracle_rejects_mass_moved_between_entries():
    req = _model_request()
    code, out, err = run_cli(["model", "--weight", "mb", "--n", "3", "--r", "3"])
    doc = json.loads(out)
    first, second = doc["entries"][0], doc["entries"][1]
    eps = oracles.Fraction(first[-1]) / 2
    first[-1] = str(oracles.Fraction(first[-1]) - eps)
    second[-1] = str(oracles.Fraction(second[-1]) + eps)
    assert "proportional" in run.judge_cli("tables", req, code, json.dumps(doc), err)


def test_transform_oracle_rejects_a_non_exchangeable_table():
    req = {"kind": "transform-k1", "check": {"weight": "be", "n": 2, "r": 2}}
    code, out, err = run_cli(["transform", "--op", "k1", "--weight", "be", "--n", "2", "--r", "2"])
    assert run.judge_cli("tables", req, code, out, err) is None
    doc = json.loads(out)  # entries (0,1) and (1,0) must carry equal mass
    doc["entries"] = [[0, 1, "1/3"], [1, 0, "2/3"]]
    assert run.judge_cli("tables", req, code, json.dumps(doc), err) is not None


def test_error_contract_needs_exit_two_and_one_line():
    req = {"kind": "error", "check": {"exit": 2}}
    code, out, err = run_cli(["model", "--weight", "fd", "--n", "2", "--r", "3"])
    assert run.judge_cli("tables", req, code, out, err) is None
    assert run.judge_cli("tables", req, 0, out, err) is not None
    assert run.judge_cli("tables", req, code, out, err + "Traceback\n") is not None


def test_sampling_oracle_rejects_swapped_rows(tmp_path):
    spec = {"weight": "be", "n": 3, "r": 4}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    req = {"kind": "sample-model", "doc": spec, "check": {"draws": 200, "seed": 11}}
    code, out, err = run_cli(["sample", "--spec", str(path), "--paths", "200", "--seed", "11"])
    assert run.judge_cli("sampling", req, code, out, err) is None
    lines = out.splitlines(keepends=True)
    j = next(j for j in range(2, len(lines)) if lines[j] != lines[1])
    lines[1], lines[j] = lines[j], lines[1]
    assert run.judge_cli("sampling", req, code, "".join(lines), err) is not None


def test_session_oracle_rejects_a_perturbed_joint():
    p = process.build_process(builtin_weight("be", 4), 2, [oracles.Fraction(1, 5)] * 5)
    bad = verify.perturbed_process(p)
    req = {"kind": "characterizations", "op": "characterizations", "proc": 0}
    assert run.run_session_request(0, req, {0: p}, None)["failure"] is None
    rec = run.run_session_request(0, req, {0: bad}, None)
    assert rec["failure"] is not None and "failed" in rec["failure"]
    build = {"kind": "build", "op": "build", "proc": 0,
             "params": {"weight": "be", "horizon": 2, "terminal_law": ["1/5"] * 5}}
    assert oracles.check_session(build, bad, bad) is not None


def test_session_oracles_pass_on_a_real_session():
    requests = workloads.generate("process-session", 3, 14)
    procs = {}
    for i, req in enumerate(requests):
        if req["op"] == "theorem":
            continue
        assert run.run_session_request(i, req, procs, None)["failure"] is None, req["op"]


def test_self_times_subtract_the_union_of_children():
    assert selfcheck.synthetic_self_times() == selfcheck.SYNTHETIC_SELF_TIMES


def test_tracer_patches_every_binding_and_restores_them():
    import eomkit.models
    import eomkit.transforms

    original = eomkit.models.normalization_constant
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert eomkit.transforms.normalization_constant is eomkit.models.normalization_constant
        assert eomkit.process.normalization_constant is not original
        process.build_process(builtin_weight("mb", 3), 2, [oracles.Fraction(1, 4)] * 4)
    finally:
        tracer.uninstall()
    assert eomkit.process.normalization_constant is original
    stats = tracing.summarize(tracer.spans, per_request_scope=False)
    # build_process: one normalizer per total 0..3, each with distinct arguments
    assert stats["models.normalization_constant"]["calls"] == 4
    assert stats["models.normalization_constant"]["distinct"] == 4
    assert stats["process.build_process"]["items"] == 20  # C(6, 3) paths


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    records = [{"latency": 0.01 * (i + 1), "failure": None, "draws": 100} for i in range(20)]
    for workload in workloads.WORKLOADS:
        metrics, _ = run.end_to_end(workload, records, 2.0, 0.1, 30 * 1024)
        assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
        assert all(m["unit"] == metrics[m["name"]]["unit"] for m in spec["end_to_end"])
    assert spec["per_layer"] == run.layer_metric_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
