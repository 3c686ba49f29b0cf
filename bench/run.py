"""eomkit benchmark: seeded closed-loop workloads with exact output checks.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from ``src/``.  One
client keeps one request in flight and sends the next when the previous one
completes.  ``tables`` and ``sampling`` requests are ``eomkit`` CLI calls, each
in a child forked from this process after it has imported ``eomkit``, so no
state outlives a request; ``process-session`` queries one library session in
this process.

With ``--trace 0`` the last line is a JSON object with the end-to-end metrics;
with ``--trace 1`` the run measures half its time untraced, replays the same
requests with every traced function wrapped (see ``tracing.py``), and the
JSON object holds the per-layer metrics and the tracing overhead.  Lines
before it are a human-readable report.  See README.md.
"""

import argparse
import hashlib
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
GOLDEN_FILE = BENCH / "golden.json"
GOLDEN_SEED = 0
GOLDEN_COUNT = 40
#: set-up is repeated this many times and its median reported
SETUP_REPEATS = 5
#: requests generated per run; far more than a run completes
REQUEST_COUNT = {"tables": 1600, "sampling": 720, "process-session": 1500}
CLI_WORKLOADS = ("tables", "sampling")

#: per-layer metrics of a traced run: traced function -> reported statistics
LAYER_METRICS = {
    "combinat.enumerate_compositions": ("calls", "self_pct", "items"),
    "combinat.distinct_permutations": ("self_pct",),
    "combinat.enumerate_labels": ("self_pct",),
    "models.weight_model": ("calls", "self_pct", "items"),
    "models.normalization_constant": ("calls", "self_pct", "distinct_frac"),
    "models.sample_exact": ("calls", "self_pct"),
    "models.label_distribution": ("self_pct", "items"),
    "models.is_exchangeable": ("calls", "self_pct"),
    "models.conditional_from_iid": ("self_pct",),
    "transforms.erase_cell": ("self_pct", "items"),
    "transforms.drop_particle": ("self_pct",),
    "transforms.condition_on_partial_sum": ("self_pct",),
    "transforms.check_drop_closure": ("self_pct",),
    "transforms.product_form_weights": ("self_pct",),
    "process.build_process": ("calls", "self_pct", "items"),
    "process.count_distribution": ("calls", "self_pct", "distinct_frac"),
    "process.structure_function": ("calls", "self_pct"),
    "process.FiniteProcess.marginal": ("calls", "self_pct"),
    "process.check_characterizations": ("self_pct",),
    "process.check_mixed_geometric_form": ("self_pct",),
    "process.check_structure_recursion": ("self_pct",),
    "process.transition_probability": ("calls", "self_pct"),
    "verify.eom_suite": ("self_pct",),
    "verify.transforms_suite": ("self_pct",),
    "verify.theorem_suite": ("self_pct",),
    "verify.classic_suite": ("self_pct",),
    "serialize.to_json": ("self_pct", "items"),
    "serialize.table_doc": ("self_pct",),
    "serialize.rows_to_csv": ("self_pct", "items"),
    "cli.main": ("self_pct",),
    tracing.REQUEST: ("self_pct",),
}
#: unit and direction of each per-layer statistic
STAT_UNITS = {
    "calls": ("calls/req", "lower"),
    "items": ("items/req", "lower"),
    "self_pct": ("%", "lower"),
    "distinct_frac": ("ratio", "higher"),
}
OVERHEAD_METRIC = "trace.overhead_pct"


def layer_metric_spec() -> list[dict]:
    """The per-layer metrics a traced run reports, as BENCHMARK.json lists them."""
    out = []
    for name, stats in LAYER_METRICS.items():
        for stat in stats:
            unit, better = STAT_UNITS[stat]
            out.append({"name": f"{name}.{stat}", "unit": unit, "better": better})
    out.append({"name": OVERHEAD_METRIC, "unit": "%", "better": "lower"})
    return out


# -------------------------------------------------------------------- set-up

def import_eomkit():
    """Import the package afresh from src/ and return (cli, verify) modules."""
    for name in [n for n in sys.modules if n == "eomkit" or n.startswith("eomkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("eomkit")
    return importlib.import_module("eomkit.cli"), importlib.import_module("eomkit.verify")


def prepare(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Generate the run's requests and write their input documents."""
    requests = workloads.generate(workload, seed, REQUEST_COUNT[workload])
    if workload in CLI_WORKLOADS:
        workdir.mkdir(parents=True, exist_ok=True)
        for i, req in enumerate(requests):
            if "doc" in req:
                path = workdir / f"input-{i}.json"
                path.write_text(json.dumps(req["doc"]), encoding="utf-8")
                req["argv"] = [a.replace("{file}", str(path)) for a in req["argv"]]
    return requests


def set_up(workload: str, seed: int, workdir: Path):
    """Import eomkit and prepare inputs SETUP_REPEATS times; the median is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_eomkit()
        requests = prepare(workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return statistics.median(times), requests


# ---------------------------------------------------------- CLI requests

def run_cli_request(index: int, argv: list[str], workdir: Path, tracer):
    """Fork a child that runs ``eomkit.cli.main(argv)``; returns its record.

    The child's stdout and stderr go to files in ``workdir``; with a tracer
    installed the child also writes its spans there before it exits.
    """
    out_path = workdir / f"out-{index}.txt"
    err_path = workdir / f"err-{index}.txt"
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = 1
        try:
            with open(out_path, "w", encoding="utf-8") as out, \
                    open(err_path, "w", encoding="utf-8") as err:
                sys.stdout, sys.stderr = out, err
                slot = tracer.begin_request(index) if tracer else None
                try:
                    code = sys.modules["eomkit.cli"].main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                except BaseException:  # a crash is a failed request, not a failed run
                    traceback.print_exc()
                    code = 1
                if tracer:
                    tracer.end_request(slot)
                    with open(workdir / f"spans-{index}.json", "w", encoding="utf-8") as fh:
                        json.dump(tracer.spans, fh)
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - start
    return {"latency": latency, "code": os.waitstatus_to_exitcode(status),
            "rss_kb": usage.ru_maxrss}


def judge_cli(workload: str, req: dict, code: int, out: str, err: str) -> str | None:
    """Oracle verdict for one CLI request; an oracle crash is a failure too."""
    check = oracles.check_tables if workload == "tables" else oracles.check_sampling
    try:
        return check(req, code, out, err)
    except Exception as exc:  # malformed output makes the oracle raise
        return f"output could not be checked: {type(exc).__name__}: {exc}"


def cli_digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\n{out}\0{err}".encode()).hexdigest()


def finish_cli_records(workload, requests, records, workdir: Path, trace_stats=None):
    """After the loop: judge each output, digest it, collect child spans."""
    for i, rec in enumerate(records):
        out = (workdir / f"out-{i}.txt").read_text(encoding="utf-8")
        err = (workdir / f"err-{i}.txt").read_text(encoding="utf-8")
        rec["failure"] = judge_cli(workload, requests[i], rec["code"], out, err)
        rec["digest"] = cli_digest(rec["code"], out, err)
        if workload == "sampling":
            rec["draws"] = requests[i]["check"]["draws"]
        spans_path = workdir / f"spans-{i}.json"
        if trace_stats is not None and spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            add_stats(trace_stats, tracing.summarize(spans, per_request_scope=True))
        for path in (f"out-{i}.txt", f"err-{i}.txt", f"spans-{i}.json"):
            (workdir / path).unlink(missing_ok=True)


def add_stats(total: dict, part: dict) -> None:
    for name, entry in part.items():
        acc = total.setdefault(name, {"calls": 0, "self_s": 0.0, "items": 0, "distinct": 0})
        for key in acc:
            acc[key] += entry[key]


# ----------------------------------------------------- process-session

def session_query(req: dict, procs: dict):
    """Run one process-session request against the live library session."""
    from eomkit import models, process, verify

    op = req["op"]
    if op == "theorem":
        return verify.run_suite("theorem", seed=req["seed"], horizon=req["horizon"]), None
    if op == "classic":
        return verify.run_suite("classic"), None
    if op == "build":
        params = req["params"]
        cap = len(params["terminal_law"]) - 1
        spec = params["weight"]
        if isinstance(spec, str):
            a = models.builtin_weight(spec, cap)
        else:
            a = models.WeightFunction(tuple(Fraction(v) for v in spec))
        p = process.build_process(a, params["horizon"], params["terminal_law"])
        procs[req["proc"]] = p
        return p, p
    p = procs[req["proc"]]
    horizon = p.horizon
    if op == "counts":
        return [process.count_distribution(p, t) for t in range(horizon + 1)], p
    if op == "conditionals":
        return {
            (t, k): process.conditional_jumps_given_count(p, t, k)
            for t in range(horizon + 1)
            for k, mass in process.count_distribution(p, t).items() if mass
        }, p
    if op == "arrivals":
        return {
            times: process.arrival_event_probability(p, times)
            for chi in range(1, p.count_cap + 1)
            for times in itertools.combinations_with_replacement(range(horizon + 1), chi)
        }, p
    if op == "transitions":
        return {
            (t, k, i): process.transition_probability(p, t, k, i)
            for t in range(horizon)
            for k, mass in process.count_distribution(p, t).items() if mass
            for i in range(p.count_cap - k + 1)
        }, p
    if op == "characterizations":
        return process.check_characterizations(p), p
    if op == "structure":
        return process.check_structure_recursion(p), p
    raise ValueError(f"unknown session op {op!r}")


def canonical(op: str, result) -> bytes:
    """Byte form of a session result, for digests."""
    if op == "build":
        data = [[*path, str(q)] for path, q in sorted(result.joint.items())]
    elif op == "counts":
        data = [[str(law[k]) for k in sorted(law)] for law in result]
    elif op == "conditionals":
        data = [[t, k, [[*x, str(q)] for x, q in sorted(d.table.items())]]
                for (t, k), d in sorted(result.items())]
    elif op in ("arrivals", "transitions"):
        data = [[list(key), str(q)] for key, q in sorted(result.items())]
    elif op == "characterizations":
        data = [c.to_doc() for c in result]
    elif op == "structure":
        data = result
    else:
        data = result.to_doc()
    return json.dumps(data, separators=(",", ":")).encode()


def judge_session(req: dict, result, process) -> str | None:
    try:
        return oracles.check_session(req, result, process)
    except Exception as exc:  # a malformed result makes the oracle raise
        return f"result could not be checked: {type(exc).__name__}: {exc}"


def run_session_request(index: int, req: dict, procs: dict, tracer):
    """Time one session request; judge and digest it outside the timed region."""
    slot = tracer.begin_request(index) if tracer else None
    start = time.perf_counter()
    try:
        result, proc = session_query(req, procs)
        failure = None
    except Exception as exc:  # an exception is a failed request
        result = proc = None
        failure = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if tracer:
        tracer.end_request(slot)
    digest = None
    if failure is None:
        failure = judge_session(req, result, proc)
        digest = hashlib.sha256(canonical(req["op"], result)).hexdigest()
    if req["op"] == workloads.PROCESS_QUERIES[-1]:
        procs.pop(req["proc"], None)  # the process's last query
    return {"latency": latency, "failure": failure, "digest": digest}


# ------------------------------------------------------------ the loop

def closed_loop(workload, requests, seconds, workdir, tracer=None, limit=None):
    """Send requests one at a time until ``seconds`` of request time are spent
    and the current block is complete (or until ``limit`` requests are done).
    Oracle work is not timed."""
    records = []
    busy = 0.0
    procs: dict = {}
    if tracer:
        tracer.install()
    try:
        for i, req in enumerate(requests):
            if limit is not None and i >= limit:
                break
            # stop only between blocks, so that every run holds whole,
            # equally mixed blocks of requests
            if limit is None and busy >= seconds and req["block"] != requests[i - 1]["block"]:
                break
            if workload in CLI_WORKLOADS:
                rec = run_cli_request(i, req["argv"], workdir, tracer)
            else:
                rec = run_session_request(i, req, procs, tracer)
            rec["kind"] = req["kind"]
            busy += rec["latency"]
            records.append(rec)
    finally:
        if tracer:
            tracer.uninstall()
    return records, busy


def load_golden(workload: str, seed: int) -> list[str]:
    if seed != GOLDEN_SEED or not GOLDEN_FILE.exists():
        return []
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8")).get(workload, [])


def apply_golden(records: list[dict], golden: list[str]) -> None:
    for rec, want in zip(records, golden):
        if rec["failure"] is None and rec["digest"] != want:
            rec["failure"] = "output bytes differ from the golden digest"


def prefix_digest(records: list[dict], count: int = GOLDEN_COUNT) -> str:
    """Digest of the first ``count`` outputs; equal runs of a seed agree on it."""
    h = hashlib.sha256()
    for rec in records[:count]:
        h.update(str(rec["digest"]).encode())
    return h.hexdigest()[:16]


def execute(workload, requests, seconds, workdir, trace: bool, limit=None):
    """Run the loop (twice when tracing) and judge every request."""
    records, busy = closed_loop(workload, requests, seconds if not trace else seconds / 2,
                                workdir, limit=limit)
    if workload in CLI_WORKLOADS:
        finish_cli_records(workload, requests, records, workdir)
    if not trace:
        return records, busy, None
    tracer = tracing.Tracer()
    traced, traced_busy = closed_loop(workload, requests, seconds, workdir,
                                      tracer=tracer, limit=len(records))
    stats: dict = {}
    if workload in CLI_WORKLOADS:
        finish_cli_records(workload, requests, traced, workdir, trace_stats=stats)
    else:
        add_stats(stats, tracing.summarize(tracer.spans, per_request_scope=False))
    for plain, rec in zip(records, traced):
        if rec["failure"] is None and rec["digest"] != plain["digest"]:
            rec["failure"] = "traced output differs from the untraced output"
    trace_info = {"stats": stats, "busy": traced_busy, "plain_busy": busy,
                  "requests": len(traced)}
    return records + traced, busy, trace_info


# ------------------------------------------------------------- reporting

def end_to_end(workload, records, busy, setup_s, peak_rss_kb):
    latencies = [r["latency"] for r in records]
    metrics = {
        "setup_s": (setup_s, "s"),
        "req_p50_s": (statistics.median(latencies), "s"),
        "req_p90_s": (statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1
                      else latencies[0], "s"),
        "req_per_s": (len(records) / busy, "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines[1] += f" (n={len(latencies)})"
    lines[2] += f" (n={len(latencies)}, {len(latencies) - int(0.9 * len(latencies))} beyond)"
    if workload == "sampling":
        draws = sum(r["draws"] for r in records)
        draw_time = sum(r["latency"] for r in records)
        lines.append(f"draws_per_s {draws / draw_time:.6g} 1/s ({draws} draws)")
    failed = sum(r["failure"] is not None for r in records)
    lines.append(f"failed_frac {failed / len(records):.6g} ({failed}/{len(records)})")
    lines.append("wait time: none to report -- eomkit neither queues nor waits; "
                 "one client, one request in flight")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(info: dict):
    stats, busy, n = info["stats"], info["busy"], info["requests"]
    metrics = {}
    lines = [f"{'layer':42} {'calls':>9} {'self_s':>9} {'self%':>7} {'items':>10} {'distinct':>8}"]
    for name in tracing.NAMES:
        e = stats.get(name, {"calls": 0, "self_s": 0.0, "items": 0, "distinct": 0})
        frac = e["distinct"] / e["calls"] if e["calls"] else 0.0
        values = {"calls": e["calls"] / n, "items": e["items"] / n,
                  "self_pct": 100 * e["self_s"] / busy, "distinct_frac": frac}
        for stat in LAYER_METRICS.get(name, ()):
            metrics[f"{name}.{stat}"] = {"value": values[stat], "unit": STAT_UNITS[stat][0]}
        idle = "  (idle)" if e["calls"] == 0 else ""
        lines.append(f"{name:42} {e['calls']:9d} {e['self_s']:9.4f} {values['self_pct']:7.2f} "
                     f"{e['items']:10d} {frac:8.3f}{idle}")
    overhead = 100 * (busy / info["plain_busy"] - 1)
    metrics[OVERHEAD_METRIC] = {"value": overhead, "unit": "%"}
    lines.append(f"tracing overhead {overhead:.1f}% (traced {n / busy:.4g} req/s vs "
                 f"untraced {n / info['plain_busy']:.4g} req/s over the same {n} requests)")
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".bench_tmp" / f"{workload}-{os.getpid()}"
    try:
        setup_s, requests = set_up(workload, seed, workdir)
        records, busy, info = execute(workload, requests, seconds, workdir, trace)
        if len(records) == len(requests):
            print(f"note: all {len(requests)} generated requests ran; raise REQUEST_COUNT")
        apply_golden(records, load_golden(workload, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = records if info is None else records[: info["requests"]]
    if workload in CLI_WORKLOADS:
        peak_kb = max(r["rss_kb"] for r in plain)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"closed loop, 1 client, 1 request in flight")
    metrics, lines = end_to_end(workload, plain, busy, setup_s, peak_kb)
    if info is not None:
        metrics, layer_lines = per_layer(info)
        lines += layer_lines
    failed = [r for r in records if r["failure"] is not None]
    for rec in failed[:10]:
        lines.append(f"FAILED {rec['kind']}: {rec['failure']}")
    lines.append(f"outputs_digest {prefix_digest(plain)} (first {GOLDEN_COUNT} requests)")
    print("\n".join(lines))
    return {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


def write_golden(seed: int) -> int:
    """Record the digests of the first GOLDEN_COUNT requests of every workload."""
    golden = {}
    for workload in workloads.WORKLOADS:
        workdir = ROOT / ".bench_tmp" / f"golden-{workload}-{os.getpid()}"
        try:
            import_eomkit()
            requests = prepare(workload, seed, workdir)
            records, _, _ = execute(workload, requests, 0, workdir, False, limit=GOLDEN_COUNT)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        bad = [r for r in records if r["failure"]]
        if bad:
            print(f"{workload}: {len(bad)} requests fail; golden file not written", file=sys.stderr)
            return 1
        golden[workload] = [r["digest"] for r in records]
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"record output digests for seed {GOLDEN_SEED} and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eomkit" / "__init__.py").is_file():
        print(f"error: no eomkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_golden:
        return write_golden(GOLDEN_SEED)
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
