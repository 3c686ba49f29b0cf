"""Exact output checks for benchmark requests.

Each oracle recomputes what it needs from first principles -- its own
composition enumeration, weight products and normalization -- and never calls
the ``eomkit`` function whose output it judges.  An oracle returns ``None``
when the output is right and a short reason when it is not; a request whose
oracle returns a reason counts as failed.
"""

import bisect
import csv
import io
import itertools
import json
import math
import random
from fractions import Fraction

ZERO = Fraction(0)

EXPECTED_CHECKS = {
    "eom": (
        "model-normalization",
        "weight-model-exchangeable",
        "uniform-single-marginals",
        "label-law-closed-forms",
        "order-statistics-match",
        "uniform-transfer",
        "label-occupancy-roundtrip",
        "weight-label-density",
        "iid-conditional-sufficiency",
    ),
    "transforms": (
        "drop-keeps-exchangeable",
        "erase-keeps-exchangeable",
        "conditioning-keeps-exchangeable",
        "conditioning-preserves-weight-model",
        "drop-closure-builtins",
        "drop-closure-counterexample",
        "drop-matches-weight-model",
        "drop-breaks-weight-model",
        "dropped-label-marginal",
        "mass-conservation",
        "product-form-detector-positive",
        "strict-containment",
    ),
    "theorem": (
        "jump-conditionals-product-form",
        "joint-factorization",
        "interarrival-product-formula",
        "arrival-product-formula",
        "markov-transitions",
        "structure-recursion",
        "zero-count-identity",
        "marginal-consistency",
        "mutation-detected",
    ),
    "classic": (
        "strict-unit-jump-recovery",
        "multinomial-recovery",
        "flat-count-recovery",
    ),
}
CHARACTERIZATIONS = EXPECTED_CHECKS["theorem"][:4]


# ----------------------------------------------------------- exact primitives

def compositions(n: int, r: int):
    """Length-n compositions of r in lexicographic order (iterative)."""
    x = [0] * (n - 1) + [r]
    while True:
        yield tuple(x)
        # successor: grow the rightmost x[i] whose suffix x[i+1:] is nonempty,
        # then put the rest of that suffix, less one, into the last cell
        i, rest = n - 2, x[-1]
        while i >= 0 and rest == 0:
            rest += x[i]
            i -= 1
        if i < 0:
            return
        x[i] += 1
        x[i + 1:] = [0] * (n - i - 2) + [rest - 1]


def weight_values(spec, x_max: int) -> list[Fraction]:
    """Weight table from a builtin name (padded to x_max) or a value list."""
    if isinstance(spec, dict):
        spec = spec["values"]
    if not isinstance(spec, str):
        return [Fraction(v) for v in spec]
    if spec == "mb":
        return [Fraction(1, math.factorial(x)) for x in range(x_max + 1)]
    if spec == "be":
        return [Fraction(1)] * (x_max + 1)
    if spec == "fd":
        return [Fraction(int(x <= 1)) for x in range(x_max + 1)]
    if spec.startswith("pc:"):
        s = int(spec[3:])
        return [Fraction(math.comb(s + x - 1, x)) for x in range(x_max + 1)]
    raise ValueError(f"unknown weight {spec!r}")


def weight_product(a: list[Fraction], x) -> Fraction:
    out = Fraction(1)
    for v in x:
        out *= a[v]
    return out


def counts_of(labels, n: int) -> tuple[int, ...]:
    out = [0] * n
    for y in labels:
        out[y - 1] += 1
    return tuple(out)


def product_form_table(a: list[Fraction], n: int, r: int) -> dict:
    """P(x) = prod a(x_j) / sum over the length-n compositions of r."""
    weights = {}
    for x in compositions(n, r):
        w = weight_product(a, x)
        if w:
            weights[x] = w
    total = sum(weights.values())
    return {x: w / total for x, w in weights.items()}


def process_joint(doc: dict) -> dict:
    """Jump-path law R_M(total) * prod a(j) of a process spec document."""
    pi = [Fraction(v) for v in doc["terminal_law"]]
    horizon = int(doc["horizon"])
    a = weight_values(doc["weight"], len(pi) - 1)
    joint = {}
    for k, pk in enumerate(pi):
        if pk:
            for path, p in product_form_table(a, horizon + 1, k).items():
                joint[path] = pk * p
    return joint


def replay_draws(table: dict, draws: int, seed: int) -> list[tuple]:
    """Seeded exact draws: one randrange(lcm) per draw, inversion over sorted keys."""
    keys = sorted(table)
    denom = math.lcm(*(table[k].denominator for k in keys))
    cumulative = list(itertools.accumulate(int(table[k] * denom) for k in keys))
    rng = random.Random(seed)
    return [keys[bisect.bisect_right(cumulative, rng.randrange(denom))] for _ in range(draws)]


# ------------------------------------------------------------ table checks

def _read_table(doc: dict, n: int, r: int, key_len: int):
    """Parsed entries of a distribution document, or a reason it is malformed."""
    if doc.get("n") != n or doc.get("r") != r:
        return None, f"document says n={doc.get('n')}, r={doc.get('r')}; expected {n}, {r}"
    keys = [tuple(e[:-1]) for e in doc["entries"]]
    if any(len(k) != key_len for k in keys):
        return None, "entry of the wrong length"
    if keys != sorted(set(keys)):
        return None, "entries are not sorted and unique"
    table = {k: Fraction(e[-1]) for k, e in zip(keys, doc["entries"])}
    if sum(table.values()) != 1:
        return None, f"entries sum to {sum(table.values())}, not 1"
    if any(p <= 0 for p in table.values()):
        return None, "non-positive entry"
    return table, None


def _proportional(table: dict, keys, weight) -> str | None:
    """The table is proportional to ``weight`` over exactly its positive keys."""
    support = {k for k in keys if weight(k) > 0}
    if set(table) != support:
        return f"support has {len(table)} keys, expected {len(support)}"
    ratio = None
    for k, p in table.items():
        q = p / weight(k)
        if ratio is None:
            ratio = q
        elif q != ratio:
            return f"entry {k} is not proportional to its weight"
    return None


def _exchangeable(table: dict) -> str | None:
    orbits: dict[tuple, set] = {}
    for k, p in table.items():
        orbits.setdefault(tuple(sorted(k)), set()).add((k, p))
    for rep, members in orbits.items():
        size = math.factorial(len(rep))
        for m in itertools.groupby(sorted(rep)):
            size //= math.factorial(len(list(m[1])))
        if len(members) != size or len({p for _, p in members}) != 1:
            return f"orbit of {rep} is not constant"
    return None


def _has_support(a, n: int, r: int) -> bool:
    """Some length-n composition of r has positive weight."""
    return any(weight_product(a, x) for x in compositions(n, r))


def _error_line(code: int, out: str, err: str) -> str | None:
    if code != 2:
        return f"exit code {code}, expected 2"
    if out:
        return "error request wrote to stdout"
    if not err.startswith("error: ") or not err.endswith("\n") or err.count("\n") != 1:
        return "error message is not one line"
    return None


def check_tables(req: dict, code: int, out: str, err: str) -> str | None:
    kind, c = req["kind"], req["check"]
    if kind == "error":
        return _error_line(code, out, err)
    if kind.startswith("verify-"):
        if code != 0 or err:
            return f"exit code {code}: {err.strip()[-200:]}"
        doc = json.loads(out)
        suite = c["suite"]
        names = tuple(ch["name"] for ch in doc["checks"])
        if doc.get("suite") != suite or names != EXPECTED_CHECKS[suite]:
            return "unexpected suite or check names"
        if doc["passed"] is not True or not all(ch["passed"] for ch in doc["checks"]):
            return "suite reports a failed check"
        return None
    a = weight_values(c["weight"], c["r"]) if "weight" in c else None
    n, r = c["n"], c["r"]
    if kind == "transform-cond":
        # the conditioning event needs a positive head and a positive tail
        expect_error = not (_has_support(a, c["sub_n"], c["s"])
                            and _has_support(a, n - c["sub_n"], r - c["s"]))
    else:
        expect_error = a is not None and not _has_support(a, n, r)
    if expect_error:
        return _error_line(code, out, err)
    if code != 0:
        return f"exit code {code}: {err.strip()[-200:]}"
    if err:
        return "successful request wrote to stderr"
    if kind == "enumerate":
        space = list(compositions(n, r))
        if c["format"] == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            if rows[0] != [f"x{j}" for j in range(1, n + 1)]:
                return "wrong CSV header"
            if [tuple(int(v) for v in row) for row in rows[1:]] != space:
                return "CSV rows differ from the composition space"
            return None
        doc = json.loads(out)
        if doc.get("n") != n or doc.get("r") != r:
            return "wrong n or r"
        if [tuple(x) for x in doc["compositions"]] != space:
            return "compositions differ from the composition space"
        return None
    doc = json.loads(out)
    if kind in ("model", "transform-cond"):
        if kind == "transform-cond":
            n, r = c["sub_n"], c["s"]
        table, why = _read_table(doc, n, r, n)
        return why or _proportional(table, compositions(n, r), lambda x: weight_product(a, x))
    if kind == "model-labels":
        table, why = _read_table(doc, n, r, r)

        def label_weight(y):
            x = counts_of(y, n)
            return weight_product(a, x) * math.prod(math.factorial(v) for v in x)

        keys = itertools.product(range(1, n + 1), repeat=r)
        return why or _proportional(table, keys, label_weight)
    if kind == "model-order-stats":
        table, why = _read_table(doc, n, r, r)
        keys = itertools.combinations_with_replacement(range(1, n + 1), r)
        return why or _proportional(table, keys, lambda u: weight_product(a, counts_of(u, n)))
    if kind == "model-marginal":
        table, why = _read_table(doc, n, 1, 1)
        if why:
            return why
        if table != {(y,): Fraction(1, n) for y in range(1, n + 1)}:
            return "single-label marginal is not uniform"
        return None
    if kind in ("transform-k1", "transform-k2"):
        out_n, out_r = (n, r - 1) if kind == "transform-k1" else (n - 1, r)
        table, why = _read_table(doc, out_n, out_r, out_n)
        if why:
            return why
        if any(sum(k) != out_r or min(k) < 0 for k in table):
            return "key is not a composition"
        return _exchangeable(table)
    raise ValueError(f"no oracle for {kind!r}")


# --------------------------------------------------------------- sampling

def check_sampling(req: dict, code: int, out: str, err: str) -> str | None:
    if code != 0 or err:
        return f"exit code {code}: {err.strip()[-200:]}"
    doc, c = req["doc"], req["check"]
    if "horizon" in doc:
        table = process_joint(doc)
        header = [f"j{t}" for t in range(int(doc["horizon"]) + 1)]
    else:
        n, r = int(doc["n"]), int(doc["r"])
        table = product_form_table(weight_values(doc["weight"], r), n, r)
        header = [f"x{j}" for j in range(1, n + 1)]
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != header:
        return "wrong CSV header"
    drawn = [tuple(int(v) for v in row) for row in rows[1:]]
    if drawn != replay_draws(table, c["draws"], c["seed"]):
        return "sample stream differs from the seeded replay"
    return None


# -------------------------------------------------------- process session

def _prefix_masses(joint: dict, t: int) -> dict:
    out: dict = {}
    for path, p in joint.items():
        out[path[: t + 1]] = out.get(path[: t + 1], ZERO) + p
    return out


def _count_law(joint: dict, t: int, cap: int) -> dict:
    out = {k: ZERO for k in range(cap + 1)}
    for path, p in joint.items():
        out[sum(path[: t + 1])] += p
    return out


def check_session(req: dict, result, process) -> str | None:
    """Judge one process-session result; ``process`` is the request's process."""
    op = req["op"]
    if op in ("theorem", "classic"):
        names = tuple(c.name for c in result.checks)
        if names != EXPECTED_CHECKS[op]:
            return "unexpected check names"
        return None if result.passed else "suite reports a failed check"
    if op == "characterizations":
        bad = [c.name for c in result if not c.passed]
        if bad:
            return f"failed: {', '.join(bad)}"
        if tuple(c.name for c in result) != CHARACTERIZATIONS:
            return "unexpected characterization names"
        return None
    if op == "structure":
        return None if result is True else "structure recursion fails"
    joint, horizon = process.joint, process.horizon
    a = list(process.weight.values)
    cap = max(sum(path) for path in joint)
    if op == "build":
        params = req["params"]
        if horizon != params["horizon"]:
            return "wrong horizon"
        pi = [Fraction(v) for v in params["terminal_law"]]
        for k, pk in enumerate(pi):
            mass = {path: p for path, p in joint.items() if sum(path) == k}
            if sum(mass.values()) != pk:
                return f"total {k} carries {sum(mass.values())}, expected {pk}"
            if pk:
                why = _proportional(mass, compositions(horizon + 1, k),
                                    lambda x: weight_product(a, x))
                if why:
                    return f"total {k}: {why}"
        return None
    if op == "counts":
        for t, law in enumerate(result):
            if sum(law.values()) != 1 or law != _count_law(joint, t, cap):
                return f"count law at t={t} is wrong"
        return None
    if op == "conditionals":
        for (t, k), d in result.items():
            if d.n != t + 1 or d.r != k or sum(d.table.values()) != 1:
                return f"conditional at (t,k)=({t},{k}) is malformed"
            why = _proportional(d.table, compositions(t + 1, k),
                                lambda x: weight_product(a, x))
            if why:
                return f"conditional at (t,k)=({t},{k}): {why}"
        reachable = {(t, k) for t in range(horizon + 1)
                     for k, m in _count_law(joint, t, cap).items() if m}
        return None if set(result) == reachable else "missing reachable (t,k) pairs"
    if op == "arrivals":
        prefixes = [_prefix_masses(joint, t) for t in range(horizon + 1)]
        for times, prob in result.items():
            last = times[-1]
            profile = tuple(times.count(h) for h in range(last + 1))
            if prob != prefixes[last].get(profile, ZERO):
                return f"arrival probability at times {times} is wrong"
        return None
    if op == "transitions":
        for t in range(horizon):
            here = _count_law(joint, t, cap)
            step: dict = {}
            for path, p in joint.items():
                key = (sum(path[: t + 1]), path[t + 1])
                step[key] = step.get(key, ZERO) + p
            for k, mass in here.items():
                if not mass:
                    continue
                row = [result[(t, k, i)] for i in range(cap - k + 1)]
                if sum(row) != 1:
                    return f"transition row (t,k)=({t},{k}) sums to {sum(row)}"
                for i, q in enumerate(row):
                    if q != step.get((k, i), ZERO) / mass:
                        return f"transition (t,k,i)=({t},{k},{i}) differs from the joint"
        return None
    raise ValueError(f"no oracle for {op!r}")
