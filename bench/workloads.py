"""Seeded request generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed yields the same
request list, byte for byte.  Requests come in blocks (a tables "deck", a
sampling block, six processes of a session).  Within a block, the request
classes and size strata are fixed, and the members of each stratum are
visited in rotation; the seed draws the values inside each request (random
weight tables, terminal laws, sub-sums, label indices, suite and sampling
seeds).  A run stops between blocks, so every run holds the same mix of cheap
and expensive requests whatever the seed (stratified sampling).  This keeps
the run-to-run spread of the end-to-end figures small while the requests
themselves differ from seed to seed.

A request is a plain dict:

* ``kind``: the request class (used by the oracles and in reports);
* ``argv``: CLI arguments, where ``{file}`` stands for the request's input
  document (``tables`` and ``sampling``);
* ``doc``: that input document, written to disk during set-up;
* ``check``: what the oracle needs to judge the output;
* ``op`` / ``proc``: the query and its process (``process-session``).
"""

import itertools
import math
import random
from fractions import Fraction

WORKLOADS = ("tables", "sampling", "process-session")

BUILTIN_KINDS = ("mb", "be", "fd", "pc:2", "pc:3")

#: largest composition space ``eomkit`` agrees to enumerate
ENUMERATION_BUDGET = 10**7


def composition_count(n: int, r: int) -> int:
    return math.comb(n + r - 1, n - 1)


def random_weight_values(rng: random.Random, x_max: int) -> list[str]:
    """Random positive rational weight table on 0..x_max with a(0) = 1."""
    return ["1"] + [str(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(x_max)]


class Rotation:
    """Round-robin choices.

    Each key walks its member list in order, so every run visits the members
    of a stratum equally often and carries the same mix of sizes and kinds:
    picks that set a request's cost rotate, and the seed draws the values
    inside each pick (weights, laws, sub-sums, seeds).
    """

    def __init__(self):
        self.visits: dict = {}

    def pick(self, key, members):
        visit = self.visits.get(key, 0)
        self.visits[key] = visit + 1
        return members[visit % len(members)]


def _slice(candidates, index: int, strata: int):
    """The ``index``-th of ``strata`` equal slices of a sorted candidate list."""
    lo = index * len(candidates) // strata
    hi = max(lo + 1, (index + 1) * len(candidates) // strata)
    return candidates[lo:hi]


def _pairs(max_count: int, min_count: int = 1, max_n: int = 9, max_r: int = 12):
    """(n, r) pairs with n >= 2, r >= 1 and a bounded composition space,
    sorted by space size."""
    out = [
        (n, r)
        for n in range(2, max_n + 1)
        for r in range(1, max_r + 1)
        if min_count <= composition_count(n, r) <= max_count
    ]
    return sorted(out, key=lambda p: (composition_count(*p), p))


# --------------------------------------------------------------------- tables

#: model sizes reach 6,435 compositions (n = 8, r = 8)
MODEL_PAIRS = _pairs(6435)
#: label views keep r <= 6 and at most 4,096 label vectors
LABEL_PAIRS = sorted(
    ((n, r) for n in range(2, 9) for r in range(1, 7) if n**r <= 4096),
    key=lambda p: (p[0] ** p[1], p),
)
#: erase_cell re-enumerates every entry's redistribution; keep it near 3.4k
ERASE_PAIRS = _pairs(3432)
VERIFY_BOUNDS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4))

#: request classes of one tables deck and how many slots each gets
TABLES_DECK = (
    ("model", 10),
    ("model-labels", 3),
    ("model-order-stats", 2),
    ("model-marginal", 2),
    ("transform-k1", 4),
    ("transform-k2", 4),
    ("transform-cond", 4),
    ("enumerate", 4),
    ("verify-eom", 2),
    ("verify-transforms", 2),
    ("error", 3),
)


def _deck_slots(deck) -> list[tuple[str, int, int]]:
    """Fixed interleaving of a deck: (class, stratum, strata) per slot.

    Slot i of a class with c slots sits at fractional position (i + 1/2)/c,
    so every class is spread evenly over the deck.
    """
    slots = []
    for name, c in deck:
        for i in range(c):
            slots.append(((i + 0.5) / c, name, i, c))
    slots.sort()
    return [(name, i, c) for _, name, i, c in slots]


def _weight(rng: random.Random, rot: Rotation, builtin: bool, n: int, r: int):
    """A weight for an (n, r) model: a builtin name or a random value list."""
    if builtin:
        kinds = tuple(k for k in BUILTIN_KINDS if k != "fd" or r <= n)
        return rot.pick(kinds, kinds)
    return random_weight_values(rng, r)


def _weight_args(weight, req: dict) -> list[str]:
    if isinstance(weight, str):
        return ["--weight", weight]
    req["doc"] = {"values": weight}
    return ["--weight", "@{file}"]


def _tables_request(rng, rot: Rotation, cls: str, stratum: int, strata: int, builtin: bool):
    req: dict = {"kind": cls}

    def pick(candidates):
        return rot.pick((cls, stratum), _slice(candidates, stratum, strata))

    if cls.startswith("model") or cls in ("transform-k1", "transform-cond"):
        pairs = LABEL_PAIRS if cls in ("model-labels", "model-marginal") else MODEL_PAIRS
        n, r = pick(pairs)
        weight = _weight(rng, rot, builtin, n, r)
        argv = ["model"] + _weight_args(weight, req) + ["--n", str(n), "--r", str(r)]
        check = {"weight": weight, "n": n, "r": r}
        if cls == "model-labels":
            argv.append("--labels")
        elif cls == "model-order-stats":
            argv.append("--order-stats")
        elif cls == "model-marginal":
            index = rng.randint(1, r)
            argv += ["--marginal", str(index)]
            check["index"] = index
        elif cls == "transform-k1":
            argv[0:1] = ["transform", "--op", "k1"]
        elif cls == "transform-cond":
            sub_n = rng.randint(1, n - 1)
            s = rng.randint(0, r)
            argv[0:1] = ["transform", "--op", f"cond:{sub_n},{s}"]
            check.update(sub_n=sub_n, s=s)
        req.update(argv=argv, check=check)
    elif cls == "transform-k2":
        n, r = pick(ERASE_PAIRS)
        weight = _weight(rng, rot, builtin, n, r)
        argv = ["transform", "--op", "k2"] + _weight_args(weight, req)
        req.update(
            argv=argv + ["--n", str(n), "--r", str(r)],
            check={"weight": weight, "n": n, "r": r},
        )
    elif cls == "enumerate":
        n, r = pick(MODEL_PAIRS)
        fmt = rot.pick(("format", stratum), ("json", "csv"))
        req.update(
            argv=["enumerate", "--n", str(n), "--r", str(r), "--format", fmt],
            check={"n": n, "r": r, "format": fmt},
        )
    elif cls.startswith("verify-"):
        suite = cls[len("verify-"):]
        max_n, max_r = pick(VERIFY_BOUNDS)
        seed = rng.randrange(10**6)
        req.update(
            argv=["verify", "--suite", suite, "--seed", str(seed),
                  "--max-n", str(max_n), "--max-r", str(max_r)],
            check={"suite": suite},
        )
    elif cls == "error":
        # one contract violation per slot: each must end in exit code 2
        if stratum == 0:
            while True:
                n, r = rng.randint(10, 40), rng.randint(10, 40)
                if composition_count(n, r) > ENUMERATION_BUDGET:
                    break
            argv = ["enumerate", "--n", str(n), "--r", str(r)]
        elif stratum == 1:
            r = rng.randint(0, 8)
            weight = _weight(rng, rot, builtin, 1, r)
            argv = ["transform", "--op", "k2"] + _weight_args(weight, req)
            argv += ["--n", "1", "--r", str(r)]
        else:
            n = rng.randint(1, 4)
            r = n + rng.randint(1, 4)
            argv = ["model", "--weight", "fd", "--n", str(n), "--r", str(r)]
            if rng.randrange(2):
                argv.append("--labels")
        req.update(argv=argv, check={"exit": 2})
    else:
        raise ValueError(f"unknown tables request class {cls!r}")
    return req


def tables_requests(seed: int, count: int) -> list[dict]:
    """One-shot CLI requests: models, label views, transforms, enumeration,
    verification, and contract violations.  Half the weights are builtins,
    half random rational tables passed as ``@file`` documents."""
    rng = random.Random(f"tables/{seed}")
    rot = Rotation()
    slots = _deck_slots(TABLES_DECK)
    out = []
    for deck in itertools.count():
        if len(out) >= count:
            return out[:count]
        for position, (cls, stratum, strata) in enumerate(slots):
            builtin = (position + deck) % 2 == 0
            req = _tables_request(rng, rot, cls, stratum, strata, builtin)
            req["block"] = deck
            out.append(req)


# ------------------------------------------------------------------- sampling

#: model specs span 100 to ~3k compositions, in five size strata
SAMPLE_MODEL_PAIRS = _pairs(3003, min_count=100)
SAMPLE_MODEL_STRATA = ((100, 200), (200, 400), (400, 800), (800, 1500), (1500, 3003))
#: model specs of one sampling block: (size stratum, draws).  Draws run from
#: 100 to 1000; a request costs about draws x size, 1.2e5 on average (about
#: a sixth of a second), and at most 2.25e5
SAMPLE_MODEL_DECK = ((0, 1000), (3, 130), (1, 320), (4, 100), (2, 170), (0, 100))
#: draws of process specs by path-space stratum (smallest first)
SAMPLE_PROCESS_DRAWS = (1000, 500, 320, 230, 130, 100)
#: cap on draws x table size, so that no single request takes more than a
#: small share of a run: large tables get fewer draws
DRAW_WORK_CAP = 300_000
#: (horizon, K) pairs of process specs, sorted by path-space size
PROCESS_PAIRS = sorted(
    ((m, k) for m in range(2, 6) for k in range(3, 9)),
    key=lambda p: (math.comb(p[0] + p[1] + 1, p[0] + 1), p),
)
#: stratum visit order: small and large processes alternate
PROCESS_STRATUM_ORDER = (0, 3, 1, 4, 2, 5)
PROCESS_WEIGHTS = ("mb", "be", "fd", "pc:2", "random")
TERMINAL_LAWS = ("uniform", "geometric", "random")


def terminal_law(rng: random.Random, kind: str, cap: int) -> list[str]:
    """Terminal count law on 0..cap as exact strings."""
    if kind == "uniform":
        raw = [Fraction(1)] * (cap + 1)
    elif kind == "geometric":
        raw = [Fraction(1, 2**k) for k in range(cap + 1)]
    else:
        raw = [Fraction(rng.randint(1, 9)) for _ in range(cap + 1)]
    total = sum(raw)
    return [str(v / total) for v in raw]


def process_params(rng: random.Random, rot: Rotation, index: int) -> dict:
    """Weight, horizon and terminal law of the ``index``-th process.

    (horizon, K) pairs are visited stratum by stratum (six strata of four
    pairs, in rotation inside each), weight kinds and terminal laws in
    rotation, so that every six processes cover the size range once.
    """
    stratum = PROCESS_STRATUM_ORDER[index % 6]
    horizon, cap = rot.pick(("pair", stratum), PROCESS_PAIRS[4 * stratum: 4 * stratum + 4])
    kind = rot.pick("weight", PROCESS_WEIGHTS)
    if kind == "fd":
        cap = min(cap, horizon + 1)  # capacity one: at most M+1 arrivals
        weight = "fd"
    elif kind == "random":
        weight = random_weight_values(rng, cap)
    else:
        weight = kind
    law = rot.pick("law", TERMINAL_LAWS)
    return {
        "weight": weight,
        "horizon": horizon,
        "terminal_law": terminal_law(rng, law, cap),
    }


def sampling_requests(seed: int, count: int) -> list[dict]:
    """``sample`` requests alternating model specs and process specs."""
    rng = random.Random(f"sampling/{seed}")
    rot = Rotation()
    out = []
    for i in range(count):
        j = i // 2
        block = j // len(SAMPLE_MODEL_DECK)
        if i % 2 == 0:
            stratum, level = SAMPLE_MODEL_DECK[j % len(SAMPLE_MODEL_DECK)]
            lo, hi = SAMPLE_MODEL_STRATA[stratum]
            n, r = rot.pick(stratum, [p for p in SAMPLE_MODEL_PAIRS
                                      if lo <= composition_count(*p) <= hi])
            builtin = (j + block) % 2 == 0
            weight = _weight(rng, rot, builtin, n, r)
            doc = {"weight": weight if isinstance(weight, str) else {"values": weight},
                   "n": n, "r": r}
            kind = "sample-model"
            size = composition_count(n, r)
        else:
            doc = process_params(rng, rot, j)
            if not isinstance(doc["weight"], str):
                doc["weight"] = {"values": doc["weight"]}
            level = SAMPLE_PROCESS_DRAWS[PROCESS_STRATUM_ORDER[j % 6]]
            kind = "sample-process"
            horizon, cap = doc["horizon"], len(doc["terminal_law"]) - 1
            size = math.comb(horizon + cap + 1, horizon + 1)
        draws = round(level * rng.uniform(0.9, 1.1))
        draws = max(100, min(1000, draws, DRAW_WORK_CAP // size))
        sample_seed = rng.randrange(2**31)
        out.append({
            "kind": kind,
            "block": block,
            "doc": doc,
            "argv": ["sample", "--spec", "{file}", "--paths", str(draws),
                     "--seed", str(sample_seed)],
            "check": {"draws": draws, "seed": sample_seed},
        })
    return out


# ------------------------------------------------------------ process-session

#: queries each process receives, in order, after it is built
PROCESS_QUERIES = (
    "counts",
    "conditionals",
    "arrivals",
    "transitions",
    "characterizations",
    "structure",
)
#: a block is one process from each size stratum and its queries, then one
#: classic suite and one theorem suite; every block carries the same work, so
#: a run of whole blocks has the same mix however many blocks it completes
BLOCK_PROCESSES = 6
#: horizon of the theorem suite: horizon 3 takes about 6 s, a fifth of a run,
#: so a block holding it would be too coarse a unit
THEOREM_HORIZON = 2


def session_requests(seed: int, count: int) -> list[dict]:
    """Library queries against processes built from rotating size and kind
    choices with seeded values, with ``run_suite("classic")`` and
    ``run_suite("theorem")`` closing each block."""
    rng = random.Random(f"process-session/{seed}")
    rot = Rotation()
    out: list[dict] = []
    for block in itertools.count():
        if len(out) >= count:
            return out[:count]
        batch = []
        for proc in range(block * BLOCK_PROCESSES, (block + 1) * BLOCK_PROCESSES):
            params = process_params(rng, rot, proc)
            batch.append({"kind": "build", "op": "build", "proc": proc, "params": params})
            batch += [{"kind": q, "op": q, "proc": proc} for q in PROCESS_QUERIES]
        batch.append({"kind": "classic", "op": "classic"})
        batch.append({"kind": "theorem", "op": "theorem", "seed": rng.randrange(10**6),
                      "horizon": THEOREM_HORIZON})
        for req in batch:
            req["block"] = block
        out += batch


GENERATORS = {
    "tables": tables_requests,
    "sampling": sampling_requests,
    "process-session": session_requests,
}


def generate(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` requests of a workload for a seed."""
    return GENERATORS[workload](seed, count)
