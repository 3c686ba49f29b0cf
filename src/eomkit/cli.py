"""Command-line front end.

Subcommands build models from flags or spec files, run transformations,
sample, and run the verification suites.  All tables are emitted as JSON
documents with exact "num/den" probability strings, or as CSV, written to
standard output as they are formatted; exit codes are 0 on success, 1 on
verification failure, 2 on usage or contract errors.
"""

import argparse
import json
import math
import random
import sys

from . import serialize
from .combinat import check_space, enumerate_compositions
from .errors import EomkitError
from .models import (
    WeightFunction,
    label_distribution,
    masses_of,
    order_statistics_distribution,
    sample_model,
    weight_model,
)
from .process import sample_paths
from .transforms import condition_on_partial_sum, drop_particle, erase_cell, model_label_marginal
from .verify import run_suite


def _read_json(path: str):
    """The JSON document in the file ``path``; too deep a nesting is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the parser recurses once per level
            raise ValueError(f"JSON in {path} is nested too deeply") from None


def _load_weight(spec: str, x_max: int) -> WeightFunction:
    if spec.startswith("@"):
        spec = _read_json(spec[1:])
    return serialize.weight_from_spec(spec, x_max)


def _print_rows(n: int, r: int, name: str, rows) -> None:
    """Write the document ``{"n": n, "r": r, name: rows}`` as indented JSON
    and a line break to standard output (see ``serialize.write_rows_doc``)."""
    write = sys.stdout.write
    serialize.write_rows_doc(write, n, r, name, rows)
    write("\n")


def _print_table(n: int, r: int, table) -> None:
    den, masses = masses_of(table)
    limit = sys.get_int_max_str_digits()  # Python's limit on int string digits; 0: none
    # checked before the first byte: an entry's numerator is below its reduced
    # denominator, which divides den, so a den under 2**(3 * limit) < 10**limit fits
    if den.bit_length() > 3 * limit > 0:
        if max(den // math.gcd(m, den) for m in masses.values()) >= 10**limit:
            raise ValueError(f"a probability has a denominator past {limit} digits")
    _print_rows(n, r, "entries", serialize.table_entries(table))


def _cmd_enumerate(args) -> int:
    space = enumerate_compositions(args.n, args.r)
    if args.format == "csv":
        serialize.write_csv(sys.stdout, serialize.composition_header(args.n), space)
    else:
        _print_rows(args.n, args.r, "compositions", space)
    return 0


def _cmd_model(args) -> int:
    check_space(args.n, args.r)
    a = _load_weight(args.weight, args.r)
    d = weight_model(a, args.n, args.r)
    r, table = d.r, d.table
    if args.labels:
        table = label_distribution(d).table
    elif args.order_stats:
        table = order_statistics_distribution(d)
    elif args.marginal is not None:
        marg = model_label_marginal(d, {args.marginal})
        r, table = marg.r, marg.table
    _print_table(d.n, r, table)
    return 0


def _cmd_transform(args) -> int:
    if args.input:
        d = serialize.occupancy_from_doc(_read_json(args.input))
    else:
        if args.weight is None or args.n is None or args.r is None:
            raise ValueError("either --input or all of --weight/--n/--r are required")
        check_space(args.n, args.r)
        d = weight_model(_load_weight(args.weight, args.r), args.n, args.r)
    op = args.op
    if op == "k1":
        out = drop_particle(d)
    elif op == "k2":
        out = erase_cell(d)
    elif op.startswith("cond:"):
        try:
            n_str, s_str = op[5:].split(",")
            sub_n, s = int(n_str), int(s_str)
        except ValueError:
            raise ValueError(f"expected cond:<n>,<s>, got {op!r}") from None
        out = condition_on_partial_sum(d, sub_n, s)
    else:
        raise ValueError(f"unknown transform {op!r} (use k1, k2, or cond:<n>,<s>)")
    _print_table(out.n, out.r, out.table)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(
        args.suite,
        seed=args.seed,
        max_n=args.max_n,
        max_r=args.max_r,
        horizon=args.horizon,
    )
    print(json.dumps(report.to_doc(), indent=2))
    return 0 if report.passed else 1


def _cmd_sample(args) -> int:
    if args.paths < 0:
        raise ValueError("--paths must be >= 0")
    doc = _read_json(args.spec)
    if not isinstance(doc, dict):
        raise ValueError("sample spec must be a JSON object")
    rng = random.Random(args.seed)
    if "horizon" in doc:
        a, horizon, pi = serialize.process_spec_from_doc(doc)
        rows = sample_paths(a, horizon, pi, rng, args.paths)
        serialize.write_csv(sys.stdout, serialize.path_header(horizon), rows)
    else:
        try:
            n, r = serialize.int_field(doc, "n"), serialize.int_field(doc, "r")
            weight_spec = doc["weight"]
        except (KeyError, TypeError):
            raise ValueError(
                "sample spec needs either horizon/terminal_law/weight or n/r/weight"
            ) from None
        check_space(n, r)
        rows = sample_model(serialize.weight_from_spec(weight_spec, r), n, r, rng, args.paths)
        serialize.write_csv(sys.stdout, serialize.composition_header(n), rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eomkit",
        description="exact occupancy models, transformations, and counting processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list all compositions of r into n cells")
    p_enum.add_argument("--n", type=int, required=True, help="cell count")
    p_enum.add_argument("--r", type=int, required=True, help="particle count")
    p_enum.add_argument("--format", choices=("json", "csv"), default="json")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_model = sub.add_parser("model", help="build a product-form occupancy model")
    p_model.add_argument(
        "--weight",
        required=True,
        help="mb|be|fd|pc:<s> or @file with a weight document",
    )
    p_model.add_argument("--n", type=int, required=True)
    p_model.add_argument("--r", type=int, required=True)
    view = p_model.add_mutually_exclusive_group()
    view.add_argument("--labels", action="store_true", help="emit the label law")
    view.add_argument(
        "--order-stats", action="store_true", help="emit the sorted-label law"
    )
    view.add_argument(
        "--marginal", type=int, metavar="I", help="emit the marginal of label I"
    )
    p_model.set_defaults(func=_cmd_model)

    p_tr = sub.add_parser("transform", help="apply a transformation to a model")
    p_tr.add_argument("--op", required=True, help="k1 | k2 | cond:<n>,<s>")
    p_tr.add_argument("--input", help="JSON distribution document to transform")
    p_tr.add_argument("--weight", help="build the input model from flags instead")
    p_tr.add_argument("--n", type=int)
    p_tr.add_argument("--r", type=int)
    p_tr.set_defaults(func=_cmd_transform)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "--suite", required=True, choices=("eom", "transforms", "theorem", "classic")
    )
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--max-n", type=int, default=4)
    p_ver.add_argument("--max-r", type=int, default=4)
    p_ver.add_argument("--horizon", type=int, default=3)
    p_ver.set_defaults(func=_cmd_verify)

    p_sm = sub.add_parser("sample", help="draw seeded samples as CSV")
    p_sm.add_argument("--spec", required=True, help="JSON model or process spec file")
    p_sm.add_argument("--paths", type=int, default=1, help="number of draws (>= 0)")
    p_sm.add_argument("--seed", type=int, default=0)
    p_sm.set_defaults(func=_cmd_sample)

    return parser


#: built once per process: each parse makes a fresh namespace, so calls of
#: ``main`` share no state through it
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (EomkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
