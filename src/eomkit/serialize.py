"""Canonical JSON and CSV encodings.

Probabilities and weights always travel as exact "num/den" strings (plain
integers when the denominator is 1), never as floats.  Table entries are
emitted in sorted key order so equal objects serialize to identical bytes.
"""

import csv
import io
import json
import math
from fractions import Fraction

from .models import (
    LabelDistribution,
    OccupancyDistribution,
    WeightFunction,
    builtin_weight,
    masses_of,
)
from .process import FiniteProcess, build_process


def fraction_to_str(q) -> str:
    return str(Fraction(q))


def fraction_from_str(s) -> Fraction:
    try:
        return Fraction(str(s))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def table_doc(n: int, r: int, table: dict) -> dict:
    """Canonical document for any exact table keyed by int tuples.

    Each entry is written from its integer mass (see ``masses_of``) in
    lowest terms, as ``fraction_to_str`` would write its probability.
    """
    den, masses = masses_of(table)
    entries = []
    for key in sorted(masses):
        m = masses[key]
        g = math.gcd(m, den)
        q = f"{m // g}/{den // g}" if g != den else str(m // g)
        entries.append([*key, q])
    return {"n": n, "r": r, "entries": entries}


def occupancy_to_doc(d: OccupancyDistribution) -> dict:
    return table_doc(d.n, d.r, d.table)


def labels_to_doc(ld: LabelDistribution) -> dict:
    return table_doc(ld.n, ld.r, ld.table)


def int_field(doc: dict, name: str) -> int:
    """``doc[name]``, which must be an int: floats, booleans and numeric
    strings are rejected, not truncated or converted."""
    value = doc[name]
    if type(value) is not int:
        raise ValueError(f"field {name!r} must be an integer, got {value!r}")
    return value


def occupancy_from_doc(doc: dict) -> OccupancyDistribution:
    try:
        n, r, entries = int_field(doc, "n"), int_field(doc, "r"), doc["entries"]
    except (KeyError, TypeError):
        raise ValueError("distribution document needs fields n, r, entries") from None
    if not isinstance(entries, list):
        raise ValueError("distribution document needs a list of entries")
    table = {_entry_key(entry): fraction_from_str(entry[-1]) for entry in entries}
    return OccupancyDistribution(n, r, table)


def _entry_key(entry) -> tuple[int, ...]:
    """The counts of a table entry, which must be ints (see ``int_field``)."""
    if isinstance(entry, list) and entry and all(type(v) is int for v in entry[:-1]):
        return tuple(entry[:-1])
    raise ValueError(
        f"distribution entry {entry!r} is not a list [x_1, ..., x_n, p] "
        "of integer counts and a probability"
    )


def weight_to_doc(a: WeightFunction) -> dict:
    doc = {"values": [fraction_to_str(v) for v in a.values]}
    if a.kind:
        doc["kind"] = a.kind
    return doc


def _values(values, what: str) -> tuple[Fraction, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {values!r}")
    return tuple(fraction_from_str(v) for v in values)


def weight_from_spec(spec, x_max: int) -> WeightFunction:
    """Build a weight table from a builtin name, a value list, or a document.

    Builtin names are padded out to ``x_max``; explicit value lists are taken
    as given (and must already reach any occupancy the caller will query).
    Any other spec is a ValueError.
    """
    if isinstance(spec, str):
        return builtin_weight(spec, x_max)
    if isinstance(spec, dict):
        try:
            values = spec["values"]
        except KeyError:
            raise ValueError("weight document needs a values field") from None
        return WeightFunction(_values(values, "weight values"), kind=spec.get("kind"))
    if isinstance(spec, (list, tuple)):
        return WeightFunction(_values(spec, "weight values"))
    raise ValueError(
        f"weight spec must be a builtin name, a value list or a document, got {spec!r}"
    )


def process_from_doc(doc: dict) -> FiniteProcess:
    """Build a process from {"weight": ..., "horizon": M, "terminal_law": [...]}."""
    try:
        weight_spec = doc["weight"]
        horizon = int_field(doc, "horizon")
        terminal = doc["terminal_law"]
    except (KeyError, TypeError):
        raise ValueError(
            "process document needs fields weight, horizon, terminal_law"
        ) from None
    pi = _values(terminal, "terminal_law")
    cap = len(pi) - 1
    a = weight_from_spec(weight_spec, max(cap, 0))
    return build_process(a, horizon, pi)


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def rows_to_csv(header: list[str], rows) -> str:
    """CSV text with a fixed header; newline is always a bare LF."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def compositions_to_csv(compositions, n: int) -> str:
    return rows_to_csv([f"x{j}" for j in range(1, n + 1)], compositions)


def paths_to_csv(paths, horizon: int) -> str:
    return rows_to_csv([f"j{t}" for t in range(horizon + 1)], paths)
