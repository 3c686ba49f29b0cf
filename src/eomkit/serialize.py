"""Canonical JSON and CSV encodings.

Probabilities and weights always travel as exact "num/den" strings (plain
integers when the denominator is 1), never as floats.  Table entries are
emitted in sorted key order so equal objects serialize to identical bytes.
Every large JSON document is one shape, ``{"n", "r", <rows>}``: the
entries of a table or a list of compositions, rows of ints and strings.
``write_rows_doc`` writes it, and ``write_csv`` its CSV, one row at a time
as the row is formatted (a table's entries from its integer masses), so no
list of entries or whole-output string is built.  Small documents, such as
a ``verify`` report, are ``json.dumps`` text.
"""

import csv
import io
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .models import (
    OccupancyDistribution,
    WeightFunction,
    builtin_weight,
    masses_of,
)


#: the largest |exponent| of an exact string such as "1e3": Python's limit on
#: the digits of an int string, as ``Fraction`` builds 10**|exponent|
MAX_EXPONENT = 4300


def fraction_from_str(s) -> Fraction:
    text = str(s)
    try:
        exponent = abs(int(text.lower().partition("e")[2]))
    except ValueError:  # no exponent, or one that Fraction refuses too
        exponent = 0
    if exponent > MAX_EXPONENT:
        raise ValueError(f"exponent in {text!r} is past the limit of {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def table_entries(table):
    """Yield the entries ``[*key, "num/den"]`` of an exact table keyed by
    int tuples, in sorted key order.

    Each probability is written from its integer mass (see ``masses_of``) in
    lowest terms, as ``str`` writes its ``Fraction``.
    """
    den, masses = masses_of(table)
    gcd = math.gcd
    for key in sorted(masses):
        m = masses[key]
        g = gcd(m, den)
        yield [*key, f"{m // g}/{den // g}" if g != den else str(m // g)]


def table_doc(n: int, r: int, table: dict) -> dict:
    """Canonical document for any exact table keyed by int tuples."""
    return {"n": n, "r": r, "entries": list(table_entries(table))}


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
    table = {}
    for entry in entries:
        key = _entry_key(entry)
        if key in table:
            raise ValueError(f"duplicate entry {key}")
        table[key] = fraction_from_str(entry[-1])
    return OccupancyDistribution(n, r, table)


def _entry_key(entry) -> tuple[int, ...]:
    """The counts of a table entry, which must be ints (see ``int_field``)."""
    if isinstance(entry, list) and entry and all(type(v) is int for v in entry[:-1]):
        return tuple(entry[:-1])
    raise ValueError(
        f"distribution entry {entry!r} is not a list [x_1, ..., x_n, p] "
        "of integer counts and a probability"
    )


def _values(values, what: str) -> tuple[Fraction, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {values!r}")
    return tuple(fraction_from_str(v) for v in values)


def weight_from_spec(spec, x_max: int) -> WeightFunction:
    """Build a weight table from a builtin name, a value list, or a document.

    Builtin names are padded out to ``x_max``.  An explicit value list is
    validated whole, then cut to 0..max(x_max, i0), i0 its first positive
    index: no caller reads past x_max (a model's r, a process's largest
    total), and the rest would only lengthen the normalizer rows.  A list
    with no positive value is taken as given.  Any other spec is a ValueError.
    """
    if isinstance(spec, str):
        return builtin_weight(spec, x_max)
    kind = None
    if isinstance(spec, dict):
        try:
            spec, kind = spec["values"], spec.get("kind")
        except KeyError:
            raise ValueError("weight document needs a values field") from None
    elif not isinstance(spec, (list, tuple)):
        raise ValueError(
            f"weight spec must be a builtin name, a value list or a document, got {spec!r}"
        )
    values = _values(spec, "weight values")
    first = next((i for i, v in enumerate(values) if v), None)
    if min(values, default=0) >= 0 and first is not None:
        values = values[: max(x_max, first) + 1]
    return WeightFunction(values, kind=kind)


def process_spec_from_doc(doc: dict) -> tuple[WeightFunction, int, tuple[Fraction, ...]]:
    """The (weight, horizon, terminal law) of a process document
    {"weight": ..., "horizon": M, "terminal_law": [...]}, the arguments of
    ``process.build_process`` and ``process.sample_paths``, which check
    them further."""
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
    return weight_from_spec(weight_spec, max(cap, 0)), horizon, pi


#: JSON text of the scalars that fill a row; the exact types, so that
#: booleans are not written as ints
_ATOMS = {int: repr, str: encode_basestring_ascii}


def write_rows_doc(write, n: int, r: int, name: str, rows) -> None:
    """Send the text of ``json.dumps({"n": n, "r": r, name: [list(row) for
    row in rows]}, indent=2)`` through ``write``, for rows of ints and
    strings.

    The head is written first, then each row as one ``join``, so a generator
    of rows is read only as far as the text already written.
    """
    write(f'{{\n  "n": {n!r},\n  "r": {r!r},\n  {encode_basestring_ascii(name)}: [')
    separator = "\n    "
    for row in rows:
        parts = [_ATOMS[type(v)](v) for v in row]
        write(separator + ("[\n      " + ",\n      ".join(parts) + "\n    ]" if parts else "[]"))
        separator = ",\n    "
    write("]\n}" if separator == "\n    " else "\n  ]\n}")


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def write_csv(out, header: list[str], rows) -> None:
    """Write CSV with a fixed header to the text stream ``out``; newline is
    always a bare LF."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def rows_to_csv(header: list[str], rows) -> str:
    """The text ``write_csv`` writes."""
    buf = io.StringIO()
    write_csv(buf, header, rows)
    return buf.getvalue()


def composition_header(n: int) -> list[str]:
    return [f"x{j}" for j in range(1, n + 1)]


def path_header(horizon: int) -> list[str]:
    return [f"j{t}" for t in range(horizon + 1)]
