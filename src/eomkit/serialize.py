"""Canonical JSON and CSV encodings.

Probabilities and weights always travel as exact "num/den" strings (plain
integers when the denominator is 1), never as floats.  Table entries are
emitted in sorted key order so equal objects serialize to identical bytes.
Documents are written as they are formatted (``write_json``, ``write_csv``):
a table's entries are formatted one at a time from its integer masses, so
no list of entries or whole-output string is built.
"""

import csv
import io
import itertools
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from .models import (
    OccupancyDistribution,
    WeightFunction,
    builtin_weight,
    masses_of,
)
from .process import FiniteProcess, build_process


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


#: JSON text of the scalars that fill table entries and compositions; the
#: exact types, so that booleans are not written as ints
_ATOMS = {int: repr, str: encode_basestring_ascii}


def write_json(doc, write) -> None:
    """Send the text of ``json.dumps(doc, indent=2)`` through ``write``.

    Objects and arrays (lists, tuples and generators) are written one
    member at a time, so a generator is read only as far as the text
    already written.  An array of ints and strings is written whole: its
    text is one ``join``.
    """
    text = _flat_text(doc, "\n")
    if text is None:
        _write_container(doc, write, "", "\n")
    else:
        write(text)


def _write_container(value, write, prefix: str, newline: str) -> None:
    """Write ``prefix`` and then the JSON text of a dict or an array whose
    members ``_flat_text`` does not join; nested lines start with
    ``newline`` (a line break and the indent)."""
    inner = newline + "  "
    if isinstance(value, dict):
        opening, closing = "{", "}"
        labels = (_key_text(k) + ": " for k in value)
        members = value.values()
    else:
        opening, closing = "[", "]"
        labels, members = itertools.repeat(""), value
    separator = prefix + opening + inner
    empty = True
    for label, member in zip(labels, members):
        text = _flat_text(member, inner)
        if text is None:
            _write_container(member, write, separator + label, inner)
        else:
            write(separator + label + text)
        separator = "," + inner
        empty = False
    write(prefix + opening + closing if empty else newline + closing)


def _flat_text(value, newline: str):
    """The JSON text of a scalar, or of a list or tuple of ints and strings;
    None for a container that ``_write_container`` writes member by member."""
    if isinstance(value, (list, tuple)):
        try:
            parts = [_ATOMS[type(v)](v) for v in value]
        except KeyError:
            return None
        if not parts:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    atom = _ATOMS.get(type(value))
    if atom is not None:
        return atom(value)
    if isinstance(value, (dict, GeneratorType)):
        return None
    return json.dumps(value)  # None, booleans, floats; raises on anything else


def _key_text(key) -> str:
    """An object key as ``json.dumps`` writes it."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def to_json(doc: dict) -> str:
    chunks: list[str] = []
    write_json(doc, chunks.append)
    return "".join(chunks)


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
