"""JSON/CSV codecs: exact strings, canonical ordering, round trips."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eomkit import serialize
from eomkit.models import (
    FractionTable,
    builtin_weight,
    label_distribution,
    masses_of,
    weight_model,
)
from eomkit.process import build_process, count_distribution

F = Fraction

RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def test_fraction_strings():
    entries = serialize.table_entries({(1,): F(2), (0,): F(1, 3), (2,): F(0)})
    assert list(entries) == [[0, "1/3"], [1, "2"], [2, "0"]]
    assert serialize.fraction_from_str("7/2") == F(7, 2)
    assert serialize.fraction_from_str("0") == 0


def test_fraction_strings_bound_their_exponent():
    assert serialize.fraction_from_str("1e3") == 1000
    assert serialize.fraction_from_str("0.5") == F(1, 2)
    assert serialize.fraction_from_str("-2.5E-4300") == F(-5, 2 * 10**4300)
    for text in ("1e4301", "1E+6000000", "1e-999999999"):
        with pytest.raises(ValueError) as refused:
            serialize.fraction_from_str(text)
        assert str(refused.value) == f"exponent in '{text}' is past the limit of 4300"


def test_occupancy_doc_round_trip():
    d = weight_model(builtin_weight("mb", 3), 2, 3)
    doc = serialize.table_doc(d.n, d.r, d.table)
    assert doc["n"] == 2 and doc["r"] == 3
    assert doc["entries"] == sorted(doc["entries"])
    for entry in doc["entries"]:
        assert len(entry) == d.n + 1
        assert RATIONAL.match(entry[-1])
    assert serialize.occupancy_from_doc(doc) == d


def test_no_floats_anywhere():
    d = weight_model(builtin_weight("pc:3", 2), 3, 2)
    text = serialize.to_json(serialize.table_doc(d.n, d.r, d.table))
    assert "." not in text
    parsed = json.loads(text)
    assert all(isinstance(e[-1], str) for e in parsed["entries"])


def test_label_doc():
    ld = label_distribution(weight_model(builtin_weight("be", 2), 2, 2))
    doc = serialize.table_doc(ld.n, ld.r, ld.table)
    assert [e[:-1] for e in doc["entries"]] == [[1, 1], [1, 2], [2, 1], [2, 2]]


def test_occupancy_doc_requires_fields():
    with pytest.raises(ValueError):
        serialize.occupancy_from_doc({"n": 2})
    for doc in (
        {"n": 2, "r": 1, "entries": [5]},
        {"n": 2, "r": 1, "entries": [[]]},
        {"n": 2, "r": 1, "entries": [[None, 1, "1"]]},
        {"n": 2, "r": 1, "entries": [[1, 0, "1/0"]]},
        {"n": 2, "r": 1, "entries": 5},
        {"n": 2.5, "r": 1, "entries": [[1, 0, "1"]]},
        {"n": "2", "r": 1, "entries": [[1, 0, "1"]]},
        {"n": True, "r": 1, "entries": [[1, "1"]]},
        {"n": 2, "r": 1.0, "entries": [[1, 0, "1"]]},
    ):
        with pytest.raises(ValueError):
            serialize.occupancy_from_doc(doc)


def test_weight_doc_and_spec():
    a = builtin_weight("mb", 2)
    entries = serialize.table_entries({(x,): v for x, v in enumerate(a.values)})
    doc = {"values": [value for _, value in entries], "kind": a.kind}
    assert doc == {"values": ["1", "1", "1/2"], "kind": "mb"}
    again = serialize.weight_from_spec(doc, x_max=2)
    assert again.values == a.values
    padded = serialize.weight_from_spec("be", 5)
    assert padded.x_max == 5
    bare = serialize.weight_from_spec(["1", "1", "5"], 2)
    assert bare.values == (F(1), F(1), F(5))
    with pytest.raises(ValueError):
        serialize.weight_from_spec({"kind": "mb"}, 2)
    for spec in (5, None, {"values": 3}, ["1", "1/0"]):
        with pytest.raises(ValueError):
            serialize.weight_from_spec(spec, 2)


def test_a_value_list_is_cut_to_the_occupancies_read():
    assert serialize.weight_from_spec(["1"] * 100_000, 1).x_max == 1
    cut = serialize.weight_from_spec({"values": ["0", "1/2", "1", "3"], "kind": "x"}, 1)
    assert (cut.values, cut.kind) == ((F(0), F(1, 2)), "x")
    # no positive value on 0..x_max: cut just after the first positive one
    assert serialize.weight_from_spec(["0", "0", "1/2", "1"], 1).x_max == 2
    long = serialize.weight_from_spec(["0", "0"] + ["1"] * 8000, 1)
    assert long.values == (F(0), F(0), F(1))
    # lists too short are kept whole, and a list with no positive value
    # is rejected whole
    assert serialize.weight_from_spec(["0", "0", "0", "1"], 5).x_max == 3
    assert serialize.weight_from_spec(["1", "1"], 5).x_max == 1
    with pytest.raises(ValueError, match="positive somewhere"):
        serialize.weight_from_spec(["0"] * 10, 1)
    # the whole list is validated before it is cut
    for spec, text in (
        (["1", "1", "-1"], "weights must be nonnegative"),
        (["1", "1", "1/0"], "zero denominator in '1/0'"),
        (["1", "1", "x"], "Invalid literal for Fraction: 'x'"),
    ):
        with pytest.raises(ValueError, match=text):
            serialize.weight_from_spec(spec, 1)


def process_from_doc(doc):
    return build_process(*serialize.process_spec_from_doc(doc))


def test_process_doc():
    doc = {"weight": "be", "horizon": 1, "terminal_law": ["1/3", "1/3", "1/3"]}
    p = process_from_doc(doc)
    assert p.horizon == 1
    assert count_distribution(p, 1) == {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}
    table_doc = {
        "weight": ["1", "1", "1/2"],
        "horizon": 0,
        "terminal_law": ["1/2", "1/4", "1/4"],
    }
    q = process_from_doc(table_doc)
    assert q.joint == {(0,): F(1, 2), (1,): F(1, 4), (2,): F(1, 4)}
    with pytest.raises(ValueError):
        serialize.process_spec_from_doc({"weight": "be"})
    with pytest.raises(ValueError):
        serialize.process_spec_from_doc({"weight": "be", "horizon": 1, "terminal_law": 5})
    for horizon in (1.7, True, "1"):
        with pytest.raises(ValueError, match="field 'horizon' must be an integer"):
            serialize.process_spec_from_doc(dict(doc, horizon=horizon))
    # a negative horizon is an int, so the builder refuses it
    spec = serialize.process_spec_from_doc(dict(doc, horizon=-1))
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        build_process(*spec)


def test_csv_formats():
    text = serialize.rows_to_csv(serialize.composition_header(2), [(0, 2), (1, 1)])
    assert text == "x1,x2\n0,2\n1,1\n"
    text = serialize.rows_to_csv(serialize.path_header(2), [(1, 0, 2)])
    assert text == "j0,j1,j2\n1,0,2\n"


#: exact tables keyed by int tuples: mappings of rationals, and the same
#: stored as integer masses over one denominator
RATIONALS = st.dictionaries(
    st.lists(st.integers() | st.integers(-(10**60), 10**60), max_size=4).map(tuple),
    st.fractions(),
    max_size=8,
)
TABLES = RATIONALS | RATIONALS.map(lambda t: FractionTable(*masses_of(t)))


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers(), TABLES)
def test_to_json_of_a_table_doc_is_the_text_write_rows_doc_writes(n, r, table):
    chunks = []
    serialize.write_rows_doc(chunks.append, n, r, "entries", serialize.table_entries(table))
    assert serialize.to_json(serialize.table_doc(n, r, table)) == "".join(chunks)


def test_to_json_rejects_a_set():
    with pytest.raises(TypeError):
        serialize.to_json({"a": {1, 2}})


#: quotes, backslashes, control characters and non-ASCII text, often
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\n\t\x7fé€\U0001f600a1') | st.characters())
#: rows as the CLI writes them: table entries and compositions
ROWS = st.lists(
    st.lists(st.one_of(st.integers(), st.integers(-(10**60), 10**60), TEXT), max_size=5),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers(), TEXT.filter(lambda name: name not in ("n", "r")), ROWS)
def test_write_rows_doc_is_indented_json_dumps(n, r, name, rows):
    chunks = []
    serialize.write_rows_doc(chunks.append, n, r, name, (tuple(row) for row in rows))
    assert "".join(chunks) == json.dumps({"n": n, "r": r, name: rows}, indent=2)


def test_write_rows_doc_writes_each_row_before_the_next_is_made():
    chunks = []

    def entries():
        for i in range(3):
            yield [i, "1/3"]
            # the row just yielded is written before the generator resumes
            assert "".join(chunks).count('"1/3"') == i + 1

    serialize.write_rows_doc(chunks.append, 1, 2, "entries", entries())
    expected = {"n": 1, "r": 2, "entries": [[i, "1/3"] for i in range(3)]}
    assert "".join(chunks) == json.dumps(expected, indent=2)
    assert len(chunks) > 3
