import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pfkit import (
    NotMeasurePreservingError,
    ParseError,
    bundled_example,
    format_fraction,
    input_digest,
    load_system,
    parse_fraction,
    save_system,
    system_from_dict,
    system_to_dict,
    three_point_system,
    transfer_operator,
)
from pfkit.systemio import write_matrix_csv, write_orbit_csv, write_profile_csv


def test_parse_fraction():
    assert parse_fraction("1/2") == Fraction(1, 2)
    assert parse_fraction("0") == 0
    assert parse_fraction("3") == 3
    assert parse_fraction(" 2/4 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["0.5", "1e-3", "abc", "1/0", "", "1.0/2"])
def test_parse_fraction_rejects(bad):
    with pytest.raises(ParseError):
        parse_fraction(bad)


def test_format_fraction():
    assert format_fraction(Fraction(1, 2)) == "1/2"
    assert format_fraction(Fraction(0)) == "0"
    assert format_fraction(Fraction(4, 2)) == "2"


def test_round_trip(tmp_path):
    space, phi = three_point_system()
    named = {"A12": space.set_of(["1", "2"])}
    path = tmp_path / "system.json"
    save_system(path, space, phi, named)
    space2, phi2, named2 = load_system(path)
    assert space2 == space
    assert phi2 == phi
    assert sorted(named2["A12"].labels()) == ["1", "2"]
    # the serialized document is stable under a second round trip
    doc = system_to_dict(space2, phi2, named2)
    assert doc == json.loads(path.read_text())


def test_bundled_example_matches_fixture():
    space, phi, named = bundled_example()
    ref_space, ref_phi = three_point_system()
    assert space == ref_space
    assert phi == ref_phi
    assert set(named) == {"A1", "A12", "A13"}


def test_missing_field():
    with pytest.raises(ParseError):
        system_from_dict({"atoms": ["a"], "masses": ["1"]})


def test_length_mismatch():
    with pytest.raises(ParseError):
        system_from_dict({"atoms": ["a", "b"], "masses": ["1"], "map": ["a", "b"]})


def test_unknown_map_target():
    with pytest.raises(ParseError):
        system_from_dict({"atoms": ["a"], "masses": ["1"], "map": ["z"]})


def test_unknown_named_set_atom():
    doc = {
        "atoms": ["a"],
        "masses": ["1"],
        "map": ["a"],
        "named_sets": {"S": ["z"]},
    }
    with pytest.raises(ParseError):
        system_from_dict(doc)


_GOOD = {"atoms": ["a"], "masses": ["1"], "map": ["a"]}


@pytest.mark.parametrize(
    "override",
    [
        {"atoms": "a"},
        {"atoms": {"a": 1}},
        {"atoms": 5},
        {"masses": "1"},
        {"map": "a"},
        {"map": [["a"]]},
        {"named_sets": ["S"]},
        {"named_sets": {"S": 5}},
        {"named_sets": {"S": "a"}},
        {"named_sets": {"S": [["a"]]}},
    ],
)
def test_field_types_are_checked(override):
    with pytest.raises(ParseError):
        system_from_dict({**_GOOD, **override})


def test_schema_version_gate():
    doc = {"schema_version": "2", "atoms": ["a"], "masses": ["1"], "map": ["a"]}
    with pytest.raises(ParseError):
        system_from_dict(doc)


def test_float_masses_rejected():
    doc = {"atoms": ["a", "b"], "masses": ["0.5", "0.5"], "map": ["a", "b"]}
    with pytest.raises(ParseError):
        system_from_dict(doc)


def test_invalid_measure_rejected_as_parse_error():
    doc = {"atoms": ["a", "b"], "masses": ["1/2", "1/4"], "map": ["a", "b"]}
    with pytest.raises(ParseError):
        system_from_dict(doc)


def test_bad_dynamics_raises_domain_error():
    doc = {"atoms": ["a", "b"], "masses": ["1/2", "1/2"], "map": ["a", "a"]}
    with pytest.raises(NotMeasurePreservingError):
        system_from_dict(doc)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_system(path)


def test_input_digest_is_sha256(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("payload")
    import hashlib

    assert input_digest(path) == hashlib.sha256(b"payload").hexdigest()


def test_orbit_csv():
    buf = io.StringIO()
    write_orbit_csv(
        buf,
        [
            (0, ["1", "2"], Fraction(1, 2), Fraction(1, 2)),
            (1, ["1", "3"], Fraction(1), None),
        ],
    )
    assert buf.getvalue().splitlines() == [
        "n,set,measure,d_to_limit",
        "0,1|2,1/2,1/2",
        "1,1|3,1,",
    ]


def test_profile_csv():
    buf = io.StringIO()
    write_profile_csv(buf, [Fraction(1, 4), Fraction(0)])
    assert buf.getvalue().splitlines() == ["n,defect", "0,1/4", "1,0"]


def test_matrix_csv():
    space, phi = three_point_system()
    buf = io.StringIO()
    write_matrix_csv(buf, transfer_operator(phi))
    assert buf.getvalue().splitlines() == ["i,j,p", "0,0,1", "1,1,1"]


_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
_labels = st.sampled_from(["a", "b", "c"])
_masses = st.sampled_from(["0", "1", "1/2", "1/3", "2/3"]) | st.sampled_from(
    ["-1/2", "3/2", "1/0", "0.5", "x"]
)


def _near_system(k):
    """Documents shaped like a system of k atoms, with a stray value here
    and there, so the checks behind the shape checks are reached too."""
    def column(good):
        return (
            st.lists(good, min_size=k, max_size=k)
            | st.lists(good | _json, min_size=k, max_size=k)
            | st.lists(_json, max_size=4)
        )

    return st.fixed_dictionaries(
        {"atoms": column(_labels), "masses": column(_masses), "map": column(_labels)},
        optional={
            "schema_version": st.just("1") | _json,
            "named_sets": st.dictionaries(
                st.text(max_size=3), st.lists(_labels, max_size=3) | _json, max_size=3
            )
            | _json,
        },
    )


_near_systems = st.integers(0, 3).flatmap(_near_system)


@settings(max_examples=300)
@given(_json | _near_systems)
def test_untrusted_documents_fail_only_as_input_errors(doc):
    """Arbitrary JSON, and documents shaped almost like a system, either
    load or raise one of the two input errors; nothing else escapes."""
    try:
        system_from_dict(doc)
    except (ParseError, NotMeasurePreservingError):
        pass
