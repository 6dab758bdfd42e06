import json

import pytest

from nonassoc.catalog import catalog
from nonassoc.formats import (
    FormatError,
    algebra_from_dict,
    algebra_to_dict,
    identity_from_dict,
    identity_to_dict,
    load_algebra,
    load_identity,
    product_rows,
    save_algebra,
    save_identity,
)
from nonassoc.monomials import st_identity


def test_algebra_round_trip_is_byte_stable(tmp_path):
    a = catalog("W2bar")
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_algebra(a, str(p1))
    loaded = load_algebra(str(p1))
    assert loaded == a
    assert loaded.name == a.name
    save_algebra(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_identity_round_trip_is_byte_stable(tmp_path):
    c = st_identity(4, 2).scaled(-3)
    p1 = tmp_path / "c.json"
    p2 = tmp_path / "d.json"
    save_identity(c, str(p1))
    loaded = load_identity(str(p1))
    assert loaded.degree == c.degree and loaded.coeffs == c.coeffs
    save_identity(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_product_rows_lists_nonzero_products_sorted():
    a = catalog("E2")
    rows = product_rows(a)
    assert rows == [
        {"i": 1, "j": 1, "v": ["-1", "0"]},
        {"i": 1, "j": 2, "v": ["0", "-3"]},
        {"i": 2, "j": 1, "v": ["0", "3"]},
    ]


def test_product_rows_accepts_plain_bilinear_maps():
    from nonassoc.algebras import BilinearMap

    m = BilinearMap.from_products(2, {(2, 1): [0, 5]})
    assert product_rows(m) == [{"i": 2, "j": 1, "v": ["0", "5"]}]


def test_fraction_entries_survive_the_trip():
    a = catalog("Sab_bar(1/2,-2/3)")
    assert algebra_from_dict(algebra_to_dict(a)) == a


def _valid_algebra_dict():
    return {
        "name": "tiny",
        "dim": 2,
        "products": [{"i": 1, "j": 2, "v": ["1", "-1/2"]}],
    }


def test_algebra_diagnostics_pinpoint_the_field():
    cases = [
        (dict(_valid_algebra_dict(), dim=-1), "dim: expected a nonnegative integer"),
        (
            dict(_valid_algebra_dict(), products=[{"i": 3, "j": 1, "v": ["0", "0"]}]),
            "products[0]: index (3,1) out of range for dim 2",
        ),
        (
            dict(_valid_algebra_dict(), products=[{"i": 1, "j": 1, "v": ["1/0", "0"]}]),
            "products[0].v[0]: zero denominator in rational '1/0'",
        ),
        (
            dict(_valid_algebra_dict(), products=[{"i": 1, "j": 1, "v": ["0"]}]),
            "products[0]: vector v must list 2 rationals",
        ),
        (
            dict(
                _valid_algebra_dict(),
                products=[
                    {"i": 1, "j": 1, "v": ["1", "0"]},
                    {"i": 1, "j": 1, "v": ["0", "1"]},
                ],
            ),
            "products[1]: duplicate product entry (1,1)",
        ),
        (
            dict(_valid_algebra_dict(), products=[{"i": 1, "j": "x", "v": []}]),
            "products[0]: indices i, j must be integers",
        ),
        (dict(_valid_algebra_dict(), dim=True), "dim: expected a nonnegative integer, got True"),
        (
            dict(_valid_algebra_dict(), products=[{"i": True, "j": 1, "v": ["1", "0"]}]),
            "products[0]: indices i, j must be integers",
        ),
        (
            dict(_valid_algebra_dict(), products=[{"i": 1, "j": False, "v": ["1", "0"]}]),
            "products[0]: indices i, j must be integers",
        ),
        ([], "algebra: expected a JSON object"),
    ]
    for data, fragment in cases:
        with pytest.raises(FormatError) as exc:
            algebra_from_dict(data)
        assert fragment in str(exc.value), fragment


def _valid_identity_dict():
    return {
        "degree": 3,
        "terms": [{"shape": "(xx)x", "perm": [1, 2, 3], "coef": "2"}],
    }


def test_identity_diagnostics_pinpoint_the_field():
    cases = [
        (dict(_valid_identity_dict(), degree=7), "degree: expected an integer in 2..5"),
        (
            dict(
                _valid_identity_dict(),
                terms=[{"shape": "(xx)x", "perm": [1, 2], "coef": "1"}],
            ),
            "terms[0].perm: must be a permutation of 1..3, got [1, 2]",
        ),
        (
            dict(
                _valid_identity_dict(),
                terms=[{"shape": "xx", "perm": [1, 2, 3], "coef": "1"}],
            ),
            "terms[0].shape: has 2 leaves, degree is 3",
        ),
        (
            dict(
                _valid_identity_dict(),
                terms=[{"shape": "(xx)x", "perm": [1, 2, 3], "coef": "1.5"}],
            ),
            "terms[0].coef",
        ),
        (
            dict(_valid_identity_dict(), terms=[{"shape": "((x)", "perm": [1], "coef": "1"}]),
            "terms[0].shape",
        ),
        (
            dict(
                _valid_identity_dict(),
                terms=[{"shape": "(xx)x", "perm": [True, 2, 3], "coef": "1"}],
            ),
            "terms[0].perm: must be a permutation of 1..3, got [True, 2, 3]",
        ),
        (dict(_valid_identity_dict(), degree=True), "degree: expected an integer in 2..5"),
        ("nope", "identity: expected a JSON object"),
    ]
    for data, fragment in cases:
        with pytest.raises(FormatError) as exc:
            identity_from_dict(data)
        assert fragment in str(exc.value), fragment


def test_duplicate_terms_accumulate():
    c = identity_from_dict(
        {
            "degree": 3,
            "terms": [
                {"shape": "(xx)x", "perm": [1, 2, 3], "coef": "2"},
                {"shape": "(xx)x", "perm": [1, 2, 3], "coef": "1/2"},
            ],
        }
    )
    terms = c.terms()
    assert len(terms) == 1
    assert terms[0][1] == 2.5


def test_invalid_json_mentions_the_path(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(FormatError) as exc:
        load_algebra(str(p))
    assert str(p) in str(exc.value)
    assert "invalid JSON" in str(exc.value)


def test_identity_name_round_trip(tmp_path):
    c = st_identity(3, 1)
    d = identity_to_dict(c)
    assert d["name"] == "st3_1"
    assert identity_from_dict(d).name == "st3_1"
    anon = identity_from_dict({"degree": 3, "terms": []})
    assert anon.name == ""
    assert not any(anon.coeffs)
    assert "name" not in identity_to_dict(anon)


def test_saved_file_is_valid_json(tmp_path):
    p = tmp_path / "w.json"
    save_algebra(catalog("D2"), str(p))
    data = json.loads(p.read_text())
    assert data["dim"] == 3
    assert all(set(r) == {"i", "j", "v"} for r in data["products"])
