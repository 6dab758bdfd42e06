import hashlib
import json
from pathlib import Path

import pytest

from nonassoc.claims import (
    ClaimResult,
    UnknownIdentityError,
    _RUNNERS,
    claim_scopes,
    describe_identity,
    identity_names,
    load_claims,
    named_identity,
    resolve_identity,
    run_claim,
    run_claims,
)
from nonassoc.monomials import st_identity, tail_fixed_alternating


def test_registry_is_sorted_and_unique():
    recs = load_claims()
    assert len(recs) == 330
    ids = [r["id"] for r in recs]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_scope_inventory():
    recs = load_claims()
    by_scope = {}
    for r in recs:
        by_scope[r["scope"]] = by_scope.get(r["scope"], 0) + 1
    assert by_scope == {
        "cohomology": 132,
        "st": 78,
        "conservative": 50,
        "identities": 40,
        "shapes": 16,
        "contractions": 12,
        "derivations": 2,
    }
    assert claim_scopes() == tuple(sorted(by_scope))


def test_every_kind_has_a_runner():
    kinds = {r["kind"] for r in load_claims()}
    assert kinds <= set(_RUNNERS)


# one perturbed copy of a registry record per claim kind, each made to fail:
# the registry digest in CI pins only what a passing claim prints
_PERTURBED = [
    ("der/W2(big)", lambda r: {"expected": r["expected"] + 1}),
    ("contract/S1bar", lambda r: {"target": "S5bar"}),
    ("terminal/B2", lambda r: {"expected": not r["expected"]}),
    ("conservative/S1_sub", lambda r: {"expected": not r["expected"]}),
    ("witness/S5_sub", lambda r: {"products": r["products"][1:]}),
    ("ideal/W2bar", lambda r: {"span": [1, 2]}),
    ("dimS3/B2", lambda r: {"expected": r["expected"] + 1}),
    ("S4-equal/B2-C2", lambda r: {"right": "E2"}),
    ("st/S1bar/st3_1", lambda r: {"expected": not r["expected"]}),
    ("basis-S3/W2tildetilde", lambda r: {"identities": r["identities"][1:]}),
    ("shape/W2(big)/01", lambda r: {"expected": r["expected"] + 1}),
    ("shape-basis/W2(big)/14", lambda r: {"identities": ["tail5_1"] + r["identities"][:-1]}),
    ("shape-combo/st5_2", lambda r: {"equals": "st5_1"}),
    ("b2/E2", lambda r: {"expected": r["expected"] + 1}),
    ("z2/E2/st3_1", lambda r: {"expected": r["expected"] + 1}),
    ("z2-undef/B2/st3_1", lambda r: {"algebra": "E2"}),
    ("h2-terminal/E2", lambda r: {"expected_h2": 1, "expected_z2": 0}),
]


def test_every_kind_renders_its_failure_unchanged():
    registry = {r["id"]: r for r in load_claims()}
    keep = []
    for claim_id, change in _PERTURBED:
        rec = dict(registry[claim_id], **change(registry[claim_id]))
        res = run_claim(rec)
        keep.append([rec["kind"], res.expected, res.computed, res.ok])
    assert sorted(kind for kind, *_ in keep) == sorted(_RUNNERS)
    assert not any(ok for *_, ok in keep)
    assert hashlib.sha256(json.dumps(keep).encode()).hexdigest() == (
        "ee708d02ab57d1eeb62ad0da1b37db29b3d24193c5511d2046efddecc3551fc3")


def test_registry_file_matches_loader():
    path = Path(__file__).resolve().parents[1] / "src" / "nonassoc" / "data" / "claims.json"
    raw = json.loads(path.read_text())["claims"]
    assert len(raw) == len(load_claims())


def test_named_identity_family():
    assert named_identity("st4_2") == st_identity(4, 2)
    assert named_identity("tail5_3") == tail_fixed_alternating(5, 3)
    assert named_identity("terminal").degree == 4
    assert set(identity_names()) == {
        "st3_1", "st3_2", "st4_1", "st4_2", "st5_1", "st5_2", "terminal",
        "tail3_1", "tail3_2", "tail3_3", "tail4_1", "tail4_2", "tail4_3", "tail4_4",
        "tail5_1", "tail5_2", "tail5_3", "tail5_4", "tail5_5",
    }
    for name in identity_names():
        named_identity(name)


def test_a_name_resolves_exactly_when_it_is_listed():
    grid = (["st%d_%d" % (n, v) for n in range(1, 7) for v in range(4)]
            + ["tail%d_%d" % (n, j) for n in range(1, 7) for j in range(7)]
            + ["terminal", "bogus"])
    for name in grid:
        try:
            named_identity(name)
            resolves = True
        except UnknownIdentityError:
            resolves = False
        assert resolves == (name in identity_names()), name


def test_unknown_identity_suggestions():
    with pytest.raises(UnknownIdentityError) as exc:
        named_identity("st6_1")
    assert exc.value.suggestions == [
        "st3_1", "st3_2", "st4_1", "st4_2", "st5_1", "st5_2",
    ]
    with pytest.raises(UnknownIdentityError):
        named_identity("tail5_9")


def test_resolve_identity_forms():
    assert resolve_identity("st3_1") == st_identity(3, 1)
    combo = resolve_identity({"combo": [["2", "st3_1"], ["3", "st3_2"]]})
    want = st_identity(3, 1).scaled(2).plus(st_identity(3, 2).scaled(3))
    assert combo.degree == 3 and combo.coeffs == want.coeffs
    inline = resolve_identity(
        {"degree": 3, "terms": [{"shape": "(xx)x", "perm": [2, 1, 3], "coef": "-1"}]}
    )
    assert inline.degree == 3
    with pytest.raises(TypeError):
        resolve_identity(42)


def test_describe_identity():
    assert describe_identity("st5_2") == "st5_2"
    assert describe_identity({"combo": [["2", "st3_1"], ["3", "st3_2"]]}) == "2*st3_1 + 3*st3_2"
    assert describe_identity({"degree": 4, "terms": []}) == "inline degree-4 identity"
    assert describe_identity({"degree": 4, "terms": [], "name": "custom"}) == "custom"


def test_run_claim_success():
    rec = next(r for r in load_claims() if r["id"] == "der/W2(big)")
    res = run_claim(rec)
    assert isinstance(res, ClaimResult)
    assert res.ok
    assert res.claim_id == "der/W2(big)"
    assert res.scope == "derivations"
    assert res.expected == res.computed == "2"
    assert res.seconds >= 0


def test_run_claim_detects_wrong_expectation():
    rec = dict(next(r for r in load_claims() if r["id"] == "der/W2(big)"))
    rec["expected"] = 99
    res = run_claim(rec)
    assert not res.ok
    assert res.expected == "99"
    assert res.computed == "2"


def test_run_claim_catches_evaluation_errors():
    rec = {
        "id": "x/y",
        "scope": "derivations",
        "kind": "der_dim",
        "algebra": "NoSuchAlgebra",
        "expected": 0,
    }
    res = run_claim(rec)
    assert not res.ok
    assert res.computed.startswith("error:")
    assert res.expected == "no error"


def test_run_claims_scope_filter_and_progress():
    seen = []
    results = run_claims(scope="derivations", progress=seen.append)
    assert len(results) == 2
    assert seen == results
    assert all(r.ok for r in results)
    assert [r.claim_id for r in results] == sorted(r.claim_id for r in results)


def test_run_claims_rejects_unknown_scope():
    with pytest.raises(ValueError) as exc:
        run_claims(scope="nonsense")
    assert "unknown claim scope" in str(exc.value)


def test_contraction_scope_runs_clean():
    assert all(r.ok for r in run_claims(scope="contractions"))


def test_named_identity_builds_each_name_once():
    for name in identity_names():
        assert named_identity(name) is named_identity(name)
    assert resolve_identity("st5_1") is named_identity("st5_1")


def test_run_claims_resolves_each_algebra_name_once(monkeypatch):
    from nonassoc import claims

    resolve = claims._algebra
    seen = []

    def counting(name):
        seen.append(name)
        return resolve(name)

    st = [r for r in load_claims() if r["scope"] == "st"]
    records = st[:3] + st[6:9]  # three claims on each of two algebras
    bad = dict(records[1], id="st/NoSuchAlgebra/x", algebra="NoSuchAlgebra")
    records = tuple(sorted(records + [bad, dict(bad, id="st/NoSuchAlgebra/y")],
                           key=lambda r: r["id"]))
    monkeypatch.setattr(claims, "load_claims", lambda: records)
    monkeypatch.setattr(claims, "_algebra", counting)
    results = {r.claim_id: r for r in run_claims()}
    good = {r["algebra"] for r in records} - {"NoSuchAlgebra"}
    # resolved through the patched module-level _algebra, each good name once;
    # an unknown name is tried, and fails, on each claim that names it
    assert len(good) == 2
    assert sorted(seen) == sorted([*good, "NoSuchAlgebra", "NoSuchAlgebra"])
    for rec in records:
        res = results[rec["id"]]
        if rec["algebra"] == "NoSuchAlgebra":
            assert not res.ok and res.computed.startswith("error:")
        else:
            assert res.ok, rec["id"]
    # run_claim alone resolves on every call
    seen.clear()
    run_claim(records[0])
    run_claim(records[0])
    assert seen == [records[0]["algebra"]] * 2
