"""Tests of the benchmark harness itself (not of the library).

    python3 -m pytest benchmark -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from nonassoc import catalog, change_of_basis, claims, derivation_algebra  # noqa: E402

import run  # noqa: E402
from tracer import ENTRY_POINTS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SCOPES,
    WORKLOADS,
    SeededAlgebras,
    select_records,
    sign_change,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()}


def test_workloads_cover_every_scope_and_entry_point():
    assert set(SCOPES) == set(claims.claim_scopes())
    assert {s for w in WORKLOADS.values() for s in w.scopes} == set(SCOPES)
    reached = {e for w in WORKLOADS.values() for e in w.entry_points}
    assert reached == set(ENTRY_POINTS)


def test_shape5_keeps_the_required_claims():
    ids = {r["id"] for r in select_records(WORKLOADS["shape5"])}
    assert {"shape/W2(big)/14", "shape-basis/W2(big)/14", "shape-combo/st5_2"} <= ids
    assert any(i.startswith("shape/W2(big)/") and not i.endswith("/14") for i in ids)


def _pass(seconds, rss=90.0):
    return {"wall_s": sum(seconds), "peak_rss_mb": rss,
            "claims": [["c%d" % i, "st", True, "True", x] for i, x in enumerate(seconds)]}


def test_end_to_end_names_match_spec():
    passes = [_pass([0.1 * i for i in range(20)])] * 3
    metrics = run.end_to_end(passes, [0.3, 0.4, 0.5])
    assert {k: u for k, (_v, u) in metrics.items()} == _names("end_to_end")
    assert all(v > 0 for v, _u in metrics.values())


def test_claim_times_are_medians_over_passes():
    steady = [0.1 * (i + 1) for i in range(20)]
    slow = [3 * x for x in steady]
    passes = [_pass(steady), _pass(slow, rss=120.0), _pass(steady)]
    assert run.claim_seconds(passes) == steady
    metrics = run.end_to_end(passes, [0.3])
    assert metrics["wall_s"][0] == pytest.approx(sum(steady))
    assert metrics["claim_tail_s"][0] == pytest.approx(steady[9])
    assert metrics["peak_rss_mb"][0] == 90.0


def test_per_layer_names_match_spec_and_every_entry_point_is_reached():
    def first(kind, **fields):
        return next(r for r in claims.load_claims() if r["kind"] == kind
                    and all(r.get(k) == v for k, v in fields.items()))

    small = [
        first("identity_dim", algebra="E2", degree=3),
        first("h2_report", algebra="E2"),
        first("conservative"),
        first("der_dim"),
        first("contraction"),
        first("satisfies", expected=False),
    ]
    tracer = Tracer()
    tracer.install()
    try:
        for rec in small:
            assert claims.run_claim(rec).ok, rec["id"]
    finally:
        tracer.uninstall()
    assert {e for e in ENTRY_POINTS if not tracer.calls[e]} == set()
    units = _names("per_layer")
    claim = ["c", "st", True, "True", 0.5]
    traced = {"trace": tracer.metrics(), "claims": [claim], "cpu_s": 1.0, "wall_s": 1.2}
    metrics = run.per_layer(traced, {"wall_s": 1.0}, units)
    assert set(metrics) == set(units)
    assert set(tracer.metrics()) | {"process.cpu_s", "trace.overhead_s"} | {
        "claims.%s_s" % s for s in SCOPES} == set(units)
    assert metrics["claims.st_s"] == (0.5, "s")
    assert metrics["identities.violations_found"][0] >= 1


def test_tracer_rebinds_names_imported_by_value_and_restores_them():
    import importlib

    identities = importlib.import_module("nonassoc.identities")
    cohomology = importlib.import_module("nonassoc.cohomology")
    conservative = importlib.import_module("nonassoc.conservative")
    before = {
        (m, a): getattr(m, a)
        for m, a in ((identities, "_parallel_blocks"), (cohomology, "_parallel_blocks"),
                     (identities, "_shape_tables"), (cohomology, "_shape_tables"),
                     (identities, "first_violation"), (cohomology, "first_violation"),
                     (conservative, "first_violation"))
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (m, a), orig in before.items():
            assert getattr(m, a) is not orig, "%s.%s not wrapped" % (m.__name__, a)
        assert cohomology._parallel_blocks is not identities._parallel_blocks
    finally:
        tracer.uninstall()
    for (m, a), orig in before.items():
        assert getattr(m, a) is orig


def _records(*kinds):
    return [r for r in claims.load_claims() if r["kind"] in kinds]


def test_seed_zero_resolves_to_the_catalog_tables():
    records = _records("der_dim", "z2_dim", "contraction")
    algebras = SeededAlgebras(records, 0)
    assert algebras.seeded
    for name, a in algebras.seeded.items():
        assert a == claims._algebra(name)
        assert a.c == algebras.recorded[name].c


def test_nonzero_seed_gives_isomorphic_copies():
    algebras = SeededAlgebras(_records("der_dim", "z2_dim"), 7)
    moved = 0
    for name, copy in algebras.seeded.items():
        original = algebras.recorded[name]
        columns = sign_change(7, name, original.dim)  # its own inverse
        assert change_of_basis(copy, columns).c == original.c
        moved += copy.c != original.c
    assert moved
    copy = algebras.seeded["W2bar"]
    assert copy.c != algebras.recorded["W2bar"].c
    assert derivation_algebra(copy)[0] == derivation_algebra(algebras.recorded["W2bar"])[0]


def test_basis_dependent_claims_stay_on_recorded_tables():
    records = _records("contraction", "witness", "der_dim")
    algebras = SeededAlgebras(records, 3)
    undo = algebras.install()
    try:
        for rec in records:
            algebras.current = rec
            assert claims.run_claim(rec).ok, rec["id"]
    finally:
        undo()
    assert claims._algebra("E2") == catalog("E2")


def test_sign_change_is_deterministic_per_seed_and_keeps_the_basis_order():
    assert sign_change(0, "W2bar", 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert sign_change(5, "W2bar", 8) == sign_change(5, "W2bar", 8)
    assert sign_change(5, "W2bar", 8) != sign_change(6, "W2bar", 8)
    columns = sign_change(5, "W2bar", 8)
    assert all(abs(columns[j][i]) == (i == j) for i in range(8) for j in range(8))


@pytest.mark.parametrize("n, value, pct", [
    (5, 2, 50.0),        # too few samples: the median
    (10, 4.5, 50.0),
    (11, 0, 100 / 11),   # exactly ten beyond the lowest sample
    (100, 89, 90.0),
])
def test_tail_rule(n, value, pct):
    got, got_pct = run.tail(list(range(n))[::-1])
    assert got == value
    assert got_pct == pytest.approx(pct)
    xs = sorted(range(n))
    if n > 10:
        assert sum(1 for x in xs if x > got) == 10


def test_fails_without_a_result_when_sources_are_missing(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", HERE)  # a directory without src/
    code = run.main(["--workload", "shape5", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_claims_on_one_algebra_share_its_copy():
    records = select_records(WORKLOADS["shape5"])
    algebras = SeededAlgebras(records, 9)
    assert set(algebras.seeded) == {"W2(big)"}
    for rec in records:
        if rec.get("algebra") == "W2(big)":
            algebras.current = rec
            assert algebras.lookup("W2(big)") is algebras.seeded["W2(big)"]


def test_skipped_claims_are_left_out():
    workload = WORKLOADS["cocycles4"]
    ids = {r["id"] for r in select_records(workload)}
    assert ids and not ids & set(workload.skip)
    assert {"z2/S1bar/st5_2", "S4-equal/B2-C2", "dimS4/W2(big)"} <= ids
