"""End-to-end checks of the command line front end.

Every test drives ``main(argv)`` directly and inspects stdout/stderr via
capsys.  The math behind each subcommand is covered elsewhere; here we
pin down exit codes, output formats, the catalog/file fallback, and the
error paths a user is most likely to hit.
"""

import json
import subprocess
import sys

import pytest

from nonassoc.algebras import Algebra, derivation_algebra
from nonassoc.catalog import catalog, catalog_names
from nonassoc.claims import load_claims, named_identity, resolve_identity
from nonassoc.cli import main
from nonassoc.conservative import conservative_solve, first_terminal_violation
from nonassoc.contraction import iw_contract
from nonassoc.formats import (
    algebra_to_dict,
    identity_from_dict,
    product_rows,
    save_algebra,
    save_identity,
)
from nonassoc.identities import first_violation, shape_identity_space
from nonassoc.monomials import shapes


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_catalog_lists_every_entry(capsys):
    rc, out, err = run(capsys, "catalog")
    assert rc == 0 and err == ""
    lines = out.strip().split("\n")
    assert len(lines) == len(catalog_names()) == 19
    for key, line in zip(catalog_names(), lines):
        assert line.startswith(key) or line.split()[0] == key
    by_key = {line.split("  dim ")[0].strip(): line for line in lines}
    assert "dim 8  fixed table" in by_key["W2(big)"]
    assert "dim 8  parameterized table" in by_key["Sab_bar(α,β)"]
    # the note already says parameterized, so no extra mark is appended
    assert "(parameterized)" not in by_key["Sab_bar(α,β)"]
    assert "restriction of W2(big) to e_1,e_3,e_4,e_5,e_6,e_7,e_8" \
        in by_key["B2"]


def test_show_prints_loadable_json(capsys):
    rc, out, err = run(capsys, "show", "W2bar")
    assert rc == 0
    assert json.loads(out) == algebra_to_dict(catalog("W2bar"))


def test_show_output_feeds_back_in_as_a_file(capsys, tmp_path):
    rc, out, _ = run(capsys, "show", "W2bar")
    assert rc == 0
    path = tmp_path / "w2bar.json"
    path.write_text(out)
    expected = derivation_algebra(catalog("W2bar"))[0]
    rc, out, _ = run(capsys, "derivations", str(path))
    assert rc == 0
    assert out.strip() == "dim Der(W2bar) = %d" % expected


def test_derivations_basis_flag(capsys):
    rc, out, _ = run(capsys, "derivations", "W2(big)", "--basis")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "dim Der(W2(big)) = 2"
    assert sum(1 for l in lines if l.startswith("D")) == 2
    assert "D1:" in lines and "D2:" in lines
    matrix_rows = [l for l in lines if l.strip().startswith("[")]
    assert len(matrix_rows) == 2 * 8
    assert all(len(row.split(",")) == 8 for row in matrix_rows)


def test_contract_matches_the_library_call(capsys):
    rc, out, err = run(capsys, "contract", "W2(big)", "--scale", "5,6,7,8")
    assert rc == 0 and err == ""
    want = algebra_to_dict(iw_contract(catalog("W2(big)"), (5, 6, 7, 8)))
    assert json.loads(out) == want


def test_contract_rejects_bad_scale_arguments(capsys):
    rc, _, err = run(capsys, "contract", "W2(big)", "--scale", "a,b")
    assert rc == 2
    assert "error: --scale expects comma-separated indices" in err

    rc, _, err = run(capsys, "contract", "W2(big)", "--scale", ",")
    assert rc == 2
    assert "--scale expects at least one index" in err

    rc, _, err = run(capsys, "contract", "W2(big)", "--scale", "9")
    assert rc == 2
    assert "--scale indices must lie in 1..8" in err


def test_contract_reports_open_complement(capsys):
    # scaling only e1 leaves e2..e8, and e2 e3 = 2 e1 escapes that span
    rc, _, err = run(capsys, "contract", "W2(big)", "--scale", "1")
    assert rc == 2
    assert "not a subalgebra" in err


def test_identities_dim_line_and_basis(capsys):
    rc, out, _ = run(capsys, "identities", "D2", "--degree", "3")
    assert rc == 0
    assert out.strip() == "dim of the degree-3 identity space of D2 = 6"

    rc, out, _ = run(capsys, "identities", "D2", "--degree", "3", "--basis")
    assert rc == 0
    head, payload = out.split("\n", 1)
    assert head == "dim of the degree-3 identity space of D2 = 6"
    basis = json.loads(payload)
    assert len(basis) == 6
    for entry in basis:
        c = identity_from_dict(entry)
        assert c.degree == 3


def test_identities_degree_two_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["identities", "D2", "--degree", "2"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_shape_space_output(capsys):
    rc, out, _ = run(capsys, "shape-space", "E2", "--degree", "3", "--shape", "1")
    assert rc == 0
    dim, _ = shape_identity_space(catalog("E2"), 3, 1)
    lines = out.strip().split("\n")
    assert lines[0] == "shape 1 of degree 3: %s" % (shapes(3)[0],)
    assert lines[1] == "dim of its identity space on E2 = %d" % dim

    rc, _, err = run(capsys, "shape-space", "E2", "--degree", "3", "--shape", "3")
    assert rc == 2
    assert "--shape must lie in 1..2 for degree 3" in err


def test_check_satisfied_and_violated(capsys):
    rc, out, _ = run(capsys, "check", "D2", "--identity", "st3_1")
    assert rc == 0
    assert out.strip() == "satisfied"

    a = catalog("W2(big)")
    where = first_violation(a, named_identity("st3_1"))
    rc, out, _ = run(capsys, "check", "W2(big)", "--identity", "st3_1")
    assert rc == 0
    assert out.strip() == "violated at basis tuple %s" % (where,)


def test_check_accepts_identity_files(capsys, tmp_path):
    combo = resolve_identity({"combo": [["2", "st3_1"], ["3", "st3_2"]]})
    path = tmp_path / "combo.json"
    save_identity(combo, path)
    rc, out, _ = run(capsys, "check", "Sab_bar(0,-3)", "--identity", str(path))
    assert rc == 0
    assert out.strip() == "satisfied"
    # same file against an algebra outside the variety
    rc, out, _ = run(capsys, "check", "W2(big)", "--identity", str(path))
    assert rc == 0
    assert out.startswith("violated at basis tuple")


def test_conservative_yes_prints_the_witness(capsys):
    a = catalog("W2bar")
    witness = conservative_solve(a)
    rc, out, _ = run(capsys, "conservative", "W2bar")
    assert rc == 0
    lines = out.split("\n")
    assert lines[0] == "conservative: yes"
    assert lines[1] == "freedom (dim of homogeneous solutions): %d" % witness.freedom
    assert lines[2] == "witness F:"
    payload = json.loads(out.split("witness F:\n", 1)[1])
    assert payload == {"dim": 8, "products": product_rows(witness.F)}


def test_conservative_no_for_a_file_algebra(capsys, tmp_path):
    stubborn = Algebra("stubborn", 2, [[[0, -1], [1, -2]], [[-2, 2], [-2, 0]]])
    assert conservative_solve(stubborn) is None
    path = tmp_path / "stubborn.json"
    save_algebra(stubborn, path)
    rc, out, _ = run(capsys, "conservative", str(path))
    assert rc == 0
    assert out.strip() == "conservative: no"


def test_terminal_yes_and_no(capsys):
    rc, out, _ = run(capsys, "terminal", "W2hat")
    assert rc == 0
    assert out.strip() == "terminal: yes"

    where = first_terminal_violation(catalog("W2(big)"))
    rc, out, _ = run(capsys, "terminal", "W2(big)")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "terminal: no"
    assert lines[1] == "first violating tuple: %s" % (where,)


def test_cohomology_report(capsys, tmp_path):
    combo = resolve_identity({"combo": [["2", "st3_1"], ["3", "st3_2"]]})
    path = tmp_path / "p.json"
    save_identity(combo, path)
    rc, out, _ = run(capsys, "cohomology", "Sab_bar(0,-3)", "--identity", str(path))
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "algebra: Sab_bar(0,-3)"
    assert "dim B2 = 8" in lines
    assert "dim Z2 = 31" in lines
    assert "dim H2 = 23" in lines


def test_cohomology_rejects_a_base_outside_the_variety(capsys):
    rc, out, _ = run(capsys, "cohomology", "W2(big)", "--identity", "st3_1")
    assert rc == 1
    assert out.startswith("base does not satisfy P")


def test_reproduce_table_for_one_scope(capsys):
    expected_ids = [c["id"] for c in load_claims() if c["scope"] == "derivations"]
    rc, out, _ = run(capsys, "reproduce", "derivations")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].split() == ["claim", "expected", "computed", "ok", "time"]
    for cid in expected_ids:
        assert any(line.startswith(cid) for line in lines)
    assert lines[-1].startswith(
        "%d claims, %d ok, 0 failed" % (len(expected_ids), len(expected_ids)))


def test_reproduce_json_for_one_scope(capsys):
    rc, out, _ = run(capsys, "reproduce", "derivations", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"claims", "total", "failed"}
    assert payload["failed"] == 0
    assert payload["total"] == len(payload["claims"]) == 2
    for record in payload["claims"]:
        assert set(record) == {"id", "scope", "kind", "expected",
                               "computed", "ok", "seconds"}
        assert record["ok"] is True
        assert record["scope"] == "derivations"


def test_reproduce_rejects_unknown_scope(capsys):
    rc, _, err = run(capsys, "reproduce", "bogus")
    assert rc == 2
    assert err.startswith("error: unknown scope 'bogus'")
    assert "have: all," in err


def test_unknown_algebra_suggests_catalog_keys(capsys):
    rc, _, err = run(capsys, "show", "W2big")
    assert rc == 2
    assert "unknown algebra 'W2big'" in err
    assert "did you mean" in err and "W2(big)" in err


def test_unknown_identity_lists_the_builtins(capsys):
    rc, _, err = run(capsys, "check", "D2", "--identity", "nope")
    assert rc == 2
    assert "unknown identity 'nope'" in err
    assert "st3_1" in err and "terminal" in err


def test_malformed_algebra_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    rc, _, err = run(capsys, "show", str(path))
    assert rc == 2
    assert "invalid JSON" in err


def test_module_can_be_run_directly():
    proc = subprocess.run(
        [sys.executable, "-m", "nonassoc.cli", "catalog"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "W2(big)" in proc.stdout
