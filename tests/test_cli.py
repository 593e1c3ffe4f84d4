"""End-to-end tests for the command-line front end.

Most tests drive main() in process and inspect the exit code together with
the JSON certificate written to stdout (or to the --out file).  One test
shells out to ``python3 -m confal`` twice, once with ``CONFAL_SEED`` set in
the environment and once without, and compares raw bytes: the program reads
no environment variable, and that pins down certificate determinism at the
level the tool actually promises it.
"""

import contextlib
import errno
import io
import json
import os
import stat
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from confal.cli import main
from confal.conformal import TruncationPolicy, make_block, make_bn
from confal.modules import rank_one_module
from confal.poly import MAX_INPUT_SIZE, MAX_LITERAL_DIGITS, quote
from confal.serialize import MAX_FILE_BYTES

from file_writers import algebra_to_dict, module_to_dict, save_json


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def result_named(doc, name):
    matches = [r for r in doc["results"] if r["name"] == name]
    assert len(matches) == 1, f"expected exactly one {name!r} result"
    return matches[0]


# -- verify-algebra ---------------------------------------------------------------


def test_verify_algebra_block_passes(capsys):
    code, doc = run_json(
        capsys, ["verify-algebra", "--alg", "block", "--p", "1", "--window", "4"]
    )
    assert code == 0
    assert doc["tool"] == "confal"
    assert doc["command"] == "verify-algebra"
    assert doc["inputs"] == {
        "alg": "block",
        "p": "1",
        "policy": "truncate",
        "window": 4,
    }
    assert [r["name"] for r in doc["results"]] == [
        "structure_table",
        "skew_symmetry",
        "jacobi_identity",
    ]
    assert all(r["status"] == "PASS" for r in doc["results"])
    table = result_named(doc, "structure_table")["payload"]
    assert table["window"] == 4
    assert table["policy"] == "truncate"
    assert len(table["sha256"]) == 64


def test_verify_algebra_builtin_selectors_pass(capsys):
    selectors = [
        ["--alg", "bn", "--n", "2"],
        ["--alg", "hv"],
        ["--alg", "sv"],
        ["--alg", "vir"],
    ]
    for extra in selectors:
        code, doc = run_json(capsys, ["verify-algebra"] + extra)
        assert code == 0, extra
        assert all(r["status"] == "PASS" for r in doc["results"])


def test_misprint_variant_fails_with_exit_one(capsys):
    """The documented sign-misprint table must be reported, not repaired."""
    code, doc = run_json(capsys, ["verify-algebra", "--alg", "hv-misprint"])
    assert code == 1
    skew = result_named(doc, "skew_symmetry")
    assert skew["status"] == "FAIL"
    assert skew["payload"]["failures"] == [
        {"pair": [1, 0], "residual": {"L": "x", "M": "-x"}}
    ]
    jac = result_named(doc, "jacobi_identity")
    assert jac["status"] == "FAIL"
    assert len(jac["payload"]["failures"]) == 3


def test_verify_algebra_from_file(capsys, tmp_path):
    path = tmp_path / "alg.json"
    save_json(str(path), algebra_to_dict(make_bn(2)))
    code, doc = run_json(capsys, ["verify-algebra", "--alg", f"file:{path}"])
    assert code == 0
    assert doc["inputs"] == {"alg": "file", "file": str(path)}
    assert all(r["status"] == "PASS" for r in doc["results"])

    # Under ERROR_ON_OVERFLOW, skew-symmetry walks only pairs defined in both
    # orders: (2, 1) is given but (1, 2) escapes the window, so the pair is
    # skipped rather than refused.
    save_json(str(path), {"format": "confal-algebra", "window": 2, "policy": "error",
                          "structure": {"0,0": {"0": "D + 2*x"}, "2,1": {"2": "D + x"}}})
    code, doc = run_json(capsys, ["verify-algebra", "--alg", f"file:{path}"])
    assert code == 0
    skew = result_named(doc, "skew_symmetry")
    assert skew["status"] == "PASS"
    assert skew["payload"]["pairs_checked"] == 4


def test_verify_algebra_separate_file_flag(capsys, tmp_path):
    path = tmp_path / "alg.json"
    save_json(str(path), algebra_to_dict(make_bn(1)))
    code, doc = run_json(
        capsys, ["verify-algebra", "--alg", "file", "--file", str(path)]
    )
    assert code == 0


# -- verify-module ----------------------------------------------------------------


def test_verify_module_rank_one_passes(capsys):
    code, doc = run_json(
        capsys,
        [
            "verify-module",
            "--alg",
            "block",
            "--p",
            "1",
            "--window",
            "3",
            "--mod",
            "M:1:1/2",
        ],
    )
    assert code == 0
    ident = result_named(doc, "module_identity")
    assert ident["status"] == "PASS"
    assert ident["payload"]["pairs_checked"] == 16
    assert ident["payload"]["kind"] == "free"
    assert ident["payload"]["rank"] == 1
    irr = result_named(doc, "irreducibility")
    assert irr["status"] == "PASS"
    assert irr["payload"]["verdict"] == "IRREDUCIBLE"
    assert irr["payload"]["criterion"] is True
    assert irr["payload"]["search"] is True
    assert irr["payload"]["candidates_checked"] == [
        "D + 1/2",
        "D^2 + D + 1/4",
        "D^3 + 3/2*D^2 + 3/4*D + 1/8",
    ]


def test_verify_module_reducible_reports_witness(capsys):
    code, doc = run_json(
        capsys,
        [
            "verify-module",
            "--alg",
            "block",
            "--p",
            "1",
            "--window",
            "3",
            "--mod",
            "M:0:1/2",
        ],
    )
    assert code == 0
    irr = result_named(doc, "irreducibility")["payload"]
    assert irr["verdict"] == "REDUCIBLE"
    assert irr["witness"] == "D + 1/2"


def test_bolt_on_module_fails_on_the_two_mixed_pairs(capsys):
    code, doc = run_json(
        capsys,
        [
            "verify-module",
            "--alg",
            "block",
            "--p",
            "1",
            "--window",
            "3",
            "--mod",
            "Mb:1:0:5",
        ],
    )
    assert code == 1
    ident = result_named(doc, "module_identity")
    assert ident["status"] == "FAIL"
    assert ident["payload"]["failures"] == [
        {"basis": 0, "pair": [0, 1], "residual": {"0": "10*x"}},
        {"basis": 0, "pair": [1, 0], "residual": {"0": "-10*y"}},
    ]


def test_verify_module_trivial_is_undecided_for_search(capsys):
    code, doc = run_json(
        capsys,
        [
            "verify-module",
            "--alg",
            "block",
            "--p",
            "2",
            "--window",
            "3",
            "--mod",
            "trivial:3",
        ],
    )
    assert code == 0
    ident = result_named(doc, "module_identity")
    assert ident["status"] == "PASS"
    assert ident["payload"]["kind"] == "scalar_del"
    irr = result_named(doc, "irreducibility")
    assert irr["status"] == "UNDECIDED"
    assert "rank-one" in irr["payload"]["reason"]


def test_verify_module_from_file(capsys, tmp_path):
    alg = make_bn(1)
    path = tmp_path / "mod.json"
    save_json(str(path), module_to_dict(rank_one_module(alg, 2, 3)))
    code, doc = run_json(
        capsys,
        ["verify-module", "--alg", "bn", "--n", "1", "--mod", f"file:{path}"],
    )
    assert code == 0
    assert doc["inputs"]["mod"] == "file"
    assert doc["inputs"]["file"] == str(path)


# -- classify ---------------------------------------------------------------------


def test_classify_plain_family_certificate(capsys):
    code, doc = run_json(capsys, ["classify", "--p", "2"])
    assert code == 0
    assert doc["inputs"] == {"D": 6, "K": 6, "p": "2", "seed": 0}
    cls = result_named(doc, "classification")
    assert cls["status"] == "PASS"
    assert cls["payload"]["algebra"] == "B(2)"
    assert [f["tag"] for f in cls["payload"]["families"]] == ["M_delta_alpha"]
    assert cls["payload"]["undecided"] == []
    rules = [s["rule"] for s in cls["payload"]["steps"]]
    assert rules[0] == "TOP_INDEX_ASSUMED"
    assert "MU_ZERO_KILL" in rules
    battery = result_named(doc, "falsification_battery")
    assert battery["status"] == "PASS"
    assert battery["payload"]["samples"] == 50
    assert battery["payload"]["violations"] == 50
    assert len(battery["payload"]["certificates"]) == 50
    assert result_named(doc, "self_check")["status"] == "PASS"
    assert doc["caveats"], "the imported independence step must leave a caveat"


def test_classify_beta_family_for_p_minus_one(capsys):
    code, doc = run_json(capsys, ["classify", "--p", "-1", "--K", "4"])
    assert code == 0
    cls = result_named(doc, "classification")
    assert [f["tag"] for f in cls["payload"]["families"]] == ["M_delta_alpha_beta"]


def test_classify_bn_quotient(capsys):
    code, doc = run_json(capsys, ["classify", "--bn", "2"])
    assert code == 0
    assert doc["inputs"] == {"D": 6, "bn": 2, "seed": 0}
    cls = result_named(doc, "classification")
    assert cls["payload"]["algebra"] == "b(2)"
    assert [f["tag"] for f in cls["payload"]["families"]] == ["M_delta_alpha"]


# -- annihilation -----------------------------------------------------------------


def test_annihilation_window_certificate(capsys):
    code, doc = run_json(capsys, ["annihilation", "--p", "1", "--idx", "4", "--mode", "4"])
    assert code == 0
    table = result_named(doc, "bracket_table")["payload"]
    assert table["basis_size"] == 30
    assert table["closed_form_cross_check"] == "agreed"
    assert table["truncated_pairs"] == 482
    lie = result_named(doc, "lie_axioms")
    assert lie["status"] == "PASS"
    assert lie["payload"]["pairs_checked"] == 465
    assert lie["payload"]["triples_checked"] == 727
    assert lie["payload"]["triples_excluded"] == 4233
    assert lie["payload"]["antisymmetry_failures"] == []
    assert lie["payload"]["jacobi_failures"] == []


def test_irreducibility_disagreement_is_a_fail_verdict(capsys, blind_submodule_search):
    code, doc = run_json(capsys, ["verify-module", "--alg", "block", "--p", "1",
                                  "--window", "2", "--mod", "M:0:1"])
    assert code == 1
    assert result_named(doc, "module_identity")["status"] == "PASS"
    assert result_named(doc, "irreducibility") == {
        "name": "irreducibility",
        "status": "FAIL",
        "payload": {
            "verdict": "DISAGREED",
            "criterion": False,
            "search": True,
            "candidates_checked": ["D + 1", "D^2 + 2*D + 1", "D^3 + 3*D^2 + 3*D + 1"],
        },
    }


def test_closed_form_disagreement_is_a_fail_verdict(capsys, flipped_closed_form):
    code, doc = run_json(capsys, ["annihilation", "--p", "1", "--idx", "2", "--mode", "2"])
    assert code == 1
    assert doc["results"] == [{
        "name": "bracket_table",
        "status": "FAIL",
        "payload": {
            "algebra": "A(B(1);2,2)",
            "closed_form_cross_check": "disagreed",
            "pairs": [["L(1,0)", "L(0,-1)"], ["L(1,0)", "L(0,0)"], ["L(1,0)", "L(0,1)"],
                      ["L(1,0)", "L(0,2)"], ["L(1,0)", "L(1,-1)"]],
        },
    }]


def test_annihilation_extended_reports_centrality(capsys):
    code, doc = run_json(
        capsys,
        ["annihilation", "--p", "1", "--idx", "3", "--mode", "3", "--extended"],
    )
    assert code == 0
    central = result_named(doc, "centrality")
    assert central["status"] == "PASS"
    assert central["payload"]["element"] == "T - (1/1)*L(0,-1)"
    assert central["payload"]["checked"] == 21
    assert central["payload"]["excluded"] == []
    assert central["payload"]["failures"] == []


def test_annihilation_subquotient_certificate(capsys):
    code, doc = run_json(capsys, ["annihilation", "--p", "1", "--G", "--k", "2", "--N", "3"])
    assert code == 0
    lie = result_named(doc, "lie_axioms")["payload"]
    assert lie["triples_excluded"] == 0
    assert lie["pairs_checked"] == 78
    res = result_named(doc, "resonance_analysis")["payload"]
    assert res["case"] == "RESONANCE_BELOW_MODE_CAP"
    assert res["ideal_name"] == "top_mode_slice"
    assert res["resonances"] == [[1, 1], [2, 2]]
    assert res["corner_coefficient"] is None
    ideal = result_named(doc, "ideal_structure")["payload"]
    assert ideal["is_ideal"] is True
    assert ideal["abelian"] is True
    assert ideal["nilpotency_class"] == 1
    chars = result_named(doc, "characters")
    assert chars["status"] == "PASS"
    assert chars["payload"]["dimension"] == 12
    assert chars["payload"]["derived_rank"] == 11
    assert chars["payload"]["character_dim"] == 1


def test_annihilation_corner_case_certificate(capsys):
    code, doc = run_json(
        capsys, ["annihilation", "--p", "1/2", "--G", "--k", "2", "--N", "4"]
    )
    assert code == 0
    res = result_named(doc, "resonance_analysis")["payload"]
    assert res["case"] == "RESONANCE_AT_CORNER"
    assert res["ideal_name"] == "corner_hook"
    assert res["corner_coefficient"] == "-12"
    ideal = result_named(doc, "ideal_structure")["payload"]
    assert ideal["nilpotency_class"] == 2
    assert ideal["series_dims"] == [7, 1]


# -- exit code 2 and input validation ----------------------------------------------


def test_unknown_selector_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", "nope"])
    assert code == 2
    assert out == ""
    assert "unknown algebra selector 'nope'" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["verify-algebra", "--alg", "block"],
                     "--alg block needs --p and --window", id="block-without-parameters"),
        pytest.param(["verify-algebra", "--alg", "block", "--p", "0", "--window", "3"],
                     "the family parameter p must be nonzero", id="block-p-zero"),
        pytest.param(["verify-algebra", "--alg", "block", "--p", "1", "--window", "-1"],
                     "window must be nonnegative", id="block-negative-window"),
        pytest.param(["verify-algebra", "--alg", "bn"], "--alg bn needs --n", id="bn-without-n"),
        pytest.param(["verify-algebra", "--alg", "bn", "--n", "0"],
                     "n must be a positive integer", id="bn-n-zero"),
        pytest.param(["verify-algebra", "--alg", "file"],
                     "--alg file needs --file <path>", id="file-without-path"),
        pytest.param(["annihilation", "--p", "1", "--idx", "2", "--mode", "-3"],
                     "index window 2 and mode window -3 are out of range: "
                     "need index >= 0 and mode >= -1", id="mode-window-below-minus-one"),
        pytest.param(["annihilation", "--p", "0", "--G", "--k", "2", "--N", "2"],
                     "the family parameter p must be nonzero", id="G-p-zero"),
        pytest.param(["annihilation", "--p", "1", "--G", "--k", "-1", "--N", "2"],
                     "caps must be nonnegative, got index cap -1 and mode cap 2",
                     id="G-negative-cap"),
        pytest.param(["classify", "--p", "0"],
                     "the family parameter p must be nonzero", id="classify-p-zero"),
        pytest.param(["classify", "--p", "0", "--K", "0"],
                     "the family parameter p must be nonzero", id="classify-p-zero-K-zero"),
        pytest.param(["classify", "--bn", "0"],
                     "n must be a positive integer", id="classify-bn-zero"),
    ],
)
def test_input_the_stages_refuse_exits_two_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"confal: error: {message}\n"


def test_a_value_error_from_any_stage_exits_two_with_one_line(capsys, monkeypatch):
    # Only a bug can make a checker raise; it still ends in one line and
    # exit 2, never in a traceback or an exit 1 that reads as a verdict.
    import confal.conformal

    def boom(alg):
        raise ValueError("boom")

    monkeypatch.setattr(confal.conformal, "check_jacobi", boom)
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", "vir"])
    assert code == 2
    assert out == ""
    assert err == "confal: error: boom\n"


def test_a_failing_centrality_report_is_a_fail_block_and_exit_one(capsys, monkeypatch):
    import confal.annihilation

    real = confal.annihilation.check_central

    def one_failure(ext):
        return real(ext)._replace(failures=[(ext.basis[0], {ext.basis[0]: Fraction(1, 2)})])

    monkeypatch.setattr(confal.annihilation, "check_central", one_failure)
    code, doc = run_json(
        capsys, ["annihilation", "--p", "1", "--idx", "2", "--mode", "2", "--extended"])
    assert code == 1
    central = result_named(doc, "centrality")
    assert central["status"] == "FAIL"
    assert central["payload"]["failures"] == [
        {"against": "L(0,-1)", "residual": {"L(0,-1)": "1/2"}}]


def test_a_failing_self_check_is_a_fail_block_and_exit_one(capsys, monkeypatch):
    import confal.classify

    monkeypatch.setattr(confal.classify, "verify_report", lambda report: False)
    code, doc = run_json(capsys, ["classify", "--bn", "1"])
    assert code == 1
    assert result_named(doc, "self_check")["status"] == "FAIL"
    assert [r["status"] for r in doc["results"]] == ["PASS", "PASS", "FAIL"]


def test_missing_algebra_file_is_an_input_error(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    code, _, err = run_cli(
        capsys, ["verify-algebra", "--alg", "file", "--file", str(missing)]
    )
    assert code == 2
    assert "cannot read" in err


def test_corrupt_algebra_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "confal-algebra",\n  "oops"\n', encoding="utf-8")
    code, _, err = run_cli(capsys, ["verify-algebra", "--alg", f"file:{path}"])
    assert code == 2
    assert "invalid JSON at line" in err


def test_bad_module_selector_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, ["verify-module", "--alg", "vir", "--mod", "M:1"])
    assert code == 2
    assert "bad module selector 'M:1'" in err


def test_annihilation_without_window_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, ["annihilation", "--p", "1"])
    assert code == 2
    assert "needs --idx and --mode" in err


def test_subquotient_without_caps_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, ["annihilation", "--p", "1", "--G", "--k", "2"])
    assert code == 2
    assert "--G needs --k and --N" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--G", "--k", "1", "--N", "1", "--extended"], "--G does not take --extended"),
        (["--G", "--k", "1", "--N", "1", "--idx", "2", "--mode", "2"],
         "--G does not take --idx, --mode"),
        (["--idx", "2", "--mode", "2", "--k", "1"], "mode expansion does not take --k"),
        (["--idx", "2", "--mode", "2", "--extended", "--N", "1"],
         "mode expansion does not take --N"),
    ],
)
def test_annihilation_refuses_the_other_modes_flags(capsys, flags, message):
    code, out, err = run_cli(capsys, ["annihilation", "--p", "1", *flags])
    assert code == 2
    assert out == ""
    assert err == f"confal: error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-algebra", "--alg", "vir", "--window", "5", "--p", "3", "--policy", "error"],
         "--alg vir does not take --p, --window, --policy"),
        (["verify-algebra", "--alg", "hv", "--policy", "truncate"],
         "--alg hv does not take --policy"),
        (["verify-algebra", "--alg", "bn", "--n", "2", "--window", "2"],
         "--alg bn does not take --window"),
        (["verify-algebra", "--alg", "block", "--p", "1", "--window", "2", "--n", "3"],
         "--alg block does not take --n"),
        (["verify-algebra", "--alg", "sv", "--file", "x.json"],
         "--alg sv does not take --file"),
        (["verify-algebra", "--alg=file:x.json", "--file", "y.json"],
         "--alg file:x.json does not take --file"),
        (["verify-module", "--alg", "vir", "--p", "1", "--mod", "trivial:0"],
         "--alg vir does not take --p"),
    ],
)
def test_verify_refuses_selector_flags_it_would_ignore(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"confal: error: {message}\n"


def test_classify_bn_refuses_a_top_index_bound(capsys):
    # b(n) fixes its top index at n, so a --K would go unused and unrecorded.
    code, out, err = run_cli(capsys, ["classify", "--bn", "2", "--K", "3"])
    assert code == 2
    assert out == ""
    assert err == "confal: error: --bn does not take --K\n"


def test_classify_rejects_nonpositive_quotient_size(capsys):
    code, _, err = run_cli(capsys, ["classify", "--bn", "0"])
    assert code == 2
    assert "positive integer" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--p", "1", "--K", "0"], "top index bound K must be >= 1, got 0"),
        (["--p", "1", "--D", "-1"], "degree bound D must be >= 0, got -1"),
        (["--bn", "2", "--D", "-1"], "degree bound D must be >= 0, got -1"),
    ],
)
def test_classify_bounds_errors_name_the_bound(capsys, flags, message):
    code, out, err = run_cli(capsys, ["classify", *flags])
    assert code == 2
    assert out == ""
    assert err == f"confal: error: {message}\n"


def test_leaky_error_policy_file_exits_two_naming_the_pair(capsys, tmp_path):
    path = tmp_path / "leaky.json"
    path.write_text(
        json.dumps(
            {
                "format": "confal-algebra",
                "window": 2,
                "policy": "error",
                "structure": {"0,1": {"2": "D + x"}},
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", f"file:{path}"])
    assert code == 2
    assert out == ""
    assert err == (
        "confal: error: bracket of pair (2, 1) escapes window 2 of 'custom' "
        "under ERROR_ON_OVERFLOW\n"
    )


def test_file_entry_above_degree_limit_exits_two(capsys, tmp_path):
    path = tmp_path / "steep.json"
    path.write_text(
        json.dumps(
            {
                "format": "confal-algebra",
                "window": 0,
                "structure": {"0,0": {"0": "D^99999"}},
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", f"file:{path}"])
    assert code == 2
    assert out == ""
    assert err == (
        "confal: error: column 0: exponent 99999 exceeds the limit 32 in 'D^99999'\n"
    )


WIDE_ENTRY = "(D+x+y+u+w+1)^16 - (D+x+y+u+w+1)^16 + D + 2*x"


@pytest.mark.parametrize(
    "argv, data",
    [
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 0, "structure": {"0,0": {"0": WIDE_ENTRY}}}),
        (["verify-module", "--alg", "vir", "--mod"],
         {"format": "confal-module", "kind": "free", "rank": 1,
          "action": {"0,0": {"0": WIDE_ENTRY}}}),
    ],
)
def test_file_entry_in_other_variables_exits_two_before_expanding(capsys, tmp_path, argv, data):
    # Expanding the entry's 16th powers would take minutes; only D and x are
    # admitted, so the parser stops at the first other name.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv + [f"file:{path}"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.endswith(f"column 5: variable 'y' is not one of D, x in {WIDE_ENTRY!r}\n")


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["verify-algebra", "--alg"], [1], "algebra file is not an object"),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 0, "p": 1},
         "algebra parameter p=1 is not a rational string"),
        (["verify-module", "--alg", "vir", "--mod"],
         {"format": "confal-module", "kind": "free", "rank": 1, "action": [1]},
         "module action is not an object"),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 1.9},
         "algebra window=1.9 is not an integer"),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 0, "name": None},
         "algebra name=None is not a string"),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 0, "name": {"a": [1, 2]}},
         "algebra name={'a': [1, 2]} is not a string"),
        # Read as zero, an entry of other syntax would let the table pass.
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 0, "structure": {"0,0": {"0": "D // 2"}}},
         "column 0: unsupported syntax in 'D // 2'"),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 0, "structure": {"0,0": {"0": "~x"}}},
         "column 0: unsupported syntax in '~x'"),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 0, "structure": {"0,0": {"0": 5}}},
         "structure target '0' is not a polynomial string"),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 0, "structure": {"a,0": {"0": "D"}}},
         "bad structure key 'a,0': expected integers"),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 0, "generators": "L"},
         "algebra generators 'L' are not a list of strings"),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": -1},
         "window must be nonnegative"),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 1, "generators": ["L"]},
         "1 generator names for window 1"),
        (["verify-module", "--alg", "vir", "--mod"],
         {"kind": "free", "rank": 1},
         "not a module file: missing format marker"),
        (["verify-module", "--alg", "vir", "--mod"],
         {"format": "confal-module", "kind": "free", "rank": 0},
         "module rank must be positive"),
    ],
    ids=["algebra-file-list", "algebra-p-number", "module-action-list",
         "algebra-window-float", "algebra-name-null", "algebra-name-object",
         "entry-floor-division", "entry-bitwise-not", "entry-number", "structure-key-letter",
         "generators-string", "window-negative", "generator-count", "module-format-missing",
         "module-rank-zero"],
)
def test_file_of_the_wrong_json_shape_exits_two(capsys, tmp_path, argv, data, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, argv + [f"file:{path}"])
    assert code == 2
    assert out == ""
    # The module reader's refusals name the selector they came through.
    selector = f"bad module selector {quote(f'file:{path}')}: " if "--mod" in argv else ""
    assert err == f"confal: error: {selector}{message}\n"


ALGEBRA_HEAD = '{"format": "confal-algebra", "window": 1, "structure": '
MODULE_HEAD = '{"format": "confal-module", "kind": "free", "rank": 2, "action": '


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["verify-algebra", "--alg"],
         ALGEBRA_HEAD + '{"0,1": {"1": "D"}, "00,1": {"1": "x"}}}',
         "structure key '00,1' names the pair 0,1 twice"),
        (["verify-algebra", "--alg"],
         ALGEBRA_HEAD + '{"0,0": {"0": "D", "00": "0"}}}',
         "structure target '00' names target 0 twice"),
        (["verify-module", "--alg", "vir", "--mod"],
         MODULE_HEAD + '{"0,1": {"1": "D"}, "0, 1": {"1": "x"}}}',
         "action key '0, 1' names the pair 0,1 twice"),
        (["verify-module", "--alg", "vir", "--mod"],
         MODULE_HEAD + '{"0,0": {"1": "D", "+1": "x"}}}',
         "action target '+1' names target 1 twice"),
        (["verify-algebra", "--alg"],
         ALGEBRA_HEAD + '{"0,1": {"1": "D"}, "0,1": {"1": "x"}}}',
         "an object names the key '0,1' twice"),
        # A residual is keyed by generator name: under ["L", "L"] the skew
        # failure on (1, 0) would show one merged term for two generators.
        (["verify-algebra", "--alg"],
         ALGEBRA_HEAD + '{"0,1": {"0": "x", "1": "2*x"}}, "generators": ["L", "L"]}',
         "algebra generators name 'L' twice"),
    ],
    ids=["structure-key", "structure-target", "action-key", "action-target", "same-spelling",
         "generator-name"],
)
def test_file_that_names_a_key_twice_exits_two(capsys, tmp_path, argv, text, message):
    path = tmp_path / "twice.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, argv + [f"file:{path}"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.endswith(f"{message}\n")


STRAY_ACTION = {"0,0": {"0": "D + x"}, "3,0": {"0": "D^5"}}


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["verify-module", "--alg", "vir", "--mod"],
         {"format": "confal-module", "kind": "free", "rank": 1, "action": STRAY_ACTION},
         "confal: error: action key '3,0' names generator 3, but 'Vir' has generators 0..0\n"),
        (["verify-module", "--alg", "vir", "--mod"],
         {"format": "confal-module", "kind": "free", "rank": 1,
          "action": {**STRAY_ACTION, "-2,0": {"0": "x"}}},
         "action key '-2,0' names a negative generator index\n"),
        (["verify-module", "--alg", "vir", "--mod"],
         {"format": "confal-module", "kind": "free", "rank": 10**9},
         "module rank=1000000000 exceeds the limit 16\n"),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 10**9},
         "confal: error: algebra window=1000000000 exceeds the limit 64\n"),
        (["verify-module", "--alg", "vir", "--mod"],
         {"format": "confal-module", "kind": "scalar_del", "rank": 5, "alpha": "1/2",
          "action": {"0,0": {"0": "D^3"}}},
         "a scalar_del module takes no field 'action'\n"),
    ],
    ids=["stray-generator", "negative-generator", "huge-rank", "huge-window",
         "scalar-del-rank-and-action"],
)
def test_file_beyond_the_algebra_or_a_size_limit_exits_two(capsys, tmp_path, argv, data, message):
    path = tmp_path / "beyond.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv + [f"file:{path}"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.endswith(message)


def test_free_rank_two_module_file_is_left_undecided(capsys, tmp_path):
    # M_{1,0} + M_{2,0} over Vir: a module, but no rank-one table to search.
    path = tmp_path / "rank2.json"
    path.write_text(json.dumps({"format": "confal-module", "kind": "free", "rank": 2,
                                "action": {"0,0": {"0": "D + x"}, "0,1": {"1": "D + 2*x"}}}),
                    encoding="utf-8")
    code, doc = run_json(capsys, ["verify-module", "--alg", "vir", "--mod", f"file:{path}"])
    assert code == 0
    assert [r["status"] for r in doc["results"]] == ["PASS", "PASS", "PASS", "UNDECIDED"]
    assert result_named(doc, "irreducibility")["payload"] == {
        "reason": "only free rank-one tables are searched"}


def test_beta_module_on_a_window_without_l1_exits_two(capsys):
    code, out, err = run_cli(
        capsys, ["verify-module", "--alg", "block", "--p=-1", "--window", "0", "--mod", "Mb:0:0:1"]
    )
    assert code == 2
    assert out == ""
    assert err == ("confal: error: action key '1,0' names generator 1, "
                   "but 'B(-1)' has generators 0..0\n")


# -- the family parameter is read from the table ------------------------------------


def block_file(tmp_path, **fields):
    """The table of B(2) on window 3 as a file, with ``fields`` set on top."""
    data = algebra_to_dict(make_block(2, 3, TruncationPolicy.TRUNCATE_TO_ZERO))
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({**data, **fields}), encoding="utf-8")
    return f"file:{path}"


def test_file_stating_a_wrong_p_is_refused_when_it_loads(capsys, tmp_path):
    # A stated p that the table contradicts used to build M:1:0 at that p and
    # report a module identity failure on a table that has the module.
    alg = block_file(tmp_path, kind="block", p="1")
    code, out, err = run_cli(capsys, ["verify-module", "--alg", alg, "--mod", "M:1:0"])
    assert (code, out) == (2, "")
    assert err == ("confal: error: algebra parameter p='1' disagrees with the table, "
                   "whose [L_0 L_0] gives p='2'\n")
    code, doc = run_json(capsys, ["verify-module", "--alg", block_file(tmp_path, p="2"),
                                  "--mod", "M:1:0"])
    assert code == 0


def test_file_stating_p_without_a_d_term_exits_two(capsys, tmp_path):
    path = tmp_path / "no_d.json"
    path.write_text(json.dumps({"format": "confal-algebra", "window": 0, "p": "1",
                                "structure": {"0,0": {"0": "2*x"}}}), encoding="utf-8")
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", f"file:{path}"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert "algebra parameter p='1' is stated, but" in err and "has no D term" in err


def test_untagged_file_builds_rank_one_modules(capsys, tmp_path):
    # The family is read from [L_0 L_0], not from a tag, so "kind" is ignored.
    argv = ["verify-module", "--alg", block_file(tmp_path, kind="custom"), "--mod", "M:1:0"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    _, reference = run_json(capsys, ["verify-module", "--alg", "block", "--p", "2",
                                     "--window", "3", "--mod", "M:1:0"])
    assert doc["results"] == reference["results"]


@pytest.mark.parametrize(
    "alg, mod, code, statuses",
    [
        ("vir", "M:1:0", 0, ["PASS", "PASS", "PASS", "PASS"]),
        ("hv", "Mb:1:0:2", 0, ["PASS", "PASS", "PASS", "PASS"]),
        ("sv", "Mb:1:0:2", 1, ["PASS", "PASS", "FAIL", "PASS"]),
    ],
)
def test_rank_one_modules_over_the_virasoro_extensions(capsys, alg, mod, code, statuses):
    # Vir, HV and SV have [L L] = (D + 2x) L, so p = 1 and M:, Mb: build.
    got, doc = run_json(capsys, ["verify-module", "--alg", alg, "--mod", mod])
    assert got == code
    assert [r["status"] for r in doc["results"]] == statuses
    assert doc["results"][2]["name"] == "module_identity"


def test_beta_module_over_vir_exits_two(capsys):
    code, out, err = run_cli(capsys, ["verify-module", "--alg", "vir", "--mod", "Mb:1:0:2"])
    assert (code, out) == (2, "")
    assert err == ("confal: error: action key '1,0' names generator 1, "
                   "but 'Vir' has generators 0..0\n")


# -- messages quote input boundedly -----------------------------------------------------

#: The longest message line that quotes one piece of input.
MAX_MESSAGE = 300


@pytest.mark.parametrize(
    "argv, data",
    [
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 1, "structure": {"7" * 100_000: {"0": "D"}}}),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 1, "structure": {"0,0": {"0": "D + " * 5000 + "D"}}}),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 1, "structure": {"0,0": {"7" * 100_000: "D"}}}),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 1, "structure": {"0,0": ["D"] * 10_000}}),
        (["verify-algebra", "--alg"], {"format": "confal-algebra", "window": 1, "policy": "q" * 10_000}),
        (["verify-module", "--alg", "vir", "--mod"],
         {"format": "confal-module", "kind": "k" * 100_000}),
        (["verify-algebra", "--alg"], {"format": "confal-algebra", "window": 1, "p": "1/0" + " " * 100_000}),
        (["verify-module", "--mod", "Mb:1:0:2", "--alg"],
         {"format": "confal-algebra", "name": "n" * 500, "window": 0,
          "structure": {"0,0": {"0": "D + 2*x"}}}),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "name": "n" * 500, "window": 2, "policy": "error",
          "structure": {"0,1": {"2": "D + x"}}}),
        (["verify-algebra", "--alg"], {"format": "confal-algebra", "window": int("7" * 3000)}),
        (["verify-module", "--alg", "vir", "--mod"],
         {"format": "confal-module", "kind": "free", "rank": int("7" * 3000)}),
        (["verify-algebra", "--alg"],
         {"format": "confal-algebra", "window": 0,
          "structure": {"0,0": {"0": f"D^{'7' * 3000}"}}}),
    ],
    ids=["structure-key", "entry", "structure-target", "entry-list", "policy", "module-kind",
         "p-literal", "name-in-stray-row", "name-in-overflow", "window-value", "rank-value",
         "exponent-value"],
)
def test_messages_quoting_a_file_stay_short(capsys, tmp_path, argv, data):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, argv + [f"file:{path}"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < MAX_MESSAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-module", "--alg", "vir", "--mod", f"Mb:{'7' * 3000}:1:1"],
        ["verify-module", "--alg", "hv", "--mod", f"Mb:{'7' * 3000}:1:1:1"],
        ["verify-module", "--alg", "hv", "--mod", f"M:{'7' * 3000}:1/0"],
        ["verify-algebra", "--alg", "z" * 100_000],
        ["verify-algebra", "--alg", "block", "--p", "1", "--window", "7" * 5000],
        ["verify-algebra", "--alg", "block", "--p", "1", "--window", "1", "--policy", "q" * 300],
        ["verify-algebra", "--alg", f"file:/nonexistent/{'a' * 200}.json"],
        ["verify-algebra", "--alg", "vir", "--out", f"/nonexistent/{'o' * 300}/x.json"],
        ["verify-algebra", "--alg", "block", "--p", "1", "--window", "7" * 4000],
        ["classify", "--p", "1", "--K", "-" + "7" * 4000],
        ["classify", "--p", "1", "--D", "-" + "7" * 4000],
        ["annihilation", "--p", "7" * 3000, "--idx", "64", "--mode", "64"],
        ["annihilation", "--p", "1/" + "7" * 2998, "--G", "--k", "40", "--N", "40"],
        ["verify-algebra", "--alg", f"file:/nonexistent/{'a' * 300}.json", "--p", "1"],
    ],
    ids=["beta-over-vir", "selector-shape", "selector-literal", "algebra-selector", "size-flag",
         "argparse-choice", "missing-file", "unwritable-out", "size-flag-value",
         "negative-top-index", "negative-degree", "mode-window-title", "subquotient-title",
         "stray-flag-of-a-file"],
)
def test_messages_quoting_the_command_line_stay_short(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < MAX_MESSAGE


@pytest.mark.parametrize("text", [b"{", b'{"name": "caf\xe9"}', b'{"a": 1, "a": 2}'],
                         ids=["invalid-json", "not-utf8", "repeated-key"])
def test_messages_quoting_a_long_path_stay_short(capsys, tmp_path, text):
    path = tmp_path / f"{'l' * 220}.json"
    path.write_bytes(text)
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", f"file:{path}"])
    assert (code, out) == (2, "")
    assert err.startswith(f"confal: error: {quote(str(path))}: ")
    assert err.count("\n") == 1 and len(err) < MAX_MESSAGE


def test_file_nested_too_deeply_exits_two(capsys, tmp_path):
    # The JSON decoder recurses once per level; past its limit the file is refused.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", f"file:{path}"])
    assert (code, out) == (2, "")
    assert err == f"confal: error: {quote(str(path))}: JSON nested too deeply to parse\n"


def test_file_above_size_limit_exits_two(capsys, tmp_path):
    path = tmp_path / "padded.json"
    # A valid algebra file, padded with whitespace past the limit.
    text = json.dumps(algebra_to_dict(make_bn(1)))
    path.write_text(text + " " * (MAX_FILE_BYTES - len(text) + 1), encoding="utf-8")
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", f"file:{path}"])
    assert code == 2
    assert out == ""
    assert err == (f"confal: error: {quote(str(path))}: "
                   f"file exceeds the limit of {MAX_FILE_BYTES} bytes\n")
    # The same file at the limit loads.
    path.write_text(text + " " * (MAX_FILE_BYTES - len(text)), encoding="utf-8")
    code, _ = run_json(capsys, ["verify-algebra", "--alg", f"file:{path}"])
    assert code == 0


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_device_is_read_only_up_to_the_limit(capsys):
    # A device reports size 0; the bounded read still stops it.
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", "file:/dev/zero"])
    assert code == 2
    assert out == ""
    assert err == f"confal: error: '/dev/zero': file exceeds the limit of {MAX_FILE_BYTES} bytes\n"


def test_file_that_is_not_utf8_exits_two(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", f"file:{path}"])
    assert code == 2
    assert out == ""
    assert err == f"confal: error: {quote(str(path))}: not UTF-8 at byte 13\n"


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_degree_bound_below_one_exits_two(capsys, bound):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "verify-module", "--alg", "block", "--p", "1", "--window", "2",
                "--mod", "M:0:1", "--degree-bound", bound,
            ]
        )
    assert exc.value.code == 2
    assert "--degree-bound: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-algebra", "--alg", "block", "--p", "1", "--window", "65"],
        ["verify-algebra", "--alg", "bn", "--n", "65"],
        ["classify", "--bn", "65"],
        ["classify", "--p", "1", "--K", "65"],
        ["classify", "--bn", "2", "--D", "65"],
        ["verify-module", "--alg", "block", "--p", "1", "--window", "2", "--mod", "M:0:1",
         "--degree-bound", "65"],
        ["annihilation", "--p", "1", "--mode", "1", "--idx", "65"],
        ["annihilation", "--p", "1", "--idx", "1", "--mode", "65"],
        ["annihilation", "--p", "1", "--G", "--N", "1", "--k", "65"],
        ["annihilation", "--p", "1", "--G", "--k", "1", "--N", "65"],
    ],
    ids=["window", "n", "bn", "K", "D", "degree-bound", "idx", "mode", "k", "N"],
)
def test_size_flag_above_the_limit_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"confal {argv[0]}: error: argument {argv[-2]}: must be at most 64, got 65\n"


def test_size_flag_at_the_limit_runs(capsys):
    code, doc = run_json(capsys, ["classify", "--bn", "2", "--D", str(MAX_INPUT_SIZE)])
    assert code == 0
    assert doc["inputs"]["D"] == 64


@pytest.mark.parametrize(
    "argv, message",
    [
        (["annihilation", "--p", "1", "--idx", "15", "--mode", "30", "--extended"],
         "A(B(1);15,30)+T has 513 basis elements, more than the limit 512"),
        (["annihilation", "--p", "1/2", "--G", "--k", "15", "--N", "32"],
         "G(p=1/2;15,32) has 528 basis elements, more than the limit 512"),
    ],
    ids=["window", "G"],
)
def test_annihilation_basis_above_the_limit_exits_two(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"confal: error: {message}\n")


def test_unparseable_rational_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "one"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_negative_fraction_after_a_space_is_a_value(capsys):
    tail = ["--K", "2", "--D", "2"]
    spaced = run_cli(capsys, ["classify", "--p", "-2/3", *tail])
    joined = run_cli(capsys, ["classify", "--p=-2/3", *tail])
    assert spaced == joined
    assert spaced[2] == "" and json.loads(spaced[1])["inputs"]["p"] == "-2/3"
    code, out, _ = run_cli(capsys, ["verify-algebra", "--alg", "block", "--p", "-1/2",
                                    "--window", "2"])
    assert code == 0 and json.loads(out)["inputs"]["p"] == "-1/2"
    # An exponent form is a value too; the certificate states p as a Fraction.
    assert run_cli(capsys, ["classify", "--p", "-1e0", *tail]) == run_cli(
        capsys, ["classify", "--p", "-1", *tail])
    exponent = ["annihilation", "--p", "-1.5e0", "--G", "--k", "1", "--N", "1"]
    assert run_cli(capsys, exponent) == run_cli(capsys, [*exponent[:2], "-3/2", *exponent[3:]])


def test_option_where_a_value_belongs_stays_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "--K", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "confal classify: error: argument --p: expected one argument\n"


SEVENS = "7" * 4000
NESTED_POWER = "(((10^32)^32)^32)^32*D"


def algebra_file(entry):
    return json.dumps({"format": "confal-algebra", "window": 1,
                       "structure": {"0,0": {"0": entry}}})


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["verify-module", "--alg", "block", "--p", SEVENS, "--window", "2",
          "--mod", f"Mb:1:1:{SEVENS}"], None,
         "argument --p: rational literal '7777777777777777777777777777777777777777' runs past the limit of 3000 digits"),
        (["verify-module", "--alg", "block", "--p", "1", "--window", "2",
          "--mod", f"Mb:1:1:{SEVENS}"], None,
         "bad module selector 'Mb:1:1:7777777777777777777777777777777777777777"),
        (["verify-algebra", "--alg", "block", "--p", "1e30000000", "--window", "1"], None,
         "rational literal '1e30000000' runs past the limit of 3000 digits"),
        (["verify-algebra", "--alg", "block", "--p", "1e10000000", "--window", "1"], None,
         "rational literal '1e10000000' runs past the limit of 3000 digits"),
        (["verify-algebra", "--alg", "file"], algebra_file(NESTED_POWER),
         "a coefficient of at least 108833 bits exceeds the limit 9966"),
        (["verify-algebra", "--alg", "file"], algebra_file(f"({NESTED_POWER[:-2]})^32*D"),
         "a coefficient of at least 108833 bits exceeds the limit 9966"),
        (["verify-algebra", "--alg", "file"], algebra_file(f"{SEVENS}*D"),
         "integer literal of 4000 characters exceeds the limit 3000"),
        (["verify-algebra", "--alg", "file"],
         '{"format": "confal-algebra", "window": %s}' % SEVENS,
         "an integer of 4000 characters exceeds the limit 3000"),
    ],
    ids=["p", "mod", "exponent-3e7", "exponent-1e7", "nested-power", "nested-power-5",
         "file-literal", "json-integer"],
)
def test_numbers_past_the_digit_bound_exit_two_with_one_line(capsys, tmp_path, argv, text, message):
    if text is not None:
        path = tmp_path / "alg.json"
        path.write_text(text, encoding="utf-8")
        argv = [*argv, "--file", str(path)]
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and message in err


def test_a_residual_past_the_int_digit_limit_renders(capsys):
    # beta (1 + p) x on the pair (0, 1) has twice the digits of its inputs,
    # more than Python converts to text by default.
    big = "7" * MAX_LITERAL_DIGITS
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, doc = run_json(capsys, ["verify-module", "--alg", "block", "--p", big,
                                  "--window", "2", "--mod", f"Mb:1:1:{big}"])
    assert code == 1
    failures = result_named(doc, "module_identity")["payload"]["failures"]
    assert [f["pair"] for f in failures] == [[0, 1], [1, 0]]
    digits, _, variable = failures[0]["residual"]["0"].partition("*")
    assert (len(digits), variable) == (2 * MAX_LITERAL_DIGITS, "x")
    assert int(digits[-12:]) == int(big) * (1 + int(big)) % 10**12
    # main restores the limit it lifted.
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_an_empty_out_path_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-algebra", "--alg", "vir", "--out", ""])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "confal verify-algebra: error: argument --out: must be a path, got ''\n"


# -- output channel and determinism -------------------------------------------------


def test_out_flag_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, err = run_cli(
        capsys,
        ["verify-algebra", "--alg", "vir", "--out", str(path)],
    )
    assert code == 0
    assert out == ""
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["command"] == "verify-algebra"


def test_unwritable_out_exits_two_and_leaves_no_file(capsys, tmp_path):
    missing = tmp_path / "nonexistent" / "x.json"
    code, out, err = run_cli(
        capsys, ["verify-algebra", "--alg", "vir", "--out", str(missing)]
    )
    assert code == 2
    assert out == ""
    assert err == f"confal: error: cannot write {quote(str(missing))}: No such file or directory\n"
    # a directory in place of the file is refused before anything is written.
    code, _, err = run_cli(
        capsys, ["verify-algebra", "--alg", "vir", "--out", str(tmp_path)]
    )
    assert code == 2
    assert err.startswith(f"confal: error: cannot write {quote(str(tmp_path))}: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_out_onto_a_fifo_is_refused_and_the_fifo_stays(capsys, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", "vir", "--out", str(fifo)])
    assert code == 2
    assert out == ""
    assert err == f"confal: error: cannot write {quote(str(fifo))}: not a regular file\n"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    # No sibling .partial file was left either.
    assert [path.name for path in tmp_path.iterdir()] == ["pipe"]


def test_out_through_a_link_writes_the_target_and_the_link_stays(capsys, tmp_path):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old")
    link.symlink_to(real)
    code, out, _ = run_cli(capsys, ["verify-algebra", "--alg", "vir", "--out", str(link)])
    assert code == 0
    assert out == ""
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert json.loads(real.read_text())["command"] == "verify-algebra"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_out_through_a_link_to_a_directory_is_refused(capsys, tmp_path):
    target, link = tmp_path / "dir", tmp_path / "link"
    target.mkdir()
    link.symlink_to(target)
    code, out, err = run_cli(capsys, ["verify-algebra", "--alg", "vir", "--out", str(link)])
    assert code == 2
    assert out == ""
    assert err == f"confal: error: cannot write {quote(str(link))}: not a regular file\n"
    assert link.is_symlink() and list(target.iterdir()) == []


def test_a_failed_write_to_stdout_exits_two_with_one_line(capsys, monkeypatch):
    class FullStdout(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main(["verify-algebra", "--alg", "vir"])
    assert code == 2
    reason = os.strerror(errno.ENOSPC)
    assert capsys.readouterr().err == f"confal: error: cannot write the certificate: {reason}\n"


def test_certificate_is_sorted_indented_json_with_trailing_newline(capsys):
    _, out, _ = run_cli(capsys, ["verify-algebra", "--alg", "hv"])
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert set(doc) == {
        "caveats",
        "command",
        "inputs",
        "results",
        "tool",
        "tool_version",
    }


def test_in_process_runs_are_deterministic_under_fixed_seed(capsys, monkeypatch):
    # The battery's seed is fixed, so a CONFAL_SEED in the environment changes
    # nothing.
    monkeypatch.delenv("CONFAL_SEED", raising=False)
    code1, out1, _ = run_cli(capsys, ["classify", "--p", "1", "--K", "4"])
    monkeypatch.setenv("CONFAL_SEED", "7")
    code2, out2, _ = run_cli(capsys, ["classify", "--p", "1", "--K", "4"])
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    assert json.loads(out1)["inputs"]["seed"] == 0


def test_module_entry_point_is_byte_deterministic():
    """Two fresh interpreter runs emit identical bytes, CONFAL_SEED set or not."""
    env = {key: value for key, value in os.environ.items() if key != "CONFAL_SEED"}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "confal", "classify", "--p", "1", "--K", "4"],
            capture_output=True,
            env=run_env,
        )
        for run_env in (env, {**env, "CONFAL_SEED": "7"})
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.endswith(b"\n")


# -- what a launch loads ------------------------------------------------------------------


def held_modules(code):
    """The modules a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport sys\nprint(*sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    return set(run.stdout.split())


def loaded_modules(code):
    """The modules ``code`` loads: those held after it, less a bare ``-c pass``'s.

    What ``site`` and its ``.pth`` files load is the interpreter's, not the
    code's; some installations import ``inspect`` there.
    """
    return held_modules(code) - held_modules("pass")


def loaded_confal_modules(code):
    """The ``confal`` modules a fresh interpreter holds after running ``code``."""
    return {m for m in loaded_modules(code) if m.split(".")[0] == "confal"}


def launch(argv):
    """Code that runs ``confal.cli.main(argv)`` to a passing exit, output discarded."""
    return ("import contextlib, io, confal.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert confal.cli.main({argv!r}) == 0")


def test_importing_the_package_loads_no_submodule():
    assert loaded_confal_modules("import confal") == {"confal"}


def test_importing_the_cli_loads_only_the_cli():
    assert loaded_confal_modules("import confal.cli") == {"confal", "confal.cli"}


def test_a_subcommand_loads_only_the_stages_it_runs():
    loaded = loaded_confal_modules(launch(["verify-algebra", "--alg", "vir"]))
    assert "confal.conformal" in loaded
    for stage in ("annihilation", "classify", "modules", "serialize", "linalg"):
        assert f"confal.{stage}" not in loaded
    # Only classify's kernel dimensions need the elimination in linalg.
    for argv in (["verify-module", "--alg", "vir", "--mod", "M:1:1/2"],
                 ["annihilation", "--p", "1/2", "--G", "--k", "2", "--N", "3"]):
        assert "confal.linalg" not in loaded_confal_modules(launch(argv)), argv
    assert "confal.linalg" in loaded_confal_modules(launch(["classify", "--bn", "1"]))


@pytest.mark.parametrize("argv, hashes_a_table", [
    (["verify-algebra", "--alg", "vir"], True),
    (["verify-module", "--alg", "vir", "--mod", "M:1:1/2"], False),
    (["classify", "--bn", "1"], False),
    (["annihilation", "--p", "1/2", "--G", "--k", "2", "--N", "3"], True),
    (["verify-algebra", "--alg", "file:{alg.json}"], True),
])
def test_a_launch_loads_no_code_generator_and_hashlib_only_to_hash_a_table(
        tmp_path, argv, hashes_a_table):
    # Records are named tuples, so no launch pays for ``dataclasses`` and the
    # ``inspect`` it imports; only a table hash needs ``hashlib``.
    path = tmp_path / "alg.json"
    save_json(str(path), algebra_to_dict(make_bn(2)))
    loaded = loaded_modules(launch([arg.replace("{alg.json}", str(path)) for arg in argv]))
    assert not {"dataclasses", "inspect"} & loaded
    assert ("hashlib" in loaded) == hashes_a_table


# -- the exit-code contract under fuzzed argv ------------------------------------------


def test_fuzzed_argv_ends_in_a_verdict_or_one_line_exit_two():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def weighted(common, rare):
        """A value from ``common``, or one time in ten a value from ``rare``."""
        return st.integers(0, 9).flatmap(lambda n: st.sampled_from(rare if n == 0 else common))

    missing = "/nonexistent/confal.json"
    rational = weighted(["1", "-1", "1/2", "-2/3", "2"], ["0", "x", "3/0"])
    size = weighted(["1", "2", "3"], ["-1", "0", "x"])
    window = weighted(["0", "1", "2", "3", "4"], ["-1", "x"])
    algebra = weighted(["block", "bn", "hv", "hv-misprint", "sv", "vir"],
                     ["file", f"file:{missing}", "nosuch"])
    module = weighted(["M:1:1/2", "M:0:2", "Mb:0:2:5", "Mb:1:0:3", "trivial:3"],
                    ["M:x:1", "Q:1", f"file:{missing}"])
    policy = weighted(["error", "truncate"], ["other"])

    @st.composite
    def argvs(draw):
        def given(flag, values=None, rate=7):
            """``flag`` (with a drawn value) ``rate`` times in ten, else nothing."""
            if draw(st.integers(0, 9)) >= rate:
                return []
            if values is None:
                return [flag]
            value = draw(values)
            return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]

        # classify takes about 0.1 s a run, the others a few ms.
        command = draw(weighted(["verify-algebra", "verify-module", "annihilation"],
                              ["classify"]))
        # Each mode gets its own flags nine times in ten and the other
        # mode's one time in ten.
        mode = draw(st.booleans())
        on, off = (9, 1) if mode else (1, 9)
        argv = [command]
        if command.startswith("verify"):
            argv += (given("--alg", algebra, 9) + given("--p", rational)
                     + given("--window", window) + given("--n", size)
                     + given("--policy", policy, 3) + given("--file", st.just(missing), 1))
        if command == "verify-module":
            argv += given("--mod", module, 9) + given("--degree-bound", size, 5)
        if command == "classify":
            argv += (given("--p", rational, on) + given("--bn", size, off)
                     + given("--K", size, 9) + given("--D", size, 9))
        if command == "annihilation":
            argv += (given("--p", rational, 9) + given("--G", rate=on)
                     + given("--k", size, on) + given("--N", size, on)
                     + given("--idx", size, off) + given("--mode", size, off)
                     + given("--extended", rate=off))
        return argv

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(argvs())
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        if code == 2:
            assert out == "", argv
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        else:
            assert err == "", argv
            statuses = [r["status"] for r in json.loads(out)["results"]]
            assert code == (1 if "FAIL" in statuses else 0), argv

    check()
