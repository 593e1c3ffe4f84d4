"""Round-trip and rejection tests for the JSON file formats and the
polynomial grammar.

Round trips must be exact: load(dump(x)) reproduces the structure table (or
action table) as polynomials, not as strings.  Every rejection case asserts
ParseError with position or context in the message, never a silent default.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from confal.conformal import (
    TruncationPolicy,
    check_jacobi,
    check_skew,
    make_block,
    make_bn,
    make_heisenberg_virasoro,
    make_schrodinger_virasoro,
)
from confal.modules import (
    FAMILY_TRIVIAL,
    rank_one_beta_module,
    rank_one_module,
    trivial_module,
)
from confal.poly import DEL, LAM, MU, Poly
from confal.serialize import (
    MAX_POLY_DEGREE,
    ParseError,
    algebra_from_dict,
    algebra_to_dict,
    load_json,
    module_from_dict,
    module_to_dict,
    parse_poly,
    parse_rat,
    poly_str,
    rat_str,
    save_json,
)

TRUNC = TruncationPolicy.TRUNCATE_TO_ZERO


# -- rationals ---------------------------------------------------------------


def test_rational_round_trip():
    for v in (Fraction(0), Fraction(-3), Fraction(22, 7), Fraction(-1, 2)):
        assert parse_rat(rat_str(v)) == v
    assert parse_rat(" 3/4 ") == Fraction(3, 4)
    with pytest.raises(ParseError):
        parse_rat("3/0")
    with pytest.raises(ParseError):
        parse_rat("pi")


# -- polynomial grammar ---------------------------------------------------------


def test_poly_grammar_round_trip_oracle():
    cases = [
        Poly.zero(),
        Poly.const(Fraction(-3, 4)),
        DEL,
        DEL**2 - 2 * LAM + Poly.const(Fraction(1, 2)),
        -DEL * LAM + 3 * MU**2,
    ]
    for p in cases:
        assert parse_poly(poly_str(p)) == p


def test_poly_grammar_accepts_standard_forms():
    assert parse_poly("D^2 - 2*x + 1/2") == DEL**2 - 2 * LAM + Fraction(1, 2)
    assert parse_poly("(D + x)^2") == (DEL + LAM) ** 2
    assert parse_poly("-D") == -DEL
    assert parse_poly("+3") == Poly.const(3)
    assert parse_poly("(D + x)^16*(D + y)^16").total_degree() == MAX_POLY_DEGREE
    assert parse_poly("2*(x - y)/4") == (LAM - MU) * Fraction(1, 2)


def test_poly_grammar_rejections():
    bad = [
        "z + 1",        # unknown variable
        "D^-1",         # negative exponent
        "D^(1/2)",      # fractional exponent
        "1/(D)",        # non-constant divisor
        "1/0",          # zero divisor
        "D**(x)",       # non-constant exponent
        "D +",          # syntax error
        "__import__('os')",  # no calls, no attribute access
        "1.5",          # floats are not exact
        "D^99999",      # exponent above MAX_POLY_DEGREE
        "2^33",         # even on a constant
        "(D + x)^17*(D + y)^16",  # product above MAX_POLY_DEGREE
        "((D + x)^8)^5",          # power of a power above it
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_poly(text)


def test_poly_grammar_random_round_trip():
    rng = random.Random(1234)
    for _ in range(40):
        p = Poly.zero()
        for _ in range(rng.randint(1, 5)):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            p = p + c * DEL ** rng.randint(0, 3) * LAM ** rng.randint(0, 3)
        assert parse_poly(poly_str(p)) == p


# -- algebra files ---------------------------------------------------------------


def test_algebra_round_trip_all_builtins():
    algs = [
        make_block(Fraction(1, 2), 3, TRUNC),
        make_block(-2, 4, TruncationPolicy.ERROR_ON_OVERFLOW),
        make_bn(2),
        make_heisenberg_virasoro(),
        make_schrodinger_virasoro(),
    ]
    for alg in algs:
        back = algebra_from_dict(algebra_to_dict(alg))
        assert back.structure == alg.structure
        assert back.window == alg.window
        assert back.policy == alg.policy
        assert back.param_p == alg.param_p
        assert back.gen_names == alg.gen_names
        assert check_skew(back).ok == check_skew(alg).ok


def test_algebra_dict_shape_is_stable():
    d = algebra_to_dict(make_block(1, 1, TRUNC))
    assert d["format"] == "confal-algebra"
    assert d["p"] == "1"
    assert d["policy"] == "truncate"
    assert d["structure"]["0,0"] == {"0": "D + 2*x"}
    assert d["structure"]["0,1"] == {"1": "D + 3*x"}


def test_loaded_table_is_data_not_trusted():
    # a sign error in the file is caught by the checkers after loading.
    d = algebra_to_dict(make_heisenberg_virasoro())
    d["structure"]["1,0"] = {"0": "x"}
    bad = algebra_from_dict(d)
    assert not check_skew(bad).ok
    assert not check_jacobi(bad).ok


def test_readme_algebra_file_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    section = readme.split('Algebra files (`"format": "confal-algebra"`):', 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    alg = algebra_from_dict(json.loads(block))
    assert alg.gen_names == ("L", "M")
    assert check_skew(alg).ok and check_jacobi(alg).ok


def test_algebra_without_window_names_the_field():
    d = algebra_to_dict(make_block(1, 2, TRUNC))
    del d["window"]
    with pytest.raises(ParseError, match="missing field 'window'"):
        algebra_from_dict(d)


def test_algebra_rejections():
    good = algebra_to_dict(make_block(1, 2, TRUNC))

    def corrupt(**changes):
        d = json.loads(json.dumps(good))
        d.update(changes)
        return d

    with pytest.raises(ParseError):
        algebra_from_dict(corrupt(format="other"))
    with pytest.raises(ParseError):
        algebra_from_dict(corrupt(window=-1))
    with pytest.raises(ParseError):
        algebra_from_dict(corrupt(window="x"))
    with pytest.raises(ParseError):
        algebra_from_dict(corrupt(generators=["only-one"]))
    with pytest.raises(ParseError):
        algebra_from_dict(corrupt(structure={"0": {"0": "D"}}))
    with pytest.raises(ParseError):
        algebra_from_dict(corrupt(structure={"0,9": {"0": "D"}}))
    with pytest.raises(ParseError):
        algebra_from_dict(corrupt(structure={"0,0": {"9": "D"}}))
    with pytest.raises(ParseError):
        algebra_from_dict(corrupt(structure={"0,0": {"0": "D + y"}}))
    with pytest.raises(ParseError):
        algebra_from_dict(corrupt(policy="maybe"))


# -- module files -----------------------------------------------------------------


def test_module_round_trip_with_family_recovery():
    alg = make_bn(1)
    mods = [
        rank_one_module(alg, Fraction(1), Fraction(2)),
        rank_one_beta_module(alg, Fraction(0), Fraction(1), Fraction(3)),
        trivial_module(Fraction(5)),
    ]
    for mod in mods:
        back = module_from_dict(module_to_dict(mod))
        assert back.kind == mod.kind
        assert back.action == mod.action
        assert back.alpha == mod.alpha
        assert back.family == mod.family


def test_trivial_module_dict_shape():
    d = module_to_dict(trivial_module(Fraction(-1, 2)))
    assert d == {
        "format": "confal-module",
        "kind": "scalar_del",
        "rank": 1,
        "alpha": "-1/2",
    }
    back = module_from_dict(d)
    assert back.family is not None and back.family.family == FAMILY_TRIVIAL


def test_module_rejections():
    with pytest.raises(ParseError):
        module_from_dict({"format": "nope"})
    with pytest.raises(ParseError):
        module_from_dict({"format": "confal-module", "kind": "other"})
    with pytest.raises(ParseError):
        module_from_dict({"format": "confal-module", "kind": "free", "rank": 0})
    with pytest.raises(ParseError):
        module_from_dict(
            {
                "format": "confal-module",
                "kind": "free",
                "rank": 1,
                "action": {"0,5": {"0": "D"}},
            }
        )
    with pytest.raises(ParseError):
        module_from_dict(
            {
                "format": "confal-module",
                "kind": "free",
                "rank": 1,
                "action": {"0,0": {"0": "D + u"}},
            }
        )


# -- file IO ------------------------------------------------------------------------


def test_save_and_load_json(tmp_path):
    path = str(tmp_path / "alg.json")
    save_json(path, algebra_to_dict(make_block(2, 2, TRUNC)))
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("\n")
    assert json.loads(text)["format"] == "confal-algebra"
    assert algebra_from_dict(load_json(path)).param_p == 2


def test_load_json_error_positions(tmp_path):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(ParseError):
        load_json(missing)
    broken = tmp_path / "broken.json"
    broken.write_text('{"format": \n not-json', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_json(str(broken))
    assert "line 2" in str(err.value)
