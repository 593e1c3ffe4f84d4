"""Round-trip and rejection tests for the JSON file formats and the
polynomial grammar.

Round trips must be exact: load(dump(x)) reproduces the structure table (or
action table) as polynomials, not as strings.  Every rejection case asserts
ParseError with position or context in the message, never a silent default.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from confal.conformal import (
    TruncationPolicy,
    check_jacobi,
    check_skew,
    family_parameter,
    make_block,
    make_bn,
    make_heisenberg_virasoro,
    make_schrodinger_virasoro,
)
from confal.modules import (
    infer_family,
    rank_one_module,
    trivial_module,
)
from confal.poly import DEL, LAM, MAX_INPUT_SIZE, MAX_LITERAL_DIGITS, SPELLING_TO_VAR, Poly, Var
from confal.serialize import (
    MAX_COEFFICIENT_BITS,
    MAX_MODULE_RANK,
    MAX_POLY_DEGREE,
    ParseError,
    algebra_from_dict,
    load_json,
    module_from_dict,
    parse_poly,
    parse_rat,
)

from file_writers import algebra_to_dict, module_to_dict, save_json

TRUNC = TruncationPolicy.TRUNCATE_TO_ZERO


# -- rationals ---------------------------------------------------------------


def test_rational_round_trip():
    for v in (Fraction(0), Fraction(-3), Fraction(22, 7), Fraction(-1, 2)):
        assert parse_rat(str(v)) == v
    assert parse_rat(" 3/4 ") == Fraction(3, 4)
    with pytest.raises(ParseError):
        parse_rat("3/0")
    with pytest.raises(ParseError):
        parse_rat("pi")


def test_rational_literals_are_bounded_on_their_text():
    # The bound counts characters, and an exponent as the digits it adds;
    # both are checked before Fraction expands anything.
    big = "7" * MAX_LITERAL_DIGITS
    assert parse_rat(big) == int(big)
    assert parse_rat(f"-1/{big[3:]}") == Fraction(-1, int(big[3:]))
    assert parse_rat(f"1e{MAX_LITERAL_DIGITS - 1}") == 10 ** (MAX_LITERAL_DIGITS - 1)
    assert parse_rat(f"1e-{MAX_LITERAL_DIGITS - 1}") == Fraction(1, 10 ** (MAX_LITERAL_DIGITS - 1))
    for text in (big + "7", f"1e{MAX_LITERAL_DIGITS}", "2.5E-2999", "1e30000000", "1e" + "9" * 2000):
        with pytest.raises(ParseError, match="runs past the limit of 3000 digits"):
            parse_rat(text)


# -- polynomial grammar ---------------------------------------------------------


def test_poly_grammar_round_trip_oracle():
    cases = [
        Poly.zero(),
        Poly.const(Fraction(-3, 4)),
        DEL,
        DEL**2 - 2 * LAM + Poly.const(Fraction(1, 2)),
        -DEL * LAM + 3 * LAM**2,
    ]
    for p in cases:
        assert parse_poly(str(p)) == p


def test_poly_grammar_accepts_standard_forms():
    assert parse_poly("D^2 - 2*x + 1/2") == DEL**2 - 2 * LAM + Fraction(1, 2)
    assert parse_poly("(D + x)^2") == (DEL + LAM) ** 2
    assert parse_poly("-D") == -DEL
    assert parse_poly("+3") == Poly.const(3)
    assert parse_poly("(D + x)^16*(D - x)^16").total_degree() == MAX_POLY_DEGREE
    assert parse_poly("2*(x - D)/4") == (LAM - DEL) * Fraction(1, 2)


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
        "(D + x)^17*(D - x)^16",  # product above MAX_POLY_DEGREE
        "((D + x)^8)^5",          # power of a power above it
        "+".join(["x"] * 1500),   # a sum nested past the recursion limit
        "+".join(["x"] * 3000),   # too deep for ast.parse itself
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_poly(text)


def test_file_integers_are_bounded_before_they_are_converted(tmp_path):
    long = "7" * (MAX_LITERAL_DIGITS + 1)
    data = {"format": "confal-algebra", "window": 1}
    with pytest.raises(ParseError, match="bad structure key"):
        algebra_from_dict({**data, "structure": {f"{long},0": {}}})
    with pytest.raises(ParseError, match="bad structure target"):
        algebra_from_dict({**data, "structure": {"0,0": {long: "D"}}})
    path = tmp_path / "alg.json"
    path.write_text('{"window": %s}' % long, encoding="utf-8")
    with pytest.raises(ParseError, match="an integer of 3001 characters exceeds the limit 3000"):
        load_json(str(path))


def test_poly_numbers_are_bounded_before_they_are_expanded():
    big = "9" * MAX_LITERAL_DIGITS  # the largest integer literal, MAX_COEFFICIENT_BITS bits
    assert parse_poly(f"{big}*D").coefficient_bits() == MAX_COEFFICIENT_BITS
    assert parse_poly(f"D/{big} + x*{big}").coefficient_bits() == MAX_COEFFICIENT_BITS
    assert parse_poly("(10^32)^32*D") == 10**1024 * DEL
    refused = {
        f"{big}9*D": "column 0: integer literal of 3001 characters exceeds the limit 3000",
        f"D + 1_{big}": "column 4: integer literal of 3002 characters",
        "(((10^32)^32)^32)^32*D": "column 1: a coefficient of at least 108833 bits exceeds the limit 9966",
        f"{big}*{big}": "a coefficient of at least 19931 bits",            # a product
        f"D/{big}/{big}": "column 0: a coefficient of 19932 bits",         # a quotient, after the fact
        f"(x + {big[:200]})^32": "a coefficient of at least 21249 bits",   # a power
        f"1/{big[1:]} + 1/{big[2:]}": "a coefficient of 19917 bits",  # a sum, after the fact
    }
    for text, message in refused.items():
        with pytest.raises(ParseError, match=message):
            parse_poly(text)


def test_a_flat_sum_reads_each_coefficient_bit_length_a_bounded_number_of_times(monkeypatch):
    # A sum can break the bound only at its right operand's monomials, so
    # parsing a flat sum of n terms reads O(n) bit lengths, not O(n^2).
    monomials = [(d, e) for d in range(MAX_POLY_DEGREE + 1) for e in range(MAX_POLY_DEGREE + 1 - d)]
    text = " + ".join(f"1/{7 + k}*D^{d}*x^{e}" for k, (d, e) in enumerate(monomials))
    reads = 0
    read_bits = Poly.coefficient_bits

    def counting(poly, *at):
        nonlocal reads
        reads += sum(1 for _ in (at[0] if at and at[0] is not None else poly).terms())
        return read_bits(poly, *at)

    monkeypatch.setattr(Poly, "coefficient_bits", counting)
    assert len(monomials) == 561
    assert len(list(parse_poly(text).terms())) == 561
    assert reads < 20 * len(monomials)


def test_a_coefficient_past_the_bound_only_through_a_sum_is_refused():
    big = "9" * MAX_LITERAL_DIGITS
    # Each term is within the bound; the sum at D is not, many terms later.
    text = f"1/{big[1:]}*D + " + " + ".join(f"x^{e}" for e in range(1, 30)) + f" + 1/{big[2:]}*D"
    with pytest.raises(ParseError, match="a coefficient of 19917 bits exceeds the limit"):
        parse_poly(text)
    with pytest.raises(ParseError, match="a coefficient of 19917 bits exceeds the limit"):
        parse_poly(text.replace(f" + 1/{big[2:]}*D", f" - (-1/{big[2:]})*D"))


def test_poly_grammar_admits_only_the_given_variables():
    assert parse_poly("D*x") == DEL * LAM
    with pytest.raises(ParseError, match="column 4: variable 'y' is not one of D, x in 'D \\+ y'"):
        parse_poly("D + y")
    # The leftmost offending name is the one reported.
    with pytest.raises(ParseError, match="column 4: variable 'y' is not one of D, x in"):
        parse_poly("D + y*u")


def test_default_registry_is_d_x_y():
    # The ring spells its variables D, x, y; names outside it are refused too.
    assert SPELLING_TO_VAR == {"D": Var.PARTIAL, "x": Var.LAMBDA, "y": Var.MU}
    for text in ("D + u", "w"):
        with pytest.raises(ParseError, match="is not one of D, x in"):
            parse_poly(text)


#: An entry that cancels to ``D + 2*x`` only after two 16th powers of a
#: six-term sum are expanded; ``u`` and ``w`` are not even ring variables.
WIDE_ENTRY = "(D+x+y+u+w+1)^16 - (D+x+y+u+w+1)^16 + D + 2*x"


@pytest.mark.parametrize(
    "load, data",
    [
        (algebra_from_dict, {"format": "confal-algebra", "window": 0,
                             "structure": {"0,0": {"0": WIDE_ENTRY}}}),
        (module_from_dict, {"format": "confal-module", "kind": "free", "rank": 1,
                            "action": {"0,0": {"0": WIDE_ENTRY}}}),
    ],
)
def test_file_entries_refuse_other_variables_before_expanding(load, data):
    start = time.perf_counter()
    with pytest.raises(ParseError, match="column 5: variable 'y' is not one of D, x"):
        load(data)
    assert time.perf_counter() - start < 0.5


def test_poly_grammar_random_round_trip():
    rng = random.Random(1234)
    for _ in range(40):
        p = Poly.zero()
        for _ in range(rng.randint(1, 5)):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            p = p + c * DEL ** rng.randint(0, 3) * LAM ** rng.randint(0, 3)
        assert parse_poly(str(p)) == p


def test_poly_grammar_hypothesis_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    polys = st.dictionaries(exponents, coefficients, max_size=6).map(Poly)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys)
    def check(p):
        text = str(p)
        # The grammar admits D and x only: refused exactly when y occurs.
        if Var.MU in p.variables():
            with pytest.raises(ParseError, match="variable 'y' is not one of D, x"):
                parse_poly(text)
        else:
            assert parse_poly(text) == p

    check()


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
        assert family_parameter(back) == family_parameter(alg)
        assert back.gen_names == alg.gen_names
        assert check_skew(back).ok == check_skew(alg).ok


def test_algebra_dict_shape_is_stable():
    d = algebra_to_dict(make_block(1, 1, TRUNC))
    assert d["format"] == "confal-algebra"
    assert "kind" not in d and "p" not in d
    assert d["policy"] == "truncate"
    assert d["structure"]["0,0"] == {"0": "D + 2*x"}
    assert d["structure"]["0,1"] == {"1": "D + 3*x"}


def test_algebra_file_p_is_optional_but_checked_against_the_table():
    good = algebra_to_dict(make_block(2, 3, TRUNC))
    for extra in ({}, {"p": None}, {"p": "2"}, {"p": "4/2", "kind": "custom"}, {"kind": "block"}):
        assert algebra_from_dict({**good, **extra}).structure == make_block(2, 3, TRUNC).structure
    with pytest.raises(ParseError, match=r"p='1' disagrees with the table, whose \[L_0 L_0\] gives p='2'"):
        algebra_from_dict({**good, "p": "1"})
    no_d = {**good, "p": "2", "structure": {"0,0": {"0": "4*x"}}}
    with pytest.raises(ParseError, match="p='2' is stated, but .* has no D term"):
        algebra_from_dict(no_d)
    # Without a stated p, a table with no D term loads: it is data like any other.
    del no_d["p"]
    assert algebra_from_dict(no_d).structure == {(0, 0): {0: 4 * LAM}}


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


def test_readme_library_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    section = readme.split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "False\nD + 3\n"


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
    # Malformed entries are refused, not left to fail inside the parser.
    for entry in ("D", ["0", "D"], {"a": "D"}, {"0": 3}):
        with pytest.raises(ParseError):
            algebra_from_dict(corrupt(structure={"0,0": entry}))
    with pytest.raises(ParseError):
        algebra_from_dict(corrupt(policy="maybe"))
    # A file of the wrong JSON shape is refused, not left to fail on access.
    for data in ([1], corrupt(structure=[1]), corrupt(structure=[["0,0", {"0": "D"}]]),
                 corrupt(p=1)):
        with pytest.raises(ParseError):
            algebra_from_dict(data)
    # Numbers and strings are not coerced: a window is a JSON integer, the
    # generator names are a list of strings and the name is a string.
    for data in (corrupt(window=2.0), corrupt(window=1.9), corrupt(window="2"),
                 corrupt(window=True), corrupt(generators="LMN"),
                 corrupt(generators=["L", "M", 3]), corrupt(generators=None),
                 corrupt(name=None), corrupt(name={"a": [1, 2]}), corrupt(name=1)):
        with pytest.raises(ParseError):
            algebra_from_dict(data)


def test_algebra_generator_names_are_distinct():
    data = {"format": "confal-algebra", "window": 1, "generators": ["L", "M"],
            "structure": {"0,1": {"0": "x", "1": "2*x"}}}
    # With distinct names the skew failure on (1, 0) shows both of its terms.
    failure, = check_skew(algebra_from_dict(data)).to_payload()["failures"]
    assert failure == {"pair": [1, 0], "residual": {"L": "-D - x", "M": "-2*D - 2*x"}}
    with pytest.raises(ParseError, match="algebra generators name 'L' twice"):
        algebra_from_dict({**data, "generators": ["L", "L"]})


def test_algebra_window_is_bounded():
    data = {"format": "confal-algebra", "window": MAX_INPUT_SIZE}
    assert algebra_from_dict(data).window == MAX_INPUT_SIZE
    for window in (MAX_INPUT_SIZE + 1, 10**9):
        with pytest.raises(ParseError, match=f"algebra window={window} exceeds the limit 64"):
            algebra_from_dict({**data, "window": window})


# -- module files -----------------------------------------------------------------


def test_module_round_trip_with_family_recovery():
    alg = make_bn(1)
    mods = [
        rank_one_module(alg, Fraction(1), Fraction(2)),
        rank_one_module(alg, Fraction(0), Fraction(1), Fraction(3)),
        trivial_module(Fraction(5)),
    ]
    for mod in mods:
        back = module_from_dict(module_to_dict(mod))
        assert back.kind == mod.kind
        assert back.action == mod.action
        assert back.alpha == mod.alpha
        assert infer_family(back) == infer_family(mod)


def test_trivial_module_dict_shape():
    d = module_to_dict(trivial_module(Fraction(-1, 2)))
    assert d == {
        "format": "confal-module",
        "kind": "scalar_del",
        "rank": 1,
        "alpha": "-1/2",
    }
    assert module_from_dict(d) == trivial_module(Fraction(-1, 2))


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
    for entry in ("D", {"a": "D"}, {"0": None}):
        with pytest.raises(ParseError):
            module_from_dict(
                {"format": "confal-module", "kind": "free", "rank": 1,
                 "action": {"0,0": entry}}
            )
    for data in ([1], {"format": "confal-module", "kind": "free", "rank": 1, "action": [1]}):
        with pytest.raises(ParseError):
            module_from_dict(data)
    # A rank is a JSON integer and a scalar_del alpha a rational string.
    for rank in (1.7, 1.0, "1", True):
        with pytest.raises(ParseError):
            module_from_dict({"format": "confal-module", "kind": "free", "rank": rank})
    for alpha in (1, 0.5, None, ["1/2"]):
        with pytest.raises(ParseError):
            module_from_dict({"format": "confal-module", "kind": "scalar_del", "alpha": alpha})


def test_scalar_del_module_is_rank_one_without_action():
    data = {"format": "confal-module", "kind": "scalar_del", "alpha": "1/2"}
    assert module_from_dict(data).rank == 1
    assert module_from_dict({**data, "rank": 1}).alpha == Fraction(1, 2)
    for action in ({"0,0": {"0": "D^3"}}, {}):
        with pytest.raises(ParseError, match="a scalar_del module takes no field 'action'"):
            module_from_dict({**data, "rank": 1, "action": action})
    for rank in (5, 0):
        with pytest.raises(ParseError, match=f"a scalar_del module has rank 1, got rank={rank}"):
            module_from_dict({**data, "rank": rank})
    for rank in (1.0, "1", True):
        with pytest.raises(ParseError, match="is not an integer"):
            module_from_dict({**data, "rank": rank})


def test_module_rank_is_bounded():
    data = {"format": "confal-module", "kind": "free", "rank": MAX_MODULE_RANK}
    assert module_from_dict(data).rank == MAX_MODULE_RANK
    for rank in (MAX_MODULE_RANK + 1, 10**9):
        with pytest.raises(ParseError, match=f"module rank={rank} exceeds the limit 16"):
            module_from_dict({**data, "rank": rank})


def test_module_action_refuses_a_negative_generator_index():
    data = {"format": "confal-module", "kind": "free", "rank": 1,
            "action": {"0,0": {"0": "D + x"}, "-2,0": {"0": "x"}}}
    with pytest.raises(ParseError, match="action key '-2,0' names a negative generator index"):
        module_from_dict(data)


# -- file IO ------------------------------------------------------------------------


def test_save_and_load_json(tmp_path):
    path = str(tmp_path / "alg.json")
    save_json(path, algebra_to_dict(make_block(2, 2, TRUNC)))
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("\n")
    assert json.loads(text)["format"] == "confal-algebra"
    assert family_parameter(algebra_from_dict(load_json(path))) == 2


def test_load_json_error_positions(tmp_path):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(ParseError):
        load_json(missing)
    broken = tmp_path / "broken.json"
    broken.write_text('{"format": \n not-json', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_json(str(broken))
    assert "line 2" in str(err.value)
