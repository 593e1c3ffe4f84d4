"""The exit-code contract under fuzzed algebra and module files.

Every input file ends in a certificate (exit 0 or 1) or in one short line on
stderr and exit 2, never in a traceback.  The strategy writes files near
every bound the readers enforce: entries near ``MAX_POLY_DEGREE`` and
``MAX_LITERAL_DIGITS``, ranks near ``MAX_MODULE_RANK``, windows near
``MAX_INPUT_SIZE``, deep nesting of both JSON and polynomials, odd spellings
of keys and targets, values of the wrong JSON type, generator names given
twice, and action rows for generators the algebra lacks.
"""

import contextlib
import io
import json

import pytest

from confal.cli import main
from confal.conformal import TruncationPolicy, make_block
from confal.poly import MAX_INPUT_SIZE, MAX_LITERAL_DIGITS
from confal.serialize import MAX_MODULE_RANK, MAX_POLY_DEGREE

from file_writers import algebra_to_dict

#: The longest stderr line an exit 2 may print.
MAX_MESSAGE = 300

LONG = "7" * MAX_LITERAL_DIGITS

#: Polynomial strings: ordinary ones, and ones at and just past each bound.
POLYS = [
    "D", "x", "D + x", "-D - x", "2*D + 3*x", "1/2*D - x", "0", "D*x", "(D + x)^2",
    f"D^{MAX_POLY_DEGREE}", f"D^{MAX_POLY_DEGREE + 1}", f"x^16*D^16", f"x^17*D^16",
    f"(D + x)^{MAX_POLY_DEGREE // 2}", f"(D + 1)^{MAX_POLY_DEGREE}*x",
    f"{LONG}*D", f"{LONG}7*D", f"D/{LONG}", f"1/{LONG}*x + {LONG}*D",
    "(" * 150 + "D" + ")" * 150, "(" * 5000 + "x" + ")" * 5000, "-" * 3000 + "D",
    "y", "D +", "D/0", "D/x", "D^x", "D^-1", "D^(1/2)", "1.5*D", "D ^ 2 ^ 2", "", " ",
    "1e9*D", "D" + " + D" * 2000,
]

#: Spellings of small indices: plain, padded, signed, grouped, non-ASCII.
INDICES = ["0", "1", "2", "3", "00", "+1", " 1", "1 ", "-1", "1_0", "١", "1.0", "a", "",
           "9" * 40, LONG]

#: JSON values of the wrong type for almost any field.
WRONG = [None, True, 1.5, -1, [], {}, "1", [1, 2], {"a": 1}, LONG]


def nested(depth):
    """A JSON text of ``depth`` nested arrays."""
    return "[" * depth + "]" * depth


def fuzz_strategies(st):
    def rare(common, unusual):
        """A value from ``common``, or one time in ten a value from ``unusual``."""
        return st.integers(0, 9).flatmap(lambda n: unusual if n == 9 else common)

    index = st.sampled_from(INDICES)
    small = st.integers(0, 3).map(str)
    key = rare(st.tuples(small, small).map(",".join),
               st.one_of(st.tuples(index, index).map(",".join),
                         st.sampled_from(["0", "0,1,2", "0;1", ",", "0,", " 0 , 1 "])))
    target = rare(small, index)
    poly = rare(st.sampled_from(POLYS[:9]), st.sampled_from(POLYS))
    wrong = st.sampled_from(WRONG)
    entry = rare(st.dictionaries(target, rare(poly, wrong), max_size=2), wrong)
    table = rare(st.dictionaries(key, entry, max_size=4), wrong)
    window = rare(st.integers(0, 3), st.sampled_from(
        [-1, MAX_INPUT_SIZE, MAX_INPUT_SIZE + 1, 10**9, int(LONG), "1", 1.0, None, True]))
    rank = rare(st.integers(1, 3), st.sampled_from(
        [0, -1, MAX_MODULE_RANK - 1, MAX_MODULE_RANK, MAX_MODULE_RANK + 1, 10**9, "2", 2.0]))

    @st.composite
    def algebra(draw):
        data = {"format": draw(rare(st.just("confal-algebra"), st.sampled_from(
            [None, "confal-module", "", 1])))}
        w = draw(window)
        if draw(st.integers(0, 9)) < 9:
            data["window"] = w
        if draw(st.booleans()):
            data["policy"] = draw(rare(st.sampled_from(["error", "truncate"]), wrong))
        if draw(st.integers(0, 4)) == 4:
            size = w + 1 if isinstance(w, int) and 0 <= w <= 3 else 2
            names = [f"g{i}" for i in range(size)]
            data["generators"] = draw(rare(st.sampled_from([names, ["g0"] * size]), wrong))
        if draw(st.integers(0, 3)) == 3:
            data["name"] = draw(st.sampled_from(["n" * 500, "", "B(1)", "é", None, [1]]))
        if draw(st.integers(0, 3)) == 3:
            data["p"] = draw(rare(st.sampled_from(["1", "2", "-1", "1/2", "0"]), wrong))
        structure = draw(table)
        if isinstance(w, int) and 0 <= w <= 3 and draw(st.booleans()):
            # A real table, with the drawn entries on top: it passes or fails
            # the checks rather than the reader.
            policy = draw(st.sampled_from(list(TruncationPolicy)))
            block = algebra_to_dict(make_block(draw(st.sampled_from([1, -1, 2])), w, policy))
            structure = {**block["structure"], **structure} if isinstance(structure, dict) else structure
            data["policy"] = policy.value
        data["structure"] = structure
        return data

    @st.composite
    def module(draw):
        kind = draw(rare(st.just("free"), st.sampled_from(["scalar_del", "other", None, 1])))
        data = {"format": "confal-module", "kind": kind}
        if draw(st.integers(0, 9)) < 9:
            data["rank"] = draw(rank)
        if kind == "scalar_del" or draw(st.integers(0, 9)) == 9:
            data["alpha"] = draw(rare(st.sampled_from(["0", "1/2", "-3"]), wrong))
        if kind != "scalar_del" or draw(st.integers(0, 4)) == 4:
            # Generator indices up to 5 name rows the small windows lack.
            gen = rare(st.integers(0, 5).map(str), index)
            action_key = st.tuples(gen, st.integers(0, 2).map(str)).map(",".join)
            action = draw(rare(st.dictionaries(action_key, entry, max_size=3), wrong))
            if isinstance(action, dict) and draw(st.booleans()):
                # The module M_{1,0} of B(1), under the drawn rows.
                action = {"0,0": {"0": "D + x"}, **action}
            data["action"] = action
        return data

    def contents(doc):
        """``doc`` as JSON, or one time in ten a file that is not a valid document."""
        return rare(st.just(json.dumps(doc).encode()), st.sampled_from([
            nested(100_000).encode(), nested(500).encode(), b'{"window": 0,}',
            b'{"a": 1, "a": 2}', b'{"name": "caf\xe9"}', b"", f'{{"window": {LONG}7}}'.encode(),
            b'{"format": "confal-algebra", "window": 0, "name": ' + nested(990).encode() + b"}",
            b'{"format": "confal-algebra", "window": 0, "p": ' + nested(990).encode() + b"}"]))

    @st.composite
    def case(draw):
        """An argv whose ``file:`` selectors name the files of ``files``."""
        command = draw(st.sampled_from(["verify-algebra", "verify-module", "vir-module"]))
        files = {}
        alg = ["--alg", "vir"]
        if command != "vir-module":
            files["alg.json"] = draw(contents(draw(algebra())))
            alg = ["--alg", "file:{alg.json}"]
        if command == "verify-algebra":
            return ["verify-algebra", *alg], files
        files["mod.json"] = draw(contents(draw(module())))
        return ["verify-module", *alg, "--mod", "file:{mod.json}"], files

    return case()


def test_fuzzed_files_end_in_a_verdict_or_one_line_exit_two(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(fuzz_strategies(hypothesis.strategies))
    def check(case):
        argv, files = case
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        argv = [arg.replace("{alg.json}", str(tmp_path / "alg.json"))
                   .replace("{mod.json}", str(tmp_path / "mod.json")) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (files, code)
        if code == 2:
            assert out == "", files
            assert err.count("\n") == 1 and err.endswith("\n"), (files, err)
            assert len(err) <= MAX_MESSAGE, (files, err)
        else:
            assert err == "", files
            statuses = [r["status"] for r in json.loads(out)["results"]]
            assert code == (1 if "FAIL" in statuses else 0), files

    check()
