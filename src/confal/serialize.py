"""Readers of the text and JSON formats for polynomials, algebras, and modules.

It only reads, and treats every file as untrusted input.

Polynomial strings use the variables ``D`` (translation) and ``x``
(bracket variable) with ``+ - * ^`` and integer or rational literals, e.g.
``"(1/2)*D^2*x - 3"``.  Rendering always emits the canonical term order, so
parse(render(p)) == p for every polynomial in ``D`` and ``x``, and rendered
strings are byte-stable.

Algebra files::

    {
      "format": "confal-algebra", "name": "...",
      "window": 1, "policy": "truncate" | "error",
      "generators": ["L", "M"],
      "structure": {"0,1": {"1": "D + x"}, ...}
    }

Module files::

    {"format": "confal-module", "kind": "free", "rank": 1,
     "action": {"0,0": {"0": "-D - x"}}}
    {"format": "confal-module", "kind": "scalar_del", "alpha": "1/2"}

Missing structure or action entries mean zero; a pair or a target named
twice, in one spelling or two (``"0,1"`` and ``"00,1"``), is refused.  So
is a generator name given twice, since a residual is rendered keyed by
name, and a ``name`` that is not a string; a missing name is ``"custom"``.
An algebra is its table: a key the reader does not know, ``kind`` included, is
ignored.  An algebra file may state ``"p"``, which must then equal the
parameter the table gives (:func:`~confal.conformal.family_parameter`).
Any name other than ``D`` and ``x``, ``y`` included, is refused when the
entry is parsed, before anything is expanded.  Loaded tables are data, not
trusted facts: run the axiom checkers on them before relying on anything.
"""

from __future__ import annotations

import ast
import json
import math
import os
import re
from fractions import Fraction
from typing import Any

from .conformal import (
    ConformalAlgebra,
    LambdaValue,
    TruncationPolicy,
    UnsupportedAlgebraError,
    family_parameter,
)
from .modules import KIND_FREE, KIND_SCALAR_DEL, ConformalModule, trivial_module
from .poly import (
    MAX_INPUT_SIZE,
    MAX_LITERAL_DIGITS,
    SPELLING_TO_VAR,
    ParseError,
    Poly,
    Var,
    elide,
    parse_rat,
    quote,
)


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)

#: Largest exponent, and largest total degree of any product, that
#: :func:`parse_poly` accepts.  The checkers' cost grows about as the cube of
#: the entry degree: a two-generator table of degree-32 entries verifies in
#: a few seconds, one of degree 128 runs for minutes.
MAX_POLY_DEGREE = 32

#: Most bits the numerator or the denominator of a coefficient may take in
#: any polynomial :func:`parse_poly` forms: as many as an integer of
#: :data:`~confal.poly.MAX_LITERAL_DIGITS` digits.
MAX_COEFFICIENT_BITS = math.ceil(MAX_LITERAL_DIGITS * math.log2(10))

#: An integer literal longer than :data:`~confal.poly.MAX_LITERAL_DIGITS`.
_LONG_LITERAL = re.compile(rf"\d[\d_]{{{MAX_LITERAL_DIGITS},}}")

#: The variables a polynomial string may use: ``D`` and ``x``.
ENTRY_VARIABLES = (Var.PARTIAL, Var.LAMBDA)


def parse_poly(text: str) -> Poly:
    """Parse the polynomial grammar exactly.

    ``^`` is the power operator.  Only :data:`ENTRY_VARIABLES`, rational
    literals, parentheses, and ``+ - * / ^`` are accepted; ``/`` requires a
    constant divisor.  Every name is checked before anything is expanded,
    so ``y`` is refused like any other name.  No exponent, and no product
    formed on the way, may exceed total degree :data:`MAX_POLY_DEGREE`, no
    integer literal may have more than :data:`~confal.poly.MAX_LITERAL_DIGITS`
    characters, and no coefficient formed on the way may take more than
    :data:`MAX_COEFFICIENT_BITS` bits.  Each bound is checked before the
    literal is converted, or the product or power is expanded.  Errors carry
    the source position.
    """
    literal = _LONG_LITERAL.search(text)
    if literal:
        raise ParseError(
            f"column {literal.start()}: integer literal of {len(literal[0])} "
            f"characters exceeds the limit {MAX_LITERAL_DIGITS}"
        )
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
        names = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
        for node in sorted(names, key=lambda node: node.col_offset):
            if SPELLING_TO_VAR.get(node.id) not in ENTRY_VARIABLES:
                raise ParseError(
                    f"column {node.col_offset}: variable {quote(node.id)} is not one of "
                    f"{', '.join(v.spelling for v in ENTRY_VARIABLES)} in {quote(text)}"
                )
        return _eval_node(tree.body, text)
    except SyntaxError as exc:
        raise ParseError(
            f"syntax error in polynomial at column {exc.offset}: {quote(text)}"
        ) from None
    except RecursionError:
        raise ParseError(f"polynomial nested too deeply to parse: {quote(text)}") from None


def _eval_node(node: ast.AST, source: str) -> Poly:
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        left = _eval_node(node.left, source)
        right = _eval_node(node.right, source)
        result = _eval_binop(node, left, right, source)
        # Both operands are within the bound already, so a sum can break it only
        # at the right operand's monomials; a flat sum is checked in linear time.
        at = right if isinstance(node.op, (ast.Add, ast.Sub)) else None
        _check_bits(result.coefficient_bits(at), node, source)
        return result
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _eval_node(node.operand, source)
        return operand if isinstance(node.op, ast.UAdd) else -operand
    if isinstance(node, ast.Name):
        return Poly.variable(SPELLING_TO_VAR[node.id])
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return Poly.const(node.value)
        raise ParseError(
            f"column {node.col_offset}: unsupported literal {quote(node.value)} "
            f"in {quote(source)}"
        )
    raise ParseError(
        f"column {getattr(node, 'col_offset', 0)}: unsupported syntax "
        f"in {quote(source)}"
    )


def _eval_binop(node: ast.BinOp, left: Poly, right: Poly, source: str) -> Poly:
    if isinstance(node.op, ast.Add):
        return left + right
    if isinstance(node.op, ast.Sub):
        return left - right
    if isinstance(node.op, ast.Mult):
        _check_degree("degree", left.total_degree() + right.total_degree(), node, source)
        # A product of integers of a and b bits has at least a + b - 1.
        bits = left.coefficient_bits() + right.coefficient_bits() - 1
        _check_bits(bits, node, source, "at least ")
        return left * right
    if isinstance(node.op, ast.Div):
        try:
            divisor = right.as_constant()
        except ValueError:
            raise ParseError(
                f"column {node.col_offset}: division by a non-constant "
                f"in {quote(source)}"
            ) from None
        if divisor == 0:
            raise ParseError(
                f"column {node.col_offset}: division by zero in {quote(source)}"
            )
        return left * (Fraction(1) / divisor)
    # Pow
    try:
        exponent = right.as_constant()
    except ValueError:
        raise ParseError(
            f"column {node.col_offset}: non-constant exponent in {quote(source)}"
        ) from None
    if exponent.denominator != 1 or exponent < 0:
        raise ParseError(
            f"column {node.col_offset}: exponent must be a nonnegative "
            f"integer in {quote(source)}"
        )
    _check_degree("exponent", exponent, node, source)
    _check_degree("degree", left.total_degree() * exponent, node, source)
    # The power a^e of an integer of a bits has at least e (a - 1) + 1.
    bits = int(exponent) * (left.coefficient_bits() - 1) + 1
    _check_bits(bits, node, source, "at least ")
    return left ** int(exponent)


def _check_bits(bits: int, node: ast.AST, source: str, at_least: str = "") -> None:
    if bits > MAX_COEFFICIENT_BITS:
        raise ParseError(
            f"column {node.col_offset}: a coefficient of {at_least}{bits} bits exceeds "
            f"the limit {MAX_COEFFICIENT_BITS} in {quote(source)}"
        )


def _check_degree(what: str, value: Fraction | int, node: ast.AST, source: str) -> None:
    if value > MAX_POLY_DEGREE:
        raise ParseError(
            f"column {node.col_offset}: {what} {elide(str(value))} exceeds the limit "
            f"{MAX_POLY_DEGREE} in {quote(source)}"
        )


def _object(value: Any, what: str) -> dict[str, Any]:
    """``value`` itself, if it is a JSON object; ParseError otherwise."""
    if not isinstance(value, dict):
        raise ParseError(f"{what} is not an object")
    return value


def _integer(value: Any, what: str) -> int:
    """``value`` itself, if it is a JSON integer; ParseError otherwise.

    ``true``, ``1.0`` and ``"1"`` are refused, not coerced.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what}={quote(value)} is not an integer")
    return value


def _int_literal(text: str) -> int:
    """``int(text)``; ParseError, before any conversion, past the digit bound."""
    if len(text) > MAX_LITERAL_DIGITS:
        raise ParseError(
            f"an integer of {len(text)} characters exceeds the limit {MAX_LITERAL_DIGITS}"
        )
    return int(text)


def _rational(value: Any, what: str) -> Fraction:
    """``value`` parsed, if it is a rational string; ParseError otherwise."""
    if not isinstance(value, str):
        raise ParseError(f"{what}={quote(value)} is not a rational string")
    return parse_rat(value)


def _parse_entry(entry: Any, what: str, size: int, bound: str) -> dict[int, Poly]:
    """One structure or action entry of a file: target index -> polynomial.

    Targets must lie in ``range(size)``; ``bound`` names that range in the
    message.  A target named twice, under two spellings such as ``"0"`` and
    ``"00"``, is refused.  Zero polynomials are left out.
    """
    parsed: dict[int, Poly] = {}
    seen: set[int] = set()
    if not isinstance(entry, dict):
        raise ParseError(f"{what} entry {quote(entry)} is not an object")
    for target, text in entry.items():
        try:
            k = _int_literal(target)
        except ValueError:
            raise ParseError(f"bad {what} target {quote(target)}") from None
        if not 0 <= k < size:
            raise ParseError(f"{what} target {quote(target)} outside {bound}")
        _refuse_repeat(seen, k, f"{what} target {quote(target)} names target {k} twice")
        if not isinstance(text, str):
            raise ParseError(f"{what} target {quote(target)} is not a polynomial string")
        poly = parse_poly(text)
        if poly:
            parsed[k] = poly
    return parsed


# -- algebra files ------------------------------------------------------------


def _refuse_repeat(seen: set[Any], key: Any, message: str) -> None:
    """Add ``key`` to ``seen``; ParseError with ``message`` if it is there already."""
    if key in seen:
        raise ParseError(message)
    seen.add(key)


def _parse_pair_key(key: str, what: str) -> tuple[int, int]:
    parts = key.split(",")
    if len(parts) != 2:
        raise ParseError(f"bad {what} key {quote(key)}: expected 'i,j'")
    try:
        return _int_literal(parts[0]), _int_literal(parts[1])
    except ValueError:
        raise ParseError(f"bad {what} key {quote(key)}: expected integers") from None


def algebra_from_dict(data: Any) -> ConformalAlgebra:
    if _object(data, "algebra file").get("format") != "confal-algebra":
        raise ParseError("not an algebra file: missing format marker")
    if "window" not in data:
        raise ParseError("malformed algebra file: missing field 'window'")
    window = _integer(data["window"], "algebra window")
    policy_value = data.get("policy", "truncate")
    try:
        policy = TruncationPolicy(policy_value)
    except (ValueError, TypeError):
        raise ParseError(
            f"algebra policy {quote(policy_value)} is not 'error' or 'truncate'"
        ) from None
    generators = data.get("generators", [])
    if not (isinstance(generators, list) and all(isinstance(g, str) for g in generators)):
        raise ParseError(f"algebra generators {quote(generators)} are not a list of strings")
    named: set[str] = set()
    for g in generators:
        _refuse_repeat(named, g, f"algebra generators name {quote(g)} twice")
    name = data.get("name", "custom")
    if not isinstance(name, str):
        raise ParseError(f"algebra name={quote(name)} is not a string")
    raw_structure = _object(data.get("structure", {}), "algebra structure")
    if window < 0:
        raise ParseError("window must be nonnegative")
    if window > MAX_INPUT_SIZE:
        raise ParseError(f"algebra window={elide(str(window))} exceeds the limit {MAX_INPUT_SIZE}")
    if not generators:
        generators = [f"L_{i}" for i in range(window + 1)]
    if len(generators) != window + 1:
        raise ParseError(
            f"{len(generators)} generator names for window {window}"
        )
    p_raw = data.get("p")
    p = _rational(p_raw, "algebra parameter p") if p_raw is not None else None
    structure: dict[tuple[int, int], LambdaValue] = {}
    seen: set[tuple[int, int]] = set()
    for key, entry in raw_structure.items():
        i, j = _parse_pair_key(key, "structure")
        if not (0 <= i <= window and 0 <= j <= window):
            raise ParseError(f"structure pair {quote(key)} outside window {window}")
        _refuse_repeat(seen, (i, j), f"structure key {quote(key)} names the pair {i},{j} twice")
        parsed = _parse_entry(entry, "structure", window + 1, f"window {window}")
        if parsed:
            structure[(i, j)] = parsed
    alg = ConformalAlgebra(
        name=name,
        policy=policy,
        structure=structure,
        gen_names=tuple(generators),
    )
    if p is not None:
        try:
            table_p = family_parameter(alg)
        except UnsupportedAlgebraError as exc:
            raise ParseError(f"algebra parameter p={quote(p_raw)} is stated, but {exc}") from None
        if table_p != p:
            raise ParseError(f"algebra parameter p={quote(p_raw)} disagrees with the table, "
                             f"whose [L_0 L_0] gives p={quote(str(table_p))}")
    return alg


# -- module files -------------------------------------------------------------


def module_from_dict(data: Any) -> ConformalModule:
    if _object(data, "module file").get("format") != "confal-module":
        raise ParseError("not a module file: missing format marker")
    kind = data.get("kind")
    if kind == KIND_SCALAR_DEL:
        # The module is C with D acting by alpha: rank 1 and no action table.
        if "action" in data:
            raise ParseError("a scalar_del module takes no field 'action'")
        if _integer(data.get("rank", 1), "module rank") != 1:
            raise ParseError(f"a scalar_del module has rank 1, got rank={quote(data['rank'])}")
        return trivial_module(_rational(data.get("alpha", "0"), "module alpha"))
    if kind != KIND_FREE:
        raise ParseError(f"unknown module kind {quote(kind)}")
    rank = _integer(data.get("rank", 1), "module rank")
    if rank < 1:
        raise ParseError("module rank must be positive")
    if rank > MAX_MODULE_RANK:
        raise ParseError(f"module rank={elide(str(rank))} exceeds the limit {MAX_MODULE_RANK}")
    action: dict[tuple[int, int], dict[int, Poly]] = {}
    seen: set[tuple[int, int]] = set()
    for key, entry in _object(data.get("action", {}), "module action").items():
        i, b = _parse_pair_key(key, "action")
        if i < 0:
            raise ParseError(f"action key {quote(key)} names a negative generator index")
        if not 0 <= b < rank:
            raise ParseError(f"action key {quote(key)} hits basis index outside rank {rank}")
        _refuse_repeat(seen, (i, b), f"action key {quote(key)} names the pair {i},{b} twice")
        parsed = _parse_entry(entry, "action", rank, f"rank {rank}")
        if parsed:
            action[(i, b)] = parsed
    return ConformalModule(rank=rank, alpha=None, action=action)


#: Largest input file :func:`load_json` accepts, in bytes.  A block table of
#: window 24, written with ``indent=2``, takes about 15 KB.
MAX_FILE_BYTES = 1 << 20

#: Largest ``rank`` a module file may declare.  The module walk grows about
#: as the cube of the rank: a dense action of rank 16 on a window-3 table
#: verifies in under a second, one of rank 64 in about 20 s.
MAX_MODULE_RANK = 16


def load_json(path: str) -> dict[str, Any]:
    """Parse a UTF-8 JSON file of at most :data:`MAX_FILE_BYTES` bytes.

    The size is checked before the file is read, and no more than one byte
    past the limit is ever read, so a pipe or device whose size is unknown
    is bounded too.  An object that repeats a key is refused, since JSON
    would keep only the last value, and so are an integer longer than
    :data:`~confal.poly.MAX_LITERAL_DIGITS` and nesting deeper than the
    decoder's recursion limit.
    """
    shown = quote(path)
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            data = b"" if size > MAX_FILE_BYTES else fh.read(MAX_FILE_BYTES + 1)
    except OSError as exc:
        raise ParseError(f"cannot read {shown}: {exc.strerror or exc}") from None
    if max(size, len(data)) > MAX_FILE_BYTES:
        raise ParseError(f"{shown}: file exceeds the limit of {MAX_FILE_BYTES} bytes")
    try:
        return json.loads(
            data.decode("utf-8"), object_pairs_hook=_unique_keys, parse_int=_int_literal
        )
    except UnicodeDecodeError as exc:
        raise ParseError(f"{shown}: not UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{shown}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    except ParseError as exc:
        raise ParseError(f"{shown}: {exc}") from None
    except RecursionError:
        raise ParseError(f"{shown}: JSON nested too deeply to parse") from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; ParseError if it names one key twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            _refuse_repeat(seen, key, f"an object names the key {quote(key)} twice")
    return obj
