"""Text and JSON formats for polynomials, algebras, and modules.

Polynomial strings use the variables ``D`` (translation), ``x`` (bracket
variable), ``y`` (second bracket variable) with ``+ - * ^`` and integer or
rational literals, e.g. ``"(1/2)*D^2*x - 3"``.  Rendering always emits the
canonical term order, so parse(render(p)) == p and rendered strings are
byte-stable.

Algebra files::

    {
      "format": "confal-algebra", "name": "...", "kind": "custom",
      "window": 1, "p": "-1" | null, "policy": "truncate" | "error",
      "generators": ["L", "M"],
      "structure": {"0,1": {"1": "D + x"}, ...}
    }

Module files::

    {"format": "confal-module", "kind": "free", "rank": 1,
     "action": {"0,0": {"0": "-D - x"}}}
    {"format": "confal-module", "kind": "scalar_del", "alpha": "1/2"}

Missing structure or action entries mean zero; a pair or a target named
twice, in one spelling or two (``"0,1"`` and ``"00,1"``), is refused.
Entries use only ``D`` and ``x``; any other name is refused when the entry
is parsed, before anything is expanded.  Loaded tables are data, not
trusted facts: run the axiom checkers on them before relying on anything.
"""

from __future__ import annotations

import ast
import json
import os
from fractions import Fraction
from typing import Any, Collection

from .conformal import ConformalAlgebra, LambdaValue, TruncationPolicy
from .modules import (
    KIND_FREE,
    KIND_SCALAR_DEL,
    ConformalModule,
    infer_family,
    trivial_module,
)
from .linalg import render_combo
from .poly import MAX_INPUT_SIZE, SPELLING_TO_VAR, ParseError, Poly, Var, parse_rat


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)

#: Largest exponent, and largest total degree of any product, that
#: :func:`parse_poly` accepts.  The checkers' cost grows about as the cube of
#: the entry degree: a two-generator table of degree-32 entries verifies in
#: a few seconds, one of degree 128 runs for minutes.
MAX_POLY_DEGREE = 32


def parse_poly(text: str, variables: Collection[Var] = tuple(Var)) -> Poly:
    """Parse the polynomial grammar exactly.

    ``^`` is the power operator.  Only ``variables`` (by default the whole
    registry), rational literals, parentheses, and ``+ - * / ^`` are
    accepted; ``/`` requires a constant divisor.  Every name is checked
    before anything is expanded.  No exponent, and no product formed on the
    way, may exceed total degree :data:`MAX_POLY_DEGREE`; the bound is
    checked before the product is expanded.  Errors carry the source
    position.
    """
    prepared = text.replace("^", "**")
    try:
        tree = ast.parse(prepared, mode="eval")
    except SyntaxError as exc:
        raise ParseError(
            f"syntax error in polynomial at column {exc.offset}: {text!r}"
        ) from None
    names = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
    for node in sorted(names, key=lambda node: node.col_offset):
        if SPELLING_TO_VAR.get(node.id) not in variables:
            allowed = ", ".join(v.spelling for v in sorted(variables))
            raise ParseError(
                f"column {node.col_offset}: variable {node.id!r} is not one of "
                f"{allowed} in {text!r}"
            )
    return _eval_node(tree.body, text)


def _eval_node(node: ast.AST, source: str) -> Poly:
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        left = _eval_node(node.left, source)
        right = _eval_node(node.right, source)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            _check_degree("degree", left.total_degree() + right.total_degree(), node, source)
            return left * right
        if isinstance(node.op, ast.Div):
            try:
                divisor = right.as_constant()
            except ValueError:
                raise ParseError(
                    f"column {node.col_offset}: division by a non-constant "
                    f"in {source!r}"
                ) from None
            if divisor == 0:
                raise ParseError(
                    f"column {node.col_offset}: division by zero in {source!r}"
                )
            return left * (Fraction(1) / divisor)
        # Pow
        try:
            exponent = right.as_constant()
        except ValueError:
            raise ParseError(
                f"column {node.col_offset}: non-constant exponent in {source!r}"
            ) from None
        if exponent.denominator != 1 or exponent < 0:
            raise ParseError(
                f"column {node.col_offset}: exponent must be a nonnegative "
                f"integer in {source!r}"
            )
        _check_degree("exponent", exponent, node, source)
        _check_degree("degree", left.total_degree() * exponent, node, source)
        return left ** int(exponent)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _eval_node(node.operand, source)
        return operand if isinstance(node.op, ast.UAdd) else -operand
    if isinstance(node, ast.Name):
        return Poly.variable(SPELLING_TO_VAR[node.id])
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return Poly.const(node.value)
        raise ParseError(
            f"column {node.col_offset}: unsupported literal {node.value!r} "
            f"in {source!r}"
        )
    raise ParseError(
        f"column {getattr(node, 'col_offset', 0)}: unsupported syntax "
        f"in {source!r}"
    )


def _check_degree(what: str, value: Fraction | int, node: ast.AST, source: str) -> None:
    if value > MAX_POLY_DEGREE:
        raise ParseError(
            f"column {node.col_offset}: {what} {value} exceeds the limit "
            f"{MAX_POLY_DEGREE} in {source!r}"
        )


#: The variables a table entry in a file may use: ``D`` and ``x``.
ENTRY_VARIABLES = (Var.PARTIAL, Var.LAMBDA)


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
        raise ParseError(f"{what}={value!r} is not an integer")
    return value


def _rational(value: Any, what: str) -> Fraction:
    """``value`` parsed, if it is a rational string; ParseError otherwise."""
    if not isinstance(value, str):
        raise ParseError(f"{what}={value!r} is not a rational string")
    return parse_rat(value)


def _parse_entry(entry: Any, what: str, size: int, bound: str) -> dict[int, Poly]:
    """One structure or action entry of a file: target index -> polynomial.

    Targets must lie in ``range(size)``; ``bound`` names that range in the
    message.  A target named twice, under two spellings such as ``"0"`` and
    ``"00"``, is refused.  Entries are polynomials in
    :data:`ENTRY_VARIABLES`, and zero polynomials are left out.
    """
    parsed: dict[int, Poly] = {}
    seen: set[int] = set()
    for target, text in _object(entry, f"{what} entry {entry!r}").items():
        try:
            k = int(target)
        except ValueError:
            raise ParseError(f"bad {what} target {target!r}") from None
        if not 0 <= k < size:
            raise ParseError(f"{what} target {target!r} outside {bound}")
        _refuse_repeat(seen, k, f"{what} target {target!r} names target {k} twice")
        if not isinstance(text, str):
            raise ParseError(f"{what} target {target!r} is not a polynomial string")
        poly = parse_poly(text, ENTRY_VARIABLES)
        if poly:
            parsed[k] = poly
    return parsed


def _render_table(table: dict[tuple[int, int], LambdaValue]) -> dict[str, dict[str, str]]:
    """A pair-keyed table as ``"i,j"`` -> rendered entry, zero entries left out."""
    rendered = ((f"{i},{j}", render_combo(entry)) for (i, j), entry in sorted(table.items()))
    return {key: entry for key, entry in rendered if entry}


# -- algebra files ------------------------------------------------------------


def algebra_to_dict(alg: ConformalAlgebra) -> dict[str, Any]:
    return {
        "format": "confal-algebra",
        "name": alg.name,
        "kind": alg.kind,
        "window": alg.window,
        "p": str(alg.param_p) if alg.param_p is not None else None,
        "policy": alg.policy.value,
        "generators": list(alg.gen_names),
        "structure": _render_table(alg.structure),
    }


def _refuse_repeat(seen: set[Any], key: Any, message: str) -> None:
    """Add ``key`` to ``seen``; ParseError with ``message`` if it is there already."""
    if key in seen:
        raise ParseError(message)
    seen.add(key)


def _parse_pair_key(key: str, what: str) -> tuple[int, int]:
    parts = key.split(",")
    if len(parts) != 2:
        raise ParseError(f"bad {what} key {key!r}: expected 'i,j'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bad {what} key {key!r}: expected integers") from None


def algebra_from_dict(data: Any) -> ConformalAlgebra:
    if _object(data, "algebra file").get("format") != "confal-algebra":
        raise ParseError("not an algebra file: missing format marker")
    if "window" not in data:
        raise ParseError("malformed algebra file: missing field 'window'")
    window = _integer(data["window"], "algebra window")
    try:
        policy = TruncationPolicy(data.get("policy", "truncate"))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"malformed algebra file: {exc}") from None
    generators = data.get("generators", [])
    if not (isinstance(generators, list) and all(isinstance(g, str) for g in generators)):
        raise ParseError(f"algebra generators {generators!r} are not a list of strings")
    raw_structure = _object(data.get("structure", {}), "algebra structure")
    if window < 0:
        raise ParseError("window must be nonnegative")
    if window > MAX_INPUT_SIZE:
        raise ParseError(f"algebra window={window} exceeds the limit {MAX_INPUT_SIZE}")
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
            raise ParseError(f"structure pair {key!r} outside window {window}")
        _refuse_repeat(seen, (i, j), f"structure key {key!r} names the pair {i},{j} twice")
        parsed = _parse_entry(entry, "structure", window + 1, f"window {window}")
        if parsed:
            structure[(i, j)] = parsed
    return ConformalAlgebra(
        name=str(data.get("name", "custom")),
        kind=str(data.get("kind", "custom")),
        window=window,
        policy=policy,
        param_p=p,
        structure=structure,
        gen_names=tuple(generators),
    )


# -- module files -------------------------------------------------------------


def module_to_dict(mod: ConformalModule) -> dict[str, Any]:
    if mod.kind == KIND_SCALAR_DEL:
        return {
            "format": "confal-module",
            "kind": KIND_SCALAR_DEL,
            "rank": mod.rank,
            "alpha": str(mod.alpha if mod.alpha is not None else Fraction(0)),
        }
    return {
        "format": "confal-module",
        "kind": KIND_FREE,
        "rank": mod.rank,
        "action": _render_table(mod.action),
    }


def module_from_dict(data: Any) -> ConformalModule:
    if _object(data, "module file").get("format") != "confal-module":
        raise ParseError("not a module file: missing format marker")
    kind = data.get("kind")
    if kind == KIND_SCALAR_DEL:
        # The module is C with D acting by alpha: rank 1 and no action table.
        if "action" in data:
            raise ParseError("a scalar_del module takes no field 'action'")
        if _integer(data.get("rank", 1), "module rank") != 1:
            raise ParseError(f"a scalar_del module has rank 1, got rank={data['rank']!r}")
        return trivial_module(_rational(data.get("alpha", "0"), "module alpha"))
    if kind != KIND_FREE:
        raise ParseError(f"unknown module kind {kind!r}")
    rank = _integer(data.get("rank", 1), "module rank")
    if rank < 1:
        raise ParseError("module rank must be positive")
    if rank > MAX_MODULE_RANK:
        raise ParseError(f"module rank={rank} exceeds the limit {MAX_MODULE_RANK}")
    action: dict[tuple[int, int], dict[int, Poly]] = {}
    seen: set[tuple[int, int]] = set()
    for key, entry in _object(data.get("action", {}), "module action").items():
        i, b = _parse_pair_key(key, "action")
        if i < 0:
            raise ParseError(f"action key {key!r} names a negative generator index")
        if not 0 <= b < rank:
            raise ParseError(f"action key {key!r} hits basis index outside rank {rank}")
        _refuse_repeat(seen, (i, b), f"action key {key!r} names the pair {i},{b} twice")
        parsed = _parse_entry(entry, "action", rank, f"rank {rank}")
        if parsed:
            action[(i, b)] = parsed
    mod = ConformalModule(
        kind=KIND_FREE, rank=rank, alpha=None, action=action, family=None
    )
    if rank == 1:
        mod.family = infer_family(mod)
    return mod


#: Largest input file :func:`load_json` accepts, in bytes.  A block table of
#: window 24 written by :func:`save_json` takes about 15 KB.
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
    would keep only the last value.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            data = b"" if size > MAX_FILE_BYTES else fh.read(MAX_FILE_BYTES + 1)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if max(size, len(data)) > MAX_FILE_BYTES:
        raise ParseError(f"{path}: file exceeds the limit of {MAX_FILE_BYTES} bytes")
    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; ParseError if it names one key twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            _refuse_repeat(seen, key, f"an object names the key {key!r} twice")
    return obj


def save_json(path: str, data: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
