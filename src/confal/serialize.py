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

Missing structure or action entries mean zero.  Loaded tables are data, not
trusted facts: run the axiom checkers on them before relying on anything.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from typing import Any

from .conformal import ConformalAlgebra, LambdaValue, TruncationPolicy
from .modules import (
    FAMILY_TRIVIAL,
    KIND_FREE,
    KIND_SCALAR_DEL,
    ConformalModule,
    FamilyTag,
    infer_family,
)
from .poly import SPELLING_TO_VAR, Poly, Var


class ParseError(ValueError):
    """Malformed textual input, annotated with a position where possible."""


def rat_str(value: Fraction) -> str:
    return str(Fraction(value))


def parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None


def poly_str(poly: Poly) -> str:
    return str(poly)


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_poly(text: str) -> Poly:
    """Parse the polynomial grammar exactly.

    ``^`` is the power operator.  Only the registry variables, rational
    literals, parentheses, and ``+ - * / ^`` are accepted; ``/`` requires a
    constant divisor.  Errors carry the source position.
    """
    prepared = text.replace("^", "**")
    try:
        tree = ast.parse(prepared, mode="eval")
    except SyntaxError as exc:
        raise ParseError(
            f"syntax error in polynomial at column {exc.offset}: {text!r}"
        ) from None
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
        return left ** int(exponent)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _eval_node(node.operand, source)
        return operand if isinstance(node.op, ast.UAdd) else -operand
    if isinstance(node, ast.Name):
        var = SPELLING_TO_VAR.get(node.id)
        if var is None:
            raise ParseError(
                f"column {node.col_offset}: unknown variable {node.id!r} "
                f"in {source!r}"
            )
        return Poly.variable(var)
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


# -- algebra files ------------------------------------------------------------


def algebra_to_dict(alg: ConformalAlgebra) -> dict[str, Any]:
    structure: dict[str, dict[str, str]] = {}
    for (i, j), entry in sorted(alg.structure.items()):
        rendered = {
            str(k): poly_str(v) for k, v in sorted(entry.items()) if not v.is_zero()
        }
        if rendered:
            structure[f"{i},{j}"] = rendered
    return {
        "format": "confal-algebra",
        "name": alg.name,
        "kind": alg.kind,
        "window": alg.window,
        "p": rat_str(alg.param_p) if alg.param_p is not None else None,
        "policy": alg.policy.value,
        "generators": list(alg.gen_names),
        "structure": structure,
    }


def _parse_pair_key(key: str, what: str) -> tuple[int, int]:
    parts = key.split(",")
    if len(parts) != 2:
        raise ParseError(f"bad {what} key {key!r}: expected 'i,j'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bad {what} key {key!r}: expected integers") from None


def algebra_from_dict(data: dict[str, Any]) -> ConformalAlgebra:
    if data.get("format") != "confal-algebra":
        raise ParseError("not an algebra file: missing format marker")
    if "window" not in data:
        raise ParseError("malformed algebra file: missing field 'window'")
    try:
        window = int(data["window"])
        policy = TruncationPolicy(data.get("policy", "truncate"))
        generators = list(data.get("generators", []))
        raw_structure = dict(data.get("structure", {}))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"malformed algebra file: {exc}") from None
    if window < 0:
        raise ParseError("window must be nonnegative")
    if not generators:
        generators = [f"L_{i}" for i in range(window + 1)]
    if len(generators) != window + 1:
        raise ParseError(
            f"{len(generators)} generator names for window {window}"
        )
    p_raw = data.get("p")
    p = parse_rat(p_raw) if p_raw is not None else None
    structure: dict[tuple[int, int], LambdaValue] = {}
    for key, entry in raw_structure.items():
        i, j = _parse_pair_key(key, "structure")
        if not (0 <= i <= window and 0 <= j <= window):
            raise ParseError(f"structure pair {key!r} outside window {window}")
        parsed: LambdaValue = {}
        for target, text in entry.items():
            k = int(target)
            if not 0 <= k <= window:
                raise ParseError(
                    f"structure target {target!r} outside window {window}"
                )
            poly = parse_poly(text)
            bad = poly.variables() - {Var.PARTIAL, Var.LAMBDA}
            if bad:
                raise ParseError(
                    f"structure entry {key!r} -> {target!r} uses "
                    f"{sorted(v.spelling for v in bad)}"
                )
            if not poly.is_zero():
                parsed[k] = poly
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
            "alpha": rat_str(mod.alpha if mod.alpha is not None else Fraction(0)),
        }
    action: dict[str, dict[str, str]] = {}
    for (i, b), entry in sorted(mod.action.items()):
        rendered = {
            str(c): poly_str(v) for c, v in sorted(entry.items()) if not v.is_zero()
        }
        if rendered:
            action[f"{i},{b}"] = rendered
    return {
        "format": "confal-module",
        "kind": KIND_FREE,
        "rank": mod.rank,
        "action": action,
    }


def module_from_dict(data: dict[str, Any]) -> ConformalModule:
    if data.get("format") != "confal-module":
        raise ParseError("not a module file: missing format marker")
    kind = data.get("kind")
    if kind == KIND_SCALAR_DEL:
        alpha = parse_rat(str(data.get("alpha", "0")))
        return ConformalModule(
            kind=KIND_SCALAR_DEL,
            rank=1,
            alpha=alpha,
            action={},
            family=FamilyTag(family=FAMILY_TRIVIAL, p=None, delta=None,
                             alpha=alpha, beta=None),
        )
    if kind != KIND_FREE:
        raise ParseError(f"unknown module kind {kind!r}")
    try:
        rank = int(data.get("rank", 1))
    except (ValueError, TypeError):
        raise ParseError("module rank must be an integer") from None
    if rank < 1:
        raise ParseError("module rank must be positive")
    action: dict[tuple[int, int], dict[int, Poly]] = {}
    for key, entry in dict(data.get("action", {})).items():
        i, b = _parse_pair_key(key, "action")
        if not 0 <= b < rank:
            raise ParseError(f"action key {key!r} hits basis index outside rank {rank}")
        parsed: dict[int, Poly] = {}
        for target, text in entry.items():
            c = int(target)
            if not 0 <= c < rank:
                raise ParseError(
                    f"action target {target!r} outside rank {rank}"
                )
            poly = parse_poly(text)
            bad = poly.variables() - {Var.PARTIAL, Var.LAMBDA}
            if bad:
                raise ParseError(
                    f"action entry {key!r} -> {target!r} uses "
                    f"{sorted(v.spelling for v in bad)}"
                )
            if not poly.is_zero():
                parsed[c] = poly
        if parsed:
            action[(i, b)] = parsed
    mod = ConformalModule(
        kind=KIND_FREE, rank=rank, alpha=None, action=action, family=None
    )
    if rank == 1:
        mod.family = infer_family(mod)
    return mod


def load_json(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None


def save_json(path: str, data: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
