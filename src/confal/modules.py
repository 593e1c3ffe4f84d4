"""Conformal modules of finite rank over the windowed algebras.

A free module of rank ``r`` is presented by an action table: generator ``i``
of the algebra acts on basis vector ``b`` through polynomials
``A_{ib}^c(D, x)``, meaning ``L_i  v_b = sum_c A_{ib}^c c`` with ``D`` the
module translation and ``x`` the bracket variable.  A missing table entry is
the zero action.  The one-dimensional non-free modules ("scalar_del") carry
``D`` acting by a fixed rational ``alpha`` and, for the trivial module, the
zero action of every generator.

Rank-one families over the bracket family at parameter ``p``:

* ``rank_one_module``:  ``L_0 -> p (D + delta x + alpha)``, higher
  generators act by zero;
* ``rank_one_beta_module``: additionally ``L_1 -> beta``; this satisfies the
  module identity only at ``p = -1``.  The constructor builds it at any
  parameter, and :func:`check_module` reports the failing pairs elsewhere;
* ``trivial_module``: the scalar_del module with zero action.

The module identity checked by :func:`check_module` is

    [L_i  L_j]_{x+y} v  =  L_i_x (L_j_y v) - L_j_y (L_i_x v)

for every available generator pair and every basis vector.  It is the Jacobi
identity of the semidirect product of the algebra and the module, and is
walked by :func:`confal.conformal.jacobi_failures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Iterator

from .conformal import (
    ConformalAlgebra,
    TruncationPolicy,
    UnsupportedAlgebraError,
    jacobi_failures,
)
from .linalg import render_combo
from .poly import DEL, LAM, Poly, Var, divmod_in_var

KIND_FREE = "free"
KIND_SCALAR_DEL = "scalar_del"

FAMILY_PLAIN = "M_delta_alpha"
FAMILY_BETA = "M_delta_alpha_beta"
FAMILY_TRIVIAL = "trivial"


class UnsupportedModuleError(ValueError):
    """The module lacks the shape an operation requires."""


@dataclass(frozen=True)
class FamilyTag:
    """Which constructed family a module belongs to, with its parameters."""

    family: str
    p: Fraction | None = None
    delta: Fraction | None = None
    alpha: Fraction | None = None
    beta: Fraction | None = None


@dataclass
class ConformalModule:
    kind: str
    rank: int
    alpha: Fraction | None
    action: dict[tuple[int, int], dict[int, Poly]]
    family: FamilyTag | None = None

    def action_of(self, gen: int, basis: int) -> dict[int, Poly]:
        return self.action.get((gen, basis), {})


# -- constructors ---------------------------------------------------------------


def _family_parameter(alg: ConformalAlgebra) -> Fraction:
    if alg.kind not in ("block", "bn") or alg.param_p is None:
        raise UnsupportedAlgebraError(
            "rank-one module families are defined over the one-parameter "
            f"bracket family, got kind {alg.kind!r}"
        )
    return alg.param_p


def rank_one_module(alg: ConformalAlgebra, delta: Fraction | int, alpha: Fraction | int) -> ConformalModule:
    """Free rank one: index-zero generator acts by ``p (D + delta x + alpha)``."""
    p = _family_parameter(alg)
    delta = Fraction(delta)
    alpha = Fraction(alpha)
    action = {(0, 0): {0: p * (DEL + delta * LAM + alpha)}}
    return ConformalModule(
        kind=KIND_FREE,
        rank=1,
        alpha=None,
        action=action,
        family=FamilyTag(FAMILY_PLAIN, p=p, delta=delta, alpha=alpha),
    )


def rank_one_beta_module(
    alg: ConformalAlgebra,
    delta: Fraction | int,
    alpha: Fraction | int,
    beta: Fraction | int,
) -> ConformalModule:
    """Free rank one with the index-one generator acting by the constant ``beta``.

    Only parameter ``p = -1`` admits this family as a module; at any other
    parameter :func:`check_module` reports the pairs where it fails.
    """
    p = _family_parameter(alg)
    delta = Fraction(delta)
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    action: dict[tuple[int, int], dict[int, Poly]] = {
        (0, 0): {0: p * (DEL + delta * LAM + alpha)}
    }
    if beta:
        action[(1, 0)] = {0: Poly.const(beta)}
    return ConformalModule(
        kind=KIND_FREE,
        rank=1,
        alpha=None,
        action=action,
        family=FamilyTag(FAMILY_BETA, p=p, delta=delta, alpha=alpha, beta=beta),
    )


def trivial_module(alpha: Fraction | int) -> ConformalModule:
    """One-dimensional module with zero action and ``D`` acting by ``alpha``."""
    return ConformalModule(
        kind=KIND_SCALAR_DEL,
        rank=1,
        alpha=Fraction(alpha),
        action={},
        family=FamilyTag(FAMILY_TRIVIAL, alpha=Fraction(alpha)),
    )


# -- the module identity -------------------------------------------------------------


@dataclass
class ModuleFailure:
    i: int
    j: int
    basis: int
    residual: dict[int, Poly]


@dataclass
class ModuleReport:
    algebra: str
    kind: str
    rank: int
    pairs_checked: int
    failures: list[ModuleFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_payload(self) -> dict[str, Any]:
        return {
            "algebra": self.algebra,
            "kind": self.kind,
            "rank": self.rank,
            "pairs_checked": self.pairs_checked,
            "failures": [
                {"pair": [f.i, f.j], "basis": f.basis, "residual": render_combo(f.residual)}
                for f in self.failures
            ],
        }


def _module_failures(
    alg: ConformalAlgebra, mod: ConformalModule, triples: Iterable[tuple[int, int, int]]
) -> Iterator[ModuleFailure]:
    """The ``(i, j, b)`` of ``triples``, in order, that fail the module identity.

    ``M`` is an abelian ideal of the semidirect product of ``alg`` and ``M``
    (D'Andrea and Kac, 1998).  Its generators are those of ``alg`` followed
    by ``v_b`` at index ``window + 1 + b``, and its bracket ``[L_i  v_b]`` is
    the action, so the module residual on ``(i, j, b)`` is minus the Jacobi
    residual of the product on ``(L_i, L_j, v_b)``.  The product truncates,
    so the caller passes available pairs only.  A scalar_del module has no
    free ``D``, so only its zero action fits this product.
    """
    if mod.kind != KIND_FREE and mod.action:
        raise UnsupportedModuleError("a scalar_del module is checked only with zero action")
    v = alg.window + 1
    action = {
        (i, v + b): {v + c: A for c, A in entry.items()}
        for (i, b), entry in mod.action.items()
    }
    product = ConformalAlgebra(
        name=f"{alg.name} semidirect M",
        kind="semidirect",
        window=alg.window + mod.rank,
        policy=TruncationPolicy.TRUNCATE_TO_ZERO,
        param_p=None,
        structure={**alg.structure, **action},
        gen_names=alg.gen_names + tuple(f"v_{b}" for b in range(mod.rank)),
    )
    for f in jacobi_failures(product, ((i, j, v + b) for i, j, b in triples)):
        yield ModuleFailure(f.i, f.j, f.k - v, {c - v: -s for c, s in f.residual.items()})


def module_residual(
    alg: ConformalAlgebra, mod: ConformalModule, i: int, j: int, b: int
) -> dict[int, Poly]:
    """Exact residual of the module identity on one generator pair and basis vector."""
    alg.structure_of(i, j)  # a pair the policy leaves out raises here
    return next((f.residual for f in _module_failures(alg, mod, [(i, j, b)])), {})


def check_module(alg: ConformalAlgebra, mod: ConformalModule) -> ModuleReport:
    """Verify the module identity on every available pair and basis vector."""
    gens = alg.generators()
    pairs = [(i, j) for i in gens for j in gens if alg.pair_defined(i, j)]
    failures = _module_failures(alg, mod, ((i, j, b) for i, j in pairs for b in range(mod.rank)))
    return ModuleReport(alg.name, mod.kind, mod.rank, len(pairs), list(failures))


# -- submodules and irreducibility ------------------------------------------------------


@dataclass
class SubmoduleResult:
    invariant: bool
    module: ConformalModule | None
    offending_generator: int | None
    remainder: Poly | None


def _require_rank_one_free(mod: ConformalModule) -> None:
    if mod.kind != KIND_FREE or mod.rank != 1:
        raise UnsupportedModuleError("operation needs a free rank-one module")


def submodule_action(mod: ConformalModule, g: Poly) -> SubmoduleResult:
    """Restrict a free rank-one action to the span of ``g(D) v``.

    The span is invariant iff ``g(D)`` divides ``g(D + x) A_i(D, x)`` for
    every acting generator, the division taken in ``D`` over polynomials in
    the bracket variable.  When invariant, the returned module acts through
    the quotients, which is the action table on the new generator ``g v``.
    """
    _require_rank_one_free(mod)
    if g.is_zero():
        raise ValueError("the submodule generator polynomial must be nonzero")
    extra = g.variables() - {Var.PARTIAL}
    if extra:
        raise ValueError("the generator polynomial must involve D only")
    g_shift = g.substitute(Var.PARTIAL, DEL + LAM)
    new_action: dict[tuple[int, int], dict[int, Poly]] = {}
    for (i, b), entry in sorted(mod.action.items()):
        A = entry.get(0, Poly.zero())
        if A.is_zero():
            continue
        q, r = divmod_in_var(g_shift * A, g, Var.PARTIAL)
        if not r.is_zero():
            return SubmoduleResult(
                invariant=False, module=None, offending_generator=i, remainder=r
            )
        new_action[(i, b)] = {0: q}
    new_mod = ConformalModule(
        kind=KIND_FREE, rank=1, alpha=None, action=new_action, family=None
    )
    new_mod.family = infer_family(new_mod)
    return SubmoduleResult(
        invariant=True, module=new_mod, offending_generator=None, remainder=None
    )


def infer_family(mod: ConformalModule) -> FamilyTag | None:
    """Recognise a rank-one action table as one of the constructed families.

    Matches ``L_0 -> c1 D + c2 x + c3`` with ``c1 != 0`` and optionally
    ``L_1 ->`` a constant, everything else zero; returns None when the table
    has any other shape.
    """
    if mod.kind != KIND_FREE or mod.rank != 1:
        return None
    a0 = mod.action_of(0, 0).get(0, Poly.zero())
    if a0.is_zero() or a0.total_degree() > 1:
        return None
    c1 = a0.coeff_in(Var.PARTIAL, 1).constant()
    c2 = a0.coeff_in(Var.LAMBDA, 1).constant()
    c3 = a0.constant()
    if not c1 or a0 != c1 * DEL + c2 * LAM + c3:
        return None
    beta: Fraction | None = None
    for (i, b), entry in mod.action.items():
        if (i, b) == (0, 0):
            continue
        value = entry.get(0, Poly.zero())
        if (i, b) == (1, 0) and value.total_degree() <= 0:
            beta = value.constant()
            continue
        if any(not v.is_zero() for v in entry.values()):
            return None
    p = c1
    delta = c2 / c1
    alpha = c3 / c1
    if beta is None:
        return FamilyTag(FAMILY_PLAIN, p=p, delta=delta, alpha=alpha)
    return FamilyTag(FAMILY_BETA, p=p, delta=delta, alpha=alpha, beta=beta)


@dataclass
class IrreducibilityVerdict:
    irreducible: bool
    criterion_irreducible: bool
    search_irreducible: bool
    witness: Poly | None
    candidates_checked: list[Poly] = field(default_factory=list)

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "verdict": "IRREDUCIBLE" if self.irreducible else "REDUCIBLE",
            "criterion": self.criterion_irreducible,
            "search": self.search_irreducible,
            "candidates_checked": [str(c) for c in self.candidates_checked],
        }
        if self.witness is not None:
            payload["witness"] = str(self.witness)
        return payload


def _invariance_candidate(alpha: Fraction, degree: int) -> Poly:
    """The unique monic degree-``d`` solution of the linear invariance condition.

    A monic ``g`` generating an invariant span under an action with
    ``L_0 -> c1 (D + delta x + alpha)`` must satisfy the bracket-variable
    linear part ``g'(D) (D + alpha) - d g(D) = 0``.  Its solution is
    ``(D + alpha)^d``: the condition reads ``(D + alpha) g' = d g``, whose
    monic polynomial solutions of degree ``d`` are that power alone.
    """
    return (DEL + alpha) ** degree


def is_irreducible_rank_one(
    mod: ConformalModule, degree_bound: int = 3
) -> IrreducibilityVerdict:
    """Decide irreducibility of a rank-one free module two independent ways.

    The criterion answer reads the family tag: the plain family is
    irreducible iff ``delta != 0``; the beta family iff ``delta != 0`` or
    ``beta != 0``.  The search answer enumerates, for each degree up to the
    bound, the unique linear-condition candidate ``g`` and runs the full
    invariance test on it.  The two answers must agree; a disagreement is a
    hard error, never a silent preference.
    """
    _require_rank_one_free(mod)
    tag = mod.family or infer_family(mod)
    if tag is None or tag.family == FAMILY_TRIVIAL:
        raise UnsupportedModuleError(
            "irreducibility needs a recognised rank-one family table"
        )
    if tag.family == FAMILY_PLAIN:
        criterion = tag.delta != 0
    else:
        criterion = tag.delta != 0 or tag.beta != 0
    witness: Poly | None = None
    candidates: list[Poly] = []
    for degree in range(1, degree_bound + 1):
        candidate = _invariance_candidate(tag.alpha, degree)
        candidates.append(candidate)
        result = submodule_action(mod, candidate)
        if result.invariant and witness is None:
            witness = candidate
    search = witness is None
    if criterion != search:
        raise RuntimeError(
            "irreducibility criterion and submodule search disagree on "
            f"{tag}; criterion={criterion}, search={search}"
        )
    return IrreducibilityVerdict(
        irreducible=criterion,
        criterion_irreducible=criterion,
        search_irreducible=search,
        witness=witness,
        candidates_checked=candidates,
    )


def is_isomorphic_rank_one(a: ConformalModule, b: ConformalModule) -> bool:
    """Whether two rank-one free modules are isomorphic.

    Rescaling the free generator by a nonzero rational multiplies each side
    of every action entry identically, so the action table is a complete
    isomorphism invariant; the decision is table equality.
    """
    _require_rank_one_free(a)
    _require_rank_one_free(b)
    keys = set(a.action) | set(b.action)
    for key in keys:
        ea = {k: v for k, v in a.action.get(key, {}).items() if not v.is_zero()}
        eb = {k: v for k, v in b.action.get(key, {}).items() if not v.is_zero()}
        if ea != eb:
            return False
    return True
