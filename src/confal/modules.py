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
  module identity only at ``p = -1``, and the constructor refuses other
  parameters unless explicitly bypassed (the bypass exists so checkers can
  demonstrate the failure);
* ``trivial_module``: the scalar_del module with zero action.

The module identity checked by :func:`check_module` is

    [L_i  L_j]_{x+y} v  =  L_i_x (L_j_y v) - L_j_y (L_i_x v)

for every available generator pair and every basis vector, expanded exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import linalg
from .conformal import ConformalAlgebra, UnsupportedAlgebraError
from .poly import AUX1, DEL, LAM, MU, Poly, Var, divmod_in_var

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

    def generators_acting(self) -> list[int]:
        return sorted({g for g, _ in self.action})


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
    unchecked: bool = False,
) -> ConformalModule:
    """Free rank one with the index-one generator acting by the constant ``beta``.

    Only parameter ``p = -1`` admits this family; pass ``unchecked=True`` to
    build the table anyway (e.g. to let :func:`check_module` exhibit the
    failing pair).
    """
    p = _family_parameter(alg)
    if p != -1 and not unchecked:
        raise UnsupportedModuleError(
            f"the beta family needs parameter p = -1, algebra has p = {p}"
        )
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


# -- the action on elements --------------------------------------------------------


def _partial_shift(mod: ConformalModule) -> Poly:
    """What ``D`` becomes when pulled through one bracket variable.

    On free modules the translation survives (``D + x``); on scalar_del
    modules ``D`` is the scalar ``alpha``, so the shift is ``alpha + x``.
    """
    if mod.kind == KIND_FREE:
        return DEL + LAM
    return Poly.const(mod.alpha) + LAM


def act(
    alg: ConformalAlgebra,
    mod: ConformalModule,
    x: Mapping[int, Poly],
    v: Mapping[int, Poly],
) -> dict[int, Poly]:
    """Action of an algebra element on a module element.

    ``x`` maps generator index to a polynomial in ``D``; ``v`` maps module
    basis index to a polynomial in ``D`` (interpreted through ``alpha`` on
    scalar_del modules).  Sesquilinearity fixes the extension:
    ``(f(D) L_i)_x (g(D) v_b) = f(-x) g(D + x) (L_i_x v_b)``.
    """
    out: dict[int, Poly] = {}
    shift = _partial_shift(mod)
    for i, f in x.items():
        f_neg = f.substitute(Var.PARTIAL, -LAM)
        if f_neg.is_zero():
            continue
        for b, g in v.items():
            if mod.kind == KIND_SCALAR_DEL:
                g = g.substitute(Var.PARTIAL, mod.alpha)
            g_shift = g.substitute(Var.PARTIAL, shift)
            scale = f_neg * g_shift
            if scale.is_zero():
                continue
            for c, A in mod.action_of(i, b).items():
                s = out.get(c, Poly.zero()) + scale * A
                if s.is_zero():
                    out.pop(c, None)
                else:
                    out[c] = s
    return out


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
    pairs_checked: int
    failures: list[ModuleFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def module_residual(
    alg: ConformalAlgebra, mod: ConformalModule, i: int, j: int, b: int
) -> dict[int, Poly]:
    """Exact residual of the module identity on one generator pair and basis vector."""
    shift = _partial_shift(mod)
    shift_mu = shift.substitute(Var.LAMBDA, MU)

    # [L_i L_j] acting with bracket variable x+y: hold the outer variable as
    # a scratch u until both factors are assembled.
    lhs: dict[int, Poly] = {}
    for m, s in alg.structure_of(i, j).items():
        s_out = s.substitute(Var.PARTIAL, -AUX1)
        for c, A in mod.action_of(m, b).items():
            A_u = A.substitute(Var.LAMBDA, AUX1)
            term = (s_out * A_u).substitute(Var.AUX1, LAM + MU)
            lhs[c] = lhs.get(c, Poly.zero()) + term

    # L_i_x (L_j_y v_b)
    rhs: dict[int, Poly] = {}
    for c, h in mod.action_of(j, b).items():
        h_in = h.substitute(Var.LAMBDA, MU).substitute(Var.PARTIAL, shift)
        for e, A in mod.action_of(i, c).items():
            rhs[e] = rhs.get(e, Poly.zero()) + h_in * A

    # minus L_j_y (L_i_x v_b)
    for c, h in mod.action_of(i, b).items():
        h_in = h.substitute(Var.PARTIAL, shift_mu)
        for e, A in mod.action_of(j, c).items():
            rhs[e] = rhs.get(e, Poly.zero()) - h_in * A.substitute(Var.LAMBDA, MU)

    residual: dict[int, Poly] = {}
    for key in set(lhs) | set(rhs):
        val = lhs.get(key, Poly.zero()) - rhs.get(key, Poly.zero())
        if not val.is_zero():
            residual[key] = val
    return residual


def check_module(alg: ConformalAlgebra, mod: ConformalModule) -> ModuleReport:
    """Verify the module identity on every available pair and basis vector."""
    report = ModuleReport(algebra=alg.name, pairs_checked=0)
    for i in alg.generators():
        for j in alg.generators():
            if not alg.pair_defined(i, j):
                continue
            report.pairs_checked += 1
            for b in range(mod.rank):
                residual = module_residual(alg, mod, i, j, b)
                if residual:
                    report.failures.append(ModuleFailure(i, j, b, residual))
    return report


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


def _invariance_candidate(alpha: Fraction, degree: int) -> Poly | None:
    """The unique monic degree-``d`` solution of the linear invariance condition.

    A monic ``g`` generating an invariant span under an action with
    ``L_0 -> c1 (D + delta x + alpha)`` must satisfy the bracket-variable
    linear part ``g'(D) (D + alpha) - d g(D) = 0``.  The system is solved
    exactly; it is triangular with nonzero diagonal, so the solution exists
    and is unique for every degree.
    """
    d = degree
    base = Poly.variable(Var.PARTIAL) ** d
    fixed = _derivative_condition(base, alpha, d)
    columns = []
    for j in range(d):
        columns.append(_derivative_condition(Poly.variable(Var.PARTIAL) ** j, alpha, d))
    rows = []
    rhs = []
    for e in range(d + 1):
        rows.append(
            [
                col.coeff_in(Var.PARTIAL, e) * Fraction(1, math.factorial(e))
                for col in columns
            ]
        )
        rhs.append(-(fixed.coeff_in(Var.PARTIAL, e) * Fraction(1, math.factorial(e))))
    rows = [[c.as_constant() for c in row] for row in rows]
    rhs = [v.as_constant() for v in rhs]
    solution = linalg.solve(rows, rhs)
    if solution is None:
        return None
    g = base
    for j, coeff in enumerate(solution):
        g = g + coeff * Poly.variable(Var.PARTIAL) ** j
    return g


def _derivative_condition(mono: Poly, alpha: Fraction, d: int) -> Poly:
    """``g'(D) (D + alpha) - d g(D)`` restricted to one monomial ``g``."""
    deriv = Poly.zero()
    for exp, c in mono.terms():
        e = exp[Var.PARTIAL]
        if e:
            deriv = deriv + c * e * Poly.variable(Var.PARTIAL) ** (e - 1)
    return deriv * (DEL + alpha) - d * mono


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
        if candidate is None:
            continue
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
