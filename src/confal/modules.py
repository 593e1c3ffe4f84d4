"""Conformal modules of finite rank over the windowed algebras.

A module is its rank, its ``D``-action ``alpha`` and its action table.  A
free module (``alpha = None``) of rank ``r``: generator ``i`` of the algebra
acts on basis vector ``b`` through polynomials ``A_{ib}^c(D, x)``, meaning
``L_i  v_b = sum_c A_{ib}^c c`` with ``D`` the module translation and ``x``
the bracket variable; a missing table entry is the zero action.  A rational
``alpha`` makes the one-dimensional module ("scalar_del") on which ``D``
acts by that scalar, so its kind is read from ``alpha``: a rank-one module
is free exactly when ``D`` does not act by a scalar.

The free rank-one modules of Cheng and Kac ("Conformal modules", 1997) come
from one constructor, ``rank_one_module(alg, delta, alpha, beta=0)``:
``L_0 -> p (D + delta x + alpha)``, ``L_1 -> beta`` when ``beta != 0``, and
higher generators act by zero.  ``p`` is read from the table, as the ``D``
coefficient of ``[L_0  L_0]`` (:func:`~confal.conformal.family_parameter`),
so any such table takes them, Vir, HV and SV included.  Over the bracket
family ``B(p)`` the plain family (``beta = 0``) is a module at every ``p``;
the constant ``beta != 0`` satisfies the module identity only at ``p = -1``.
Wherever the table does not fit, :func:`check_module` reports the failing
pairs.  :func:`infer_family` reads the family and its parameters back from
the table.  ``trivial_module`` is the scalar_del module with zero action.

The module identity checked by :func:`check_module` is

    [L_i  L_j]_{x+y} v  =  L_i_x (L_j_y v) - L_j_y (L_i_x v)

for every available generator pair and every basis vector.  It is the Jacobi
identity of the semidirect product of the algebra and the module, and is
walked by :func:`confal.conformal.jacobi_failures`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Iterator, NamedTuple

from .conformal import ConformalAlgebra, TruncationPolicy, family_parameter, jacobi_failures
from .poly import DEL, LAM, Poly, Var, divmod_in_var, quote, render_combo

KIND_FREE = "free"
KIND_SCALAR_DEL = "scalar_del"

FAMILY_PLAIN = "M_delta_alpha"
FAMILY_BETA = "M_delta_alpha_beta"


class UnsupportedModuleError(ValueError):
    """The module lacks the shape an operation requires."""


class FamilyTag(NamedTuple):
    """A rank-one family's parameters; a table with an ``L_1`` row has a ``beta``."""

    p: Fraction
    delta: Fraction
    alpha: Fraction
    beta: Fraction | None = None


class ConformalModule(NamedTuple):
    rank: int
    alpha: Fraction | None
    action: dict[tuple[int, int], dict[int, Poly]]

    @property
    def kind(self) -> str:
        return KIND_FREE if self.alpha is None else KIND_SCALAR_DEL

    def action_of(self, gen: int, basis: int) -> dict[int, Poly]:
        return self.action.get((gen, basis), {})


# -- constructors ---------------------------------------------------------------


def rank_one_module(
    alg: ConformalAlgebra,
    delta: Fraction | int,
    alpha: Fraction | int,
    beta: Fraction | int = 0,
) -> ConformalModule:
    """Free rank one: ``L_0`` acts by ``p (D + delta x + alpha)``, ``L_1`` by ``beta``.

    ``p`` is :func:`~confal.conformal.family_parameter` of ``alg``.
    ``beta = 0`` leaves no ``L_1`` row.  Over ``B(p)`` only ``p = -1`` admits a
    nonzero ``beta``; at any other parameter :func:`check_module` reports
    the pairs where it fails.
    """
    p = family_parameter(alg)
    action = {(0, 0): {0: p * (DEL + Fraction(delta) * LAM + Fraction(alpha))}}
    if beta:
        action[(1, 0)] = {0: Poly.const(Fraction(beta))}
    return ConformalModule(rank=1, alpha=None, action=action)


def trivial_module(alpha: Fraction | int) -> ConformalModule:
    """One-dimensional module with zero action and ``D`` acting by ``alpha``."""
    return ConformalModule(rank=1, alpha=Fraction(alpha), action={})


# -- the module identity -------------------------------------------------------------


class ModuleFailure(NamedTuple):
    i: int
    j: int
    basis: int
    residual: dict[int, Poly]


class ModuleReport(NamedTuple):
    algebra: str
    kind: str
    rank: int
    pairs_checked: int
    failures: list[ModuleFailure]

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
    free ``D``, so only its zero action fits this product.  An action row of
    a generator ``alg`` lacks would never be walked, so it is refused.
    """
    if mod.kind != KIND_FREE and mod.action:
        raise UnsupportedModuleError("a scalar_del module is checked only with zero action")
    stray = next((key for key in sorted(mod.action) if key[0] not in alg.generators()), None)
    if stray is not None:
        raise UnsupportedModuleError(
            f"action key '{stray[0]},{stray[1]}' names generator {stray[0]}, "
            f"but {quote(alg.name)} has generators 0..{alg.window}"
        )
    v = alg.window + 1
    action = {
        (i, v + b): {v + c: A for c, A in entry.items()}
        for (i, b), entry in mod.action.items()
    }
    product = ConformalAlgebra(
        name=f"{alg.name} semidirect M",
        policy=TruncationPolicy.TRUNCATE_TO_ZERO,
        structure={**alg.structure, **action},
        gen_names=alg.gen_names + tuple(f"v_{b}" for b in range(mod.rank)),
    )
    for f in jacobi_failures(product, ((i, j, v + b) for i, j, b in triples)):
        yield ModuleFailure(f.i, f.j, f.k - v, {c - v: -s for c, s in f.residual.items()})


def check_module(alg: ConformalAlgebra, mod: ConformalModule) -> ModuleReport:
    """Verify the module identity on every available pair and basis vector."""
    gens = alg.generators()
    pairs = [(i, j) for i in gens for j in gens if alg.pair_defined(i, j)]
    failures = _module_failures(alg, mod, ((i, j, b) for i, j in pairs for b in range(mod.rank)))
    return ModuleReport(alg.name, mod.kind, mod.rank, len(pairs), list(failures))


# -- submodules and irreducibility ------------------------------------------------------


class SubmoduleResult(NamedTuple):
    module: ConformalModule | None
    offending_generator: int | None
    remainder: Poly | None

    @property
    def invariant(self) -> bool:
        return self.module is not None


def _require_rank_one_free(mod: ConformalModule) -> None:
    if mod.kind != KIND_FREE or mod.rank != 1:
        raise UnsupportedModuleError("only free rank-one tables are searched")


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
            return SubmoduleResult(module=None, offending_generator=i, remainder=r)
        new_action[(i, b)] = {0: q}
    new_mod = ConformalModule(rank=1, alpha=None, action=new_action)
    return SubmoduleResult(module=new_mod, offending_generator=None, remainder=None)


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
    return FamilyTag(p=c1, delta=c2 / c1, alpha=c3 / c1, beta=beta)


class IrreducibilityVerdict(NamedTuple):
    criterion_irreducible: bool
    witness: Poly | None
    candidates_checked: list[Poly]

    @property
    def search_irreducible(self) -> bool:
        """The search's answer: irreducible when it found no invariant span."""
        return self.witness is None

    @property
    def agreed(self) -> bool:
        """Whether the criterion and the submodule search give the same answer."""
        return self.criterion_irreducible == self.search_irreducible

    @property
    def irreducible(self) -> bool:
        """The answer both ways agree on.

        Raises :class:`RuntimeError` when they disagree, so a disagreement
        can never be read as either answer; test :attr:`agreed` first.
        """
        if not self.agreed:
            raise RuntimeError("criterion and submodule search disagree")
        return self.criterion_irreducible

    def to_payload(self) -> dict[str, Any]:
        if not self.agreed:
            verdict = "DISAGREED"
        else:
            verdict = "IRREDUCIBLE" if self.criterion_irreducible else "REDUCIBLE"
        payload: dict[str, Any] = {
            "verdict": verdict,
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

    The criterion answer reads ``delta`` and ``beta`` off the action table
    (:func:`infer_family`): the module is irreducible iff ``delta != 0`` or
    ``beta != 0``, a plain table having no ``beta``.  The search answer
    enumerates, for each degree up to the bound, the unique linear-condition
    candidate ``g`` and runs the full invariance test on it.  The verdict
    carries both answers; when they disagree its
    :attr:`~IrreducibilityVerdict.agreed` is false and reading
    :attr:`~IrreducibilityVerdict.irreducible` raises, never a silent
    preference for either.
    """
    _require_rank_one_free(mod)
    tag = infer_family(mod)
    if tag is None:
        raise UnsupportedModuleError(
            "irreducibility needs a recognised rank-one family table"
        )
    criterion = tag.delta != 0 or bool(tag.beta)
    witness: Poly | None = None
    candidates: list[Poly] = []
    for degree in range(1, degree_bound + 1):
        candidate = _invariance_candidate(tag.alpha, degree)
        candidates.append(candidate)
        result = submodule_action(mod, candidate)
        if result.invariant and witness is None:
            witness = candidate
    return IrreducibilityVerdict(
        criterion_irreducible=criterion, witness=witness, candidates_checked=candidates
    )

