"""Lie conformal algebras presented by polynomial structure tables.

An algebra here is a free module over the polynomial ring in ``D`` with a
finite generator window ``L_0, ..., L_W`` and a bracket given tablewise:

    [L_i  L_j] = sum_k  s_{ij}^k(D, x) L_k

where ``x`` is the bracket variable and ``D`` acts on the target.  Elements
(:data:`ConfElement`) are dicts mapping generator index to a coefficient
polynomial in ``D`` alone; bracket values (:data:`LambdaValue`) allow the
bracket variable as well, and the second bracket variable ``y`` appears only
inside identity checks.

Two truncation policies give the two ways a finite window can be meant:
``TRUNCATE_TO_ZERO`` realises a genuine quotient in which every product past
the window is zero, while ``ERROR_ON_OVERFLOW`` marks a window that is merely
the inspected prefix of an unbounded algebra, so products that would escape
raise instead of silently lying.  Checkers enumerate accordingly: under
TRUNCATE everything in the window is checked, under ERROR only the pairs and
triples whose products stay inside.

The bracket family implemented by :func:`make_block` is

    [L_i  L_j] = ((i + p) D + (i + j + 2 p) x) L_{i+j},   p != 0,

whose index-zero generator rescaled by ``1/p`` is a Virasoro element.  The
truncated quotients :func:`make_bn` (parameter ``p = -n``, window ``n``)
reproduce, after an invertible base change, the Heisenberg-Virasoro table at
``n = 1`` and the Schrodinger-Virasoro table at ``n = 2``; the base changes
are exercised by the morphism checker in the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple

from .poly import DEL, LAM, MU, Poly, Var

GenId = int

#: Finite C[D]-combination of generators; values are polynomials in D only.
ConfElement = dict[GenId, Poly]

#: Bracket value; values are polynomials in D and the bracket variable(s).
LambdaValue = dict[GenId, Poly]


class TruncationPolicy(enum.Enum):
    ERROR_ON_OVERFLOW = "error"
    TRUNCATE_TO_ZERO = "truncate"


class WindowOverflowError(RuntimeError):
    """A product escaped the generator window under ERROR_ON_OVERFLOW."""


class NotAnIdealError(ValueError):
    """The span proposed for a quotient is not closed under the bracket."""


class UnsupportedAlgebraError(ValueError):
    """The operation needs structural data this algebra kind does not carry."""


# -- linear combination helpers ---------------------------------------------


def combo_add(a: Mapping[GenId, Poly], b: Mapping[GenId, Poly]) -> dict[GenId, Poly]:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Poly.zero()) + v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def combo_neg(a: Mapping[GenId, Poly]) -> dict[GenId, Poly]:
    return {k: -v for k, v in a.items()}


def combo_sub(a: Mapping[GenId, Poly], b: Mapping[GenId, Poly]) -> dict[GenId, Poly]:
    return combo_add(a, combo_neg(b))


def combo_substitute(
    a: Mapping[GenId, Poly], var: Var, replacement: Poly | Fraction | int
) -> dict[GenId, Poly]:
    out: dict[GenId, Poly] = {}
    for k, v in a.items():
        s = v.substitute(var, replacement)
        if not s.is_zero():
            out[k] = s
    return out


def combo_is_zero(a: Mapping[GenId, Poly]) -> bool:
    return all(v.is_zero() for v in a.values())


# -- the algebra type ---------------------------------------------------------


@dataclass
class ConformalAlgebra:
    """A finitely windowed Lie conformal algebra presentation.

    ``structure`` holds the bracket table on generator pairs; a missing pair
    inside the window means the zero bracket.  ``param_p`` carries the family
    parameter when the algebra belongs to the one-parameter bracket family
    (kinds ``block`` and ``bn``) and is None otherwise.
    """

    name: str
    kind: str
    window: int
    policy: TruncationPolicy
    param_p: Fraction | None
    structure: dict[tuple[GenId, GenId], LambdaValue]
    gen_names: tuple[str, ...]

    def generators(self) -> range:
        return range(self.window + 1)

    def gen_name(self, i: GenId) -> str:
        return self.gen_names[i]

    def pair_defined(self, i: GenId, j: GenId) -> bool:
        """Whether the bracket of the pair is available under the policy."""
        if i > self.window or j > self.window:
            return False
        if (i, j) in self.structure:
            return True
        if i + j <= self.window:
            return True
        return self.policy is TruncationPolicy.TRUNCATE_TO_ZERO

    def structure_of(self, i: GenId, j: GenId) -> LambdaValue:
        if i > self.window or j > self.window:
            raise KeyError(f"generator pair ({i}, {j}) outside window {self.window}")
        entry = self.structure.get((i, j))
        if entry is not None:
            return entry
        if i + j <= self.window:
            return {}
        if self.policy is TruncationPolicy.TRUNCATE_TO_ZERO:
            return {}
        raise WindowOverflowError(
            f"bracket of pair ({i}, {j}) escapes window {self.window} "
            f"of {self.name} under ERROR_ON_OVERFLOW"
        )


# -- constructors -------------------------------------------------------------


def _block_entry(p: Fraction, i: int, j: int) -> Poly:
    return (i + p) * DEL + (i + j + 2 * p) * LAM


def make_block(
    p: Fraction | int,
    window: int,
    policy: TruncationPolicy = TruncationPolicy.ERROR_ON_OVERFLOW,
) -> ConformalAlgebra:
    """The one-parameter bracket family on generators ``L_0..L_window``.

    ``[L_i  L_j] = ((i+p) D + (i+j+2p) x) L_{i+j}``, with ``p`` a nonzero
    rational.  Under ERROR_ON_OVERFLOW the table is the inspected prefix of
    the unbounded algebra; under TRUNCATE_TO_ZERO it is the quotient with all
    generators past the window killed.
    """
    p = Fraction(p)
    if p == 0:
        raise ValueError("the family parameter p must be nonzero")
    if window < 0:
        raise ValueError("window must be nonnegative")
    structure: dict[tuple[int, int], LambdaValue] = {}
    for i in range(window + 1):
        for j in range(window + 1):
            if i + j > window:
                continue
            entry = _block_entry(p, i, j)
            if not entry.is_zero():
                structure[(i, j)] = {i + j: entry}
    return ConformalAlgebra(
        name=f"B({p})",
        kind="block",
        window=window,
        policy=policy,
        param_p=p,
        structure=structure,
        gen_names=tuple(f"L_{i}" for i in range(window + 1)),
    )


def make_bn(n: int) -> ConformalAlgebra:
    """The finite quotient at parameter ``p = -n``, window ``n``, truncating."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    alg = make_block(Fraction(-n), n, TruncationPolicy.TRUNCATE_TO_ZERO)
    alg.name = f"b({n})"
    alg.kind = "bn"
    alg.gen_names = tuple(f"Lbar_{i}" for i in range(n + 1))
    return alg


def make_virasoro() -> ConformalAlgebra:
    """Single generator L with ``[L L] = (D + 2x) L``."""
    return ConformalAlgebra(
        name="Vir",
        kind="virasoro",
        window=0,
        policy=TruncationPolicy.TRUNCATE_TO_ZERO,
        param_p=None,
        structure={(0, 0): {0: DEL + 2 * LAM}},
        gen_names=("L",),
    )


def make_heisenberg_virasoro() -> ConformalAlgebra:
    """Generators L, M with the Heisenberg-Virasoro bracket table.

    ``[L L] = (D + 2x) L``, ``[L M] = (D + x) M``, ``[M L] = x M``,
    ``[M M] = 0``.  Note the M-valued right-hand sides of the mixed
    brackets: a table with ``[M L] = x L`` circulates in print but fails
    skew-symmetry, see :func:`make_heisenberg_virasoro_misprint`.
    """
    return ConformalAlgebra(
        name="HV",
        kind="hv",
        window=1,
        policy=TruncationPolicy.TRUNCATE_TO_ZERO,
        param_p=None,
        structure={
            (0, 0): {0: DEL + 2 * LAM},
            (0, 1): {1: DEL + LAM},
            (1, 0): {1: LAM},
        },
        gen_names=("L", "M"),
    )


def make_heisenberg_virasoro_misprint() -> ConformalAlgebra:
    """The rejected variant with ``[M L] = x L`` instead of ``x M``.

    This reproduces a misprint that appears in print.  The table fails
    skew-symmetry on exactly the pair (M, L); the checker is expected to
    report residual ``x L - x M`` there and nothing else.
    """
    alg = make_heisenberg_virasoro()
    alg.name = "HV-misprint"
    alg.structure[(1, 0)] = {0: LAM}
    return alg


def make_schrodinger_virasoro() -> ConformalAlgebra:
    """Generators L, Y, M with the Schrodinger-Virasoro bracket table."""
    half = Fraction(1, 2)
    return ConformalAlgebra(
        name="SV",
        kind="sv",
        window=2,
        policy=TruncationPolicy.TRUNCATE_TO_ZERO,
        param_p=None,
        structure={
            (0, 0): {0: DEL + 2 * LAM},
            (0, 1): {1: DEL + 3 * half * LAM},
            (1, 0): {1: half * DEL + 3 * half * LAM},
            (0, 2): {2: DEL + LAM},
            (2, 0): {2: LAM},
            (1, 1): {2: DEL + 2 * LAM},
        },
        gen_names=("L", "Y", "M"),
    )


# -- the bracket on elements ---------------------------------------------------


def bracket(alg: ConformalAlgebra, x: ConfElement, y: ConfElement) -> LambdaValue:
    """Bracket of two elements, extended by sesquilinearity.

    For coefficient polynomials ``f`` and ``g``,
    ``[f(D) L_i  g(D) L_j] = f(-x) g(D + x) [L_i  L_j]``.
    """
    out: dict[GenId, Poly] = {}
    shift = DEL + LAM
    for i, f in x.items():
        f_neg = f.substitute(Var.PARTIAL, -LAM)
        if f_neg.is_zero():
            continue
        for j, g in y.items():
            g_shift = g.substitute(Var.PARTIAL, shift)
            scale = f_neg * g_shift
            if scale.is_zero():
                continue
            for k, entry in alg.structure_of(i, j).items():
                term = scale * entry
                s = out.get(k, Poly.zero()) + term
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
    return out


# -- axiom checkers ------------------------------------------------------------


@dataclass
class PairResidual:
    i: GenId
    j: GenId
    residual: LambdaValue


@dataclass
class TripleResidual:
    i: GenId
    j: GenId
    k: GenId
    residual: LambdaValue


@dataclass
class SkewReport:
    algebra: str
    pairs_checked: int
    failures: list[PairResidual] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class JacobiReport:
    algebra: str
    triples_checked: int
    failures: list[TripleResidual] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def skew_residual(alg: ConformalAlgebra, i: GenId, j: GenId) -> LambdaValue:
    """``[L_i  L_j] + [L_j  L_i]`` with the second bracket at ``-x - D``.

    Zero exactly when the pair satisfies skew-symmetry.
    """
    flipped = combo_substitute(alg.structure_of(j, i), Var.LAMBDA, -LAM - DEL)
    return combo_add(alg.structure_of(i, j), flipped)


def check_skew(alg: ConformalAlgebra) -> SkewReport:
    """Verify skew-symmetry on every available generator pair.

    Only pairs ``i >= j`` are walked: the residual of ``(j, i)`` is the image
    of the residual of ``(i, j)`` under the involution ``x -> -x - D``, so it
    vanishes iff the lower-triangle residual does, and each genuine failure is
    reported once.
    """
    report = SkewReport(algebra=alg.name, pairs_checked=0)
    for i in alg.generators():
        for j in range(i + 1):
            if not (alg.pair_defined(i, j) and alg.pair_defined(j, i)):
                continue
            report.pairs_checked += 1
            residual = skew_residual(alg, i, j)
            if not combo_is_zero(residual):
                report.failures.append(PairResidual(i, j, residual))
    return report


class _PairForms(NamedTuple):
    """One target of a table entry ``s(D, x) L_k``, with its substituted forms.

    The Jacobi residual only ever needs an entry under one of these
    substitutions, so each is made once per pair rather than once per triple.
    The two forms that enter the residual with a minus sign carry it.
    """

    k: GenId
    s: Poly  #: s(D, x), outer factor of [a_x [b_y c]]
    lift_x: Poly  #: s(D+x, y), inner factor of [a_x [b_y c]]
    neg_out: Poly  #: -s(-x-y, x), inner factor of [[a_x b]_{x+y} c]
    at_sum: Poly  #: s(D, x+y), outer factor of [[a_x b]_{x+y} c]
    neg_lift_y: Poly  #: -s(D+y, x), inner factor of [b_y [a_x c]]
    at_y: Poly  #: s(D, y), outer factor of [b_y [a_x c]]


class _CompiledTable(dict):
    """Bracket table of ``alg`` as :class:`_PairForms` tuples, keyed by pair.

    A pair is compiled on its first lookup.  A pair the policy leaves out is
    looked up through :meth:`ConformalAlgebra.structure_of` every time, so it
    raises exactly where a direct lookup would.
    """

    def __init__(self, alg: ConformalAlgebra):
        super().__init__()
        self.alg = alg

    def __missing__(self, pair: tuple[GenId, GenId]) -> tuple[_PairForms, ...]:
        forms = tuple(
            _PairForms(
                k,
                s,
                s.substitute(Var.LAMBDA, MU).substitute(Var.PARTIAL, DEL + LAM),
                -s.substitute(Var.PARTIAL, -LAM - MU),
                s.substitute(Var.LAMBDA, LAM + MU),
                -s.substitute(Var.PARTIAL, DEL + MU),
                s.substitute(Var.LAMBDA, MU),
            )
            for k, s in self.alg.structure_of(*pair).items()
        )
        self[pair] = forms
        return forms


def _jacobi_terms(
    table: _CompiledTable, a: GenId, b: GenId, c: GenId
) -> LambdaValue:
    residual: dict[GenId, Poly] = {}
    zero = Poly.zero()
    # [a_x [b_y c]]
    for f in table[b, c]:
        for g in table[a, f.k]:
            residual[g.k] = residual.get(g.k, zero) + f.lift_x * g.s
    # - [[a_x b]_{x+y} c]
    for f in table[a, b]:
        for g in table[f.k, c]:
            residual[g.k] = residual.get(g.k, zero) + f.neg_out * g.at_sum
    # - [b_y [a_x c]]
    for f in table[a, c]:
        for g in table[b, f.k]:
            residual[g.k] = residual.get(g.k, zero) + f.neg_lift_y * g.at_y
    return {k: v for k, v in residual.items() if not v.is_zero()}


def jacobi_residual(alg: ConformalAlgebra, a: GenId, b: GenId, c: GenId) -> LambdaValue:
    """``[a_x [b_y c]] - [[a_x b]_{x+y} c] - [b_y [a_x c]]`` on generators.

    Every factor is a table entry under one substitution (see
    :class:`_PairForms`); in the middle term the ``D`` of ``[a b]`` becomes
    ``-x - y`` and the bracket variable of ``[m c]`` becomes ``x + y``.
    """
    return _jacobi_terms(_CompiledTable(alg), a, b, c)


def _triple_available(alg: ConformalAlgebra, a: GenId, b: GenId, c: GenId) -> bool:
    if alg.policy is TruncationPolicy.TRUNCATE_TO_ZERO:
        return True
    return a + b + c <= alg.window


def check_jacobi(alg: ConformalAlgebra) -> JacobiReport:
    """Verify the Jacobi identity on every available ordered generator triple.

    The bracket table is compiled once for the whole walk, so each entry is
    substituted once per pair instead of once per triple that uses it.
    """
    report = JacobiReport(algebra=alg.name, triples_checked=0)
    table = _CompiledTable(alg)
    gens = list(alg.generators())
    for a in gens:
        for b in gens:
            for c in gens:
                if not _triple_available(alg, a, b, c):
                    continue
                report.triples_checked += 1
                residual = _jacobi_terms(table, a, b, c)
                if residual:
                    report.failures.append(TripleResidual(a, b, c, residual))
    return report


# -- morphisms -----------------------------------------------------------------


@dataclass
class ConfMorphism:
    """A C[D]-linear map sending generators to elements of the target.

    ``index_scale`` marks the index-stretching embeddings of the bracket
    family (generator ``i`` mapped into index ``n i``), which is what the
    injectivity check keys on.
    """

    source: ConformalAlgebra
    target: ConformalAlgebra
    images: dict[GenId, ConfElement]
    index_scale: int | None = None


@dataclass
class MorphismReport:
    source: str
    target: str
    pairs_checked: int
    failures: list[PairResidual] = field(default_factory=list)
    injective_on_generators: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def apply_morphism(phi: ConfMorphism, combo: Mapping[GenId, Poly]) -> dict[GenId, Poly]:
    """Push a combination through the morphism; bracket variables ride along."""
    out: dict[GenId, Poly] = {}
    for i, coeff in combo.items():
        image = phi.images.get(i)
        if not image:
            continue
        for k, h in image.items():
            s = out.get(k, Poly.zero()) + coeff * h
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return out


def compose(outer: ConfMorphism, inner: ConfMorphism) -> ConfMorphism:
    if inner.target is not outer.source and inner.target.name != outer.source.name:
        raise ValueError("morphisms do not compose: target/source mismatch")
    images = {i: apply_morphism(outer, img) for i, img in inner.images.items()}
    scale = None
    if inner.index_scale is not None and outer.index_scale is not None:
        scale = inner.index_scale * outer.index_scale
    return ConfMorphism(inner.source, outer.target, images, scale)


def block_embedding(p: Fraction | int, n: int, window: int) -> ConfMorphism:
    """The index-stretching embedding of the bracket family.

    Sends generator ``i`` at parameter ``p`` to ``(1/n)`` times generator
    ``n i`` at parameter ``n p``.  The target window is ``n * window`` so
    every checked bracket stays inside.
    """
    if n < 1:
        raise ValueError("the stretch factor n must be a positive integer")
    p = Fraction(p)
    source = make_block(p, window, TruncationPolicy.ERROR_ON_OVERFLOW)
    target = make_block(n * p, n * window, TruncationPolicy.ERROR_ON_OVERFLOW)
    images = {
        i: {n * i: Poly.const(Fraction(1, n))} for i in range(window + 1)
    }
    return ConfMorphism(source, target, images, index_scale=n)


def check_morphism(phi: ConfMorphism) -> MorphismReport:
    """Verify that the map intertwines the two bracket tables pairwise."""
    report = MorphismReport(
        source=phi.source.name, target=phi.target.name, pairs_checked=0
    )
    for i in phi.source.generators():
        for j in phi.source.generators():
            if not phi.source.pair_defined(i, j):
                continue
            report.pairs_checked += 1
            mapped = apply_morphism(phi, phi.source.structure_of(i, j))
            direct = bracket(
                phi.target, phi.images.get(i, {}), phi.images.get(j, {})
            )
            residual = combo_sub(mapped, direct)
            if not combo_is_zero(residual):
                report.failures.append(PairResidual(i, j, residual))
    if phi.index_scale is not None:
        # Images with pairwise disjoint nonempty supports span freely, which
        # is how the index-stretching embeddings present themselves.
        seen: set[GenId] = set()
        injective = True
        for i in phi.source.generators():
            image = phi.images.get(i, {})
            support = {k for k, v in image.items() if not v.is_zero()}
            if not support or support & seen:
                injective = False
                break
            seen |= support
        report.injective_on_generators = injective
    return report


# -- quotients -----------------------------------------------------------------


def quotient_by_tail(alg: ConformalAlgebra, n: int) -> ConformalAlgebra:
    """Quotient by the span of all generators of index above ``n``.

    The tail span must absorb brackets: whenever one side of an available
    pair lives in the tail, the bracket must land in the tail.  For the
    implemented families this holds because bracket targets sit at the index
    sum; a table violating it raises :class:`NotAnIdealError`.
    """
    if not 0 <= n <= alg.window:
        raise ValueError(f"quotient index {n} outside window {alg.window}")
    for (i, j), entry in alg.structure.items():
        if i <= n and j <= n:
            continue
        for k, coeff in entry.items():
            if k <= n and not coeff.is_zero():
                raise NotAnIdealError(
                    f"bracket of pair ({i}, {j}) leaks {alg.gen_name(k)} "
                    "out of the tail span"
                )
    structure: dict[tuple[GenId, GenId], LambdaValue] = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if not alg.pair_defined(i, j):
                continue
            entry = {
                k: v for k, v in alg.structure_of(i, j).items() if k <= n
            }
            if entry:
                structure[(i, j)] = entry
    return ConformalAlgebra(
        name=f"{alg.name}[{n}]",
        kind=alg.kind,
        window=n,
        policy=TruncationPolicy.TRUNCATE_TO_ZERO,
        param_p=alg.param_p,
        structure=structure,
        gen_names=alg.gen_names[: n + 1],
    )
