"""Lie conformal algebras presented by polynomial structure tables.

An algebra here is a free module over the polynomial ring in ``D`` with a
finite generator window ``L_0, ..., L_W`` and a bracket given tablewise:

    [L_i  L_j] = sum_k  s_{ij}^k(D, x) L_k

where ``x`` is the bracket variable and ``D`` acts on the target.  Bracket
values (:data:`LambdaValue`) are dicts mapping generator index to a
coefficient polynomial in ``D`` and ``x``; the second bracket variable ``y``
appears only inside identity checks.

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
reproduce, after a diagonal rescaling ``e_i = c_i Lbar_i`` of the generators,
the Heisenberg-Virasoro table at ``n = 1`` and the Schrodinger-Virasoro table
at ``n = 2``; ``test_bn_rescales_to_hv_and_sv`` in the tests checks both.
An algebra is its table and its generator names; :func:`family_parameter`
reads ``p`` back from ``[L_0  L_0] = p (D + 2x) L_0`` where a stage needs it.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from typing import Any, Iterable, Iterator, NamedTuple

from .linalg import add_terms, render_combo
from .poly import DEL, LAM, MU, NVARS, Poly, Var, quote

GenId = int

#: Bracket value; values are polynomials in D and the bracket variable(s).
LambdaValue = dict[GenId, Poly]


class TruncationPolicy(enum.Enum):
    ERROR_ON_OVERFLOW = "error"
    TRUNCATE_TO_ZERO = "truncate"


class WindowOverflowError(RuntimeError):
    """A product escaped the generator window under ERROR_ON_OVERFLOW."""


class UnsupportedAlgebraError(ValueError):
    """The operation needs structural data this algebra's table does not carry."""


# -- the algebra type ---------------------------------------------------------


class ConformalAlgebra(NamedTuple):
    """A finitely windowed Lie conformal algebra presentation.

    ``structure`` holds the bracket table on generator pairs; a missing pair
    inside the window means the zero bracket.  ``gen_names`` names the
    generators ``L_0, ..., L_W``, so it fixes the window ``W``.
    """

    name: str
    policy: TruncationPolicy
    structure: dict[tuple[GenId, GenId], LambdaValue]
    gen_names: tuple[str, ...]

    @property
    def window(self) -> int:
        """The largest generator index ``W``."""
        return len(self.gen_names) - 1

    def generators(self) -> range:
        return range(self.window + 1)

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
            f"of {quote(self.name)} under ERROR_ON_OVERFLOW"
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
        policy=policy,
        structure=structure,
        gen_names=tuple(f"L_{i}" for i in range(window + 1)),
    )


def make_bn(n: int) -> ConformalAlgebra:
    """The finite quotient at parameter ``p = -n``, window ``n``, truncating."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    alg = make_block(Fraction(-n), n, TruncationPolicy.TRUNCATE_TO_ZERO)
    return alg._replace(name=f"b({n})", gen_names=tuple(f"Lbar_{i}" for i in range(n + 1)))


def make_virasoro() -> ConformalAlgebra:
    """Single generator L with ``[L L] = (D + 2x) L``."""
    return ConformalAlgebra(
        name="Vir",
        policy=TruncationPolicy.TRUNCATE_TO_ZERO,
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
        policy=TruncationPolicy.TRUNCATE_TO_ZERO,
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
    return alg._replace(name="HV-misprint", structure={**alg.structure, (1, 0): {0: LAM}})


def make_schrodinger_virasoro() -> ConformalAlgebra:
    """Generators L, Y, M with the Schrodinger-Virasoro bracket table."""
    half = Fraction(1, 2)
    return ConformalAlgebra(
        name="SV",
        policy=TruncationPolicy.TRUNCATE_TO_ZERO,
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


def family_parameter(alg: ConformalAlgebra) -> Fraction:
    """``p``, the ``D`` coefficient of the ``L_0`` part of ``[L_0  L_0] = p (D + 2x) L_0``.

    Vir, HV and SV give ``p = 1``.  Nothing else of the table is read: the
    checks that use ``p`` decide whether the rest fits.  A table with no
    such term raises :class:`UnsupportedAlgebraError`.
    """
    p = alg.structure.get((0, 0), {}).get(0, Poly.zero()).coeff_in(Var.PARTIAL, 1).constant()
    if not p:
        raise UnsupportedAlgebraError("the L_0 part of [L_0 L_0] has no D term to read p from")
    return p


# -- axiom checkers ------------------------------------------------------------


class PairResidual(NamedTuple):
    i: GenId
    j: GenId
    residual: LambdaValue


class TripleResidual(NamedTuple):
    i: GenId
    j: GenId
    k: GenId
    residual: LambdaValue


class SkewReport(NamedTuple):
    algebra: str
    gen_names: tuple[str, ...]
    pairs_checked: int
    failures: list[PairResidual]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_payload(self) -> dict[str, Any]:
        return {
            "algebra": self.algebra,
            "pairs_checked": self.pairs_checked,
            "failures": [
                {"pair": [f.i, f.j],
                 "residual": render_combo(f.residual, self.gen_names.__getitem__)}
                for f in self.failures
            ],
        }


class JacobiReport(NamedTuple):
    algebra: str
    gen_names: tuple[str, ...]
    triples_checked: int
    failures: list[TripleResidual]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_payload(self) -> dict[str, Any]:
        return {
            "algebra": self.algebra,
            "triples_checked": self.triples_checked,
            "failures": [
                {"triple": [f.i, f.j, f.k],
                 "residual": render_combo(f.residual, self.gen_names.__getitem__)}
                for f in self.failures
            ],
        }


def skew_residual(alg: ConformalAlgebra, i: GenId, j: GenId) -> LambdaValue:
    """``[L_i  L_j] + [L_j  L_i]`` with the second bracket at ``-x - D``.

    Zero exactly when the pair satisfies skew-symmetry.
    """
    residual = add_terms({}, alg.structure_of(i, j).items())
    flipped = alg.structure_of(j, i).items()
    return add_terms(residual, ((k, s.substitute(Var.LAMBDA, -LAM - DEL)) for k, s in flipped))


def check_skew(alg: ConformalAlgebra) -> SkewReport:
    """Verify skew-symmetry on every available generator pair.

    Only pairs ``i >= j`` are walked: the residual of ``(j, i)`` is the image
    of the residual of ``(i, j)`` under the involution ``x -> -x - D``, so it
    vanishes iff the lower-triangle residual does, and each genuine failure is
    reported once.
    """
    pairs = [(i, j) for i in alg.generators() for j in range(i + 1)
             if alg.pair_defined(i, j) and alg.pair_defined(j, i)]
    failures = [PairResidual(i, j, r) for i, j in pairs if (r := skew_residual(alg, i, j))]
    return SkewReport(alg.name, alg.gen_names, len(pairs), failures)


#: A polynomial as ``(packed exponent, integer coefficient)`` terms; see
#: :class:`_PackedTable`.
_Packed = tuple[tuple[int, int], ...]


class _PairForms(NamedTuple):
    """One target of a table entry ``s(D, x) L_k``, with its substituted forms.

    The Jacobi residual only ever needs an entry under one of these
    substitutions, so each is made once per pair rather than once per triple.
    The two forms that enter the residual with a minus sign carry it.  The
    forms are packed integer terms, see :class:`_PackedTable`.
    """

    k: GenId
    s: _Packed  #: s(D, x), outer factor of [a_x [b_y c]]
    lift_x: _Packed  #: s(D+x, y), inner factor of [a_x [b_y c]]
    neg_out: _Packed  #: -s(-x-y, x), inner factor of [[a_x b]_{x+y} c]
    at_sum: _Packed  #: s(D, x+y), outer factor of [[a_x b]_{x+y} c]
    neg_lift_y: _Packed  #: -s(D+y, x), inner factor of [b_y [a_x c]]
    at_y: _Packed  #: s(D, y), outer factor of [b_y [a_x c]]


def _forms(s: Poly) -> tuple[Poly, ...]:
    """The forms of ``s`` in the field order of :class:`_PairForms`."""
    return (
        s,
        s.substitute(Var.LAMBDA, MU).substitute(Var.PARTIAL, DEL + LAM),
        -s.substitute(Var.PARTIAL, -LAM - MU),
        s.substitute(Var.LAMBDA, LAM + MU),
        -s.substitute(Var.PARTIAL, DEL + MU),
        s.substitute(Var.LAMBDA, MU),
    )


class _PackedTable(dict):
    """Bracket table of ``alg`` as :class:`_PairForms` tuples on integers.

    Every form is multiplied by ``scale``, the lcm of the denominators of the
    table's coefficients; the substitutions have integer coefficients, so the
    scaled forms do too.  A monomial ``D^e0 x^e1 y^e2`` packs into the int
    ``sum(e_i << i*width)`` (Monagan and Pearce, 2009).  A form's
    exponent in any slot is at most the entry's total degree, and ``width``
    leaves room for twice the largest one, so adding two packed exponents
    multiplies the monomials without a carry.  The outer forms (``s``,
    ``at_sum``, ``at_y``) also carry their target as ``k << 3*width``, so the
    sum of an inner and an outer exponent names both the target and the
    monomial of a residual term.

    The forms are linear in the entry, so a pair's forms are summed from the
    packed forms of the entry's monomials, each substituted once per table.
    A pair is packed on its first lookup.  A pair the policy leaves out is
    looked up through :meth:`ConformalAlgebra.structure_of` every time, so it
    raises exactly where a direct lookup would.
    """

    def __init__(self, alg: ConformalAlgebra):
        super().__init__()
        self.alg = alg
        entries = [s for value in alg.structure.values() for s in value.values()]
        self.scale = math.lcm(1, *(c.denominator for s in entries for _, c in s.terms()))
        maxdeg = max((s.total_degree() for s in entries), default=0)
        self.width = max(8, (2 * maxdeg).bit_length())
        self.monomials: dict[tuple[int, ...], tuple[_Packed, ...]] = {}

    def _monomial_forms(self, exp: tuple[int, ...]) -> tuple[_Packed, ...]:
        forms = self.monomials.get(exp)
        if forms is None:
            width = self.width
            forms = self.monomials[exp] = tuple(
                tuple((sum(e << i * width for i, e in enumerate(m)), c.numerator)
                      for m, c in form.terms())
                for form in _forms(Poly({exp: 1}))
            )
        return forms

    def __missing__(self, pair: tuple[GenId, GenId]) -> tuple[_PairForms, ...]:
        scale, shift = self.scale, NVARS * self.width
        packed = []
        for k, s in self.alg.structure_of(*pair).items():
            totals: tuple[dict[int, int], ...] = ({}, {}, {}, {}, {}, {})
            for exp, c in s.terms():
                c = c.numerator * (scale // c.denominator)
                for total, form in zip(totals, self._monomial_forms(exp)):
                    for e, v in form:
                        total[e] = total.get(e, 0) + c * v
            top = k << shift
            packed.append(_PairForms(k, *(
                tuple((e + t, v) for e, v in total.items() if v)
                for total, t in zip(totals, (top, 0, 0, top, 0, top))
            )))
        forms = self[pair] = tuple(packed)
        return forms

    def unpack(self, total: dict[int, int]) -> LambdaValue:
        """The exact residual that ``total`` packs.

        A key's target is ``key >> 3*width``, its exponents are the masked
        slots below, and its coefficient ``v`` stands for ``v / scale**2``.
        """
        width = self.width
        mask, shift, denominator = (1 << width) - 1, NVARS * width, self.scale**2
        residual: dict[GenId, dict[tuple[int, ...], Fraction]] = {}
        for key, v in total.items():
            if v:
                exp = tuple(key >> i * width & mask for i in range(NVARS))
                residual.setdefault(key >> shift, {})[exp] = Fraction(v, denominator)
        return {k: Poly(terms) for k, terms in residual.items()}


def _factor_pairs(
    table: _PackedTable, a: GenId, b: GenId, c: GenId
) -> Iterator[tuple[_Packed, _Packed]]:
    """The products ``inner * outer`` that make up the residual.

    Yields ``(inner, outer)`` for every term of
    ``[a_x [b_y c]] - [[a_x b]_{x+y} c] - [b_y [a_x c]]``; each outer form
    carries the target of its term in its keys.
    """
    # [a_x [b_y c]]
    for f in table[b, c]:
        for g in table[a, f.k]:
            yield f.lift_x, g.s
    # - [[a_x b]_{x+y} c]
    for f in table[a, b]:
        for g in table[f.k, c]:
            yield f.neg_out, g.at_sum
    # - [b_y [a_x c]]
    for f in table[a, c]:
        for g in table[b, f.k]:
            yield f.neg_lift_y, g.at_y


def _packed_residual(table: _PackedTable, a: GenId, b: GenId, c: GenId) -> dict[int, int]:
    """The Jacobi residual of ``(a, b, c)`` on every target, times ``table.scale**2``.

    The outer forms carry their target, so one dict holds all of it.  A term
    that cancels stays in the dict as a zero.
    """
    total: dict[int, int] = {}
    get = total.get
    for inner, outer in _factor_pairs(table, a, b, c):
        for e, v in inner:
            for key, w in outer:
                key += e
                total[key] = get(key, 0) + v * w
    return total


def jacobi_residual(alg: ConformalAlgebra, a: GenId, b: GenId, c: GenId) -> LambdaValue:
    """``[a_x [b_y c]] - [[a_x b]_{x+y} c] - [b_y [a_x c]]`` on generators.

    Every factor is a table entry under one substitution (see
    :class:`_PairForms`); in the middle term the ``D`` of ``[a b]`` becomes
    ``-x - y`` and the bracket variable of ``[m c]`` becomes ``x + y``.
    """
    table = _PackedTable(alg)
    return table.unpack(_packed_residual(table, a, b, c))


def jacobi_failures(
    alg: ConformalAlgebra, triples: Iterable[tuple[GenId, GenId, GenId]]
) -> Iterator[TripleResidual]:
    """The triples of ``triples``, in order, that fail the Jacobi identity.

    The walk runs on :class:`_PackedTable`, whose residuals are the exact
    ones times ``scale**2``, so they vanish on the same triples; a failing
    triple's exact residual is read off its packed one.  This is the one
    expansion of a bracket identity: :func:`confal.modules.check_module`
    walks the module identity here too, as the Jacobi identity of the
    semidirect product of the algebra and the module.
    """
    table = _PackedTable(alg)
    for a, b, c in triples:
        total = _packed_residual(table, a, b, c)
        if any(total.values()):
            yield TripleResidual(a, b, c, table.unpack(total))


def check_jacobi(alg: ConformalAlgebra) -> JacobiReport:
    """Verify the Jacobi identity on every available ordered generator triple.

    Under TRUNCATE_TO_ZERO every triple of the window is available; under
    ERROR_ON_OVERFLOW only those whose index sum stays inside it.
    """
    w = alg.window
    if alg.policy is TruncationPolicy.TRUNCATE_TO_ZERO:
        triples: Iterable[tuple[GenId, GenId, GenId]] = itertools.product(range(w + 1), repeat=3)
        count = (w + 1) ** 3
    else:
        triples = (
            (a, b, c)
            for a in range(w + 1)
            for b in range(w + 1 - a)
            for c in range(w + 1 - a - b)
        )
        count = math.comb(w + 3, 3)
    failures = list(jacobi_failures(alg, triples))
    return JacobiReport(alg.name, alg.gen_names, count, failures)
