"""Finite windows of annihilation algebras and their subquotients.

Expanding a conformal algebra into modes turns each generator ``L_i`` into a
family ``L_i{(s)}`` of ordinary Lie algebra elements whose brackets come from
the k-th products:

    [a_(s), b_(t)] = sum_k  C(s, k) (a_(k) b)_(s + t - k),
    (D a)_(t) = -t a_(t-1).

For the one-parameter bracket family the shifted labels ``L(i, m)`` with
``m = s - 1 >= -1`` close into the table

    [L(i,m), L(j,n)] = ((j+p)(m+1) - (i+p)(n+1)) L(i+j, m+n),

and :func:`build_annihilation` constructs the window both ways, raising if
the general mode expansion and this closed form ever disagree.  The extended
variant adjoins a translation generator ``T`` with
``[T, L(i,m)] = -(m+1) L(i,m-1)``; ``T - (1/p) L(0,-1)`` is then central,
which :func:`check_central` verifies bracket by bracket.

:func:`annihilation_subquotient` builds the finite-dimensional subquotients
on index window ``0..idx_cap`` and mode window ``0..mode_cap`` where every
product escaping the window is zero by definition (no truncation bookkeeping
is needed: the zero rule is part of the algebra).  The resonance analysis
classifies the eigenvalue-zero locus of the diagonal element ``J(0,0)`` and
names the distinguished ideal each configuration produces.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import linalg
from .conformal import ConformalAlgebra, TruncationPolicy, UnsupportedAlgebraError
from .linalg import RatMatrix
from .poly import Poly, Var

Label = str

#: Linear combination of basis labels with rational coefficients.
LinComb = dict[Label, Fraction]


class ClosedFormMismatchError(RuntimeError):
    """The mode-expansion table disagreed with the closed-form table."""


def label_L(i: int, m: int) -> Label:
    return f"L({i},{m})"


def label_J(i: int, m: int) -> Label:
    return f"J({i},{m})"


T_LABEL: Label = "T"


@dataclass
class FiniteLieAlgebra:
    """A finite-dimensional Lie algebra with a rational structure table.

    ``table`` stores each ordered pair with a nonzero bracket; missing pairs
    bracket to zero.  Antisymmetry must hold tablewise and is rechecked by
    :func:`check_lie` rather than assumed.
    """

    name: str
    basis: tuple[Label, ...]
    table: dict[tuple[Label, Label], LinComb]
    param_p: Fraction | None
    meta: dict = field(default_factory=dict)

    @cached_property
    def positions(self) -> dict[Label, int]:
        """Basis label -> its index in ``basis``."""
        return {label: i for i, label in enumerate(self.basis)}

    def index(self, label: Label) -> int:
        return self.positions[label]

    def bracket_basis(self, x: Label, y: Label) -> LinComb:
        return dict(self.table.get((x, y), {}))


def lie_bracket(alg: FiniteLieAlgebra, u: Mapping[Label, Fraction],
                v: Mapping[Label, Fraction]) -> LinComb:
    out: LinComb = {}
    for xu, cu in u.items():
        if not cu:
            continue
        for xv, cv in v.items():
            scale = cu * cv
            if not scale:
                continue
            for target, coeff in alg.table.get((xu, xv), {}).items():
                s = out.get(target, Fraction(0)) + scale * coeff
                if s:
                    out[target] = s
                else:
                    out.pop(target, None)
    return out


def comb_add(a: Mapping[Label, Fraction], b: Mapping[Label, Fraction]) -> LinComb:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def comb_scale(a: Mapping[Label, Fraction], c: Fraction | int) -> LinComb:
    c = Fraction(c)
    return {k: v * c for k, v in a.items() if v * c}


# -- k-th products of a conformal algebra --------------------------------------


def k_products(alg: ConformalAlgebra, i: int, j: int) -> list[tuple[int, dict[int, Poly]]]:
    """Nonzero k-th products of a generator pair.

    Returns pairs ``(k, element)`` where the element maps generator index to
    a coefficient polynomial in ``D``; the bracket is recovered as
    ``sum_k x^k / k! (L_i_(k) L_j)``.
    """
    entry = alg.structure_of(i, j)
    by_k: dict[int, dict[int, Poly]] = {}
    for gen, poly in entry.items():
        for k in range(poly.degree_in(Var.LAMBDA) + 1):
            coeff = poly.coeff_in(Var.LAMBDA, k)
            if not coeff.is_zero():
                by_k.setdefault(k, {})[gen] = coeff
    return sorted(by_k.items())


# -- the annihilation window ----------------------------------------------------


def _closed_form_target(p: Fraction, i: int, m: int, j: int, n: int) -> tuple[Fraction, int, int]:
    coeff = (j + p) * (m + 1) - (i + p) * (n + 1)
    return coeff, i + j, m + n


def build_annihilation(
    alg: ConformalAlgebra,
    idx_window: int,
    mode_window: int,
    extended: bool = False,
) -> FiniteLieAlgebra:
    """Mode-expand a bracket-family algebra on a finite label window.

    Basis labels are ``L(i,m)`` for ``0 <= i <= idx_window`` and
    ``-1 <= m <= mode_window`` (plus ``T`` when ``extended``).  The table is
    computed from the k-th products via the general mode-bracket formula and
    independently from the closed form; any disagreement raises
    :class:`ClosedFormMismatchError`.  Products whose untruncated target
    falls outside the window are dropped and the offending ordered pairs are
    recorded under ``meta["truncated_pairs"]`` so downstream checks can
    exclude them honestly.
    """
    if alg.kind not in ("block", "bn"):
        raise UnsupportedAlgebraError(
            f"mode expansion needs the one-parameter bracket family, got {alg.kind}"
        )
    if idx_window < 0 or mode_window < -1:
        raise ValueError("windows out of range")
    if idx_window > alg.window:
        raise ValueError(
            f"index window {idx_window} exceeds the algebra window {alg.window}"
        )
    p = alg.param_p
    assert p is not None

    modes = range(-1, mode_window + 1)
    indices = range(idx_window + 1)

    # Route one: the general mode-bracket formula over the k-th products.
    table: dict[tuple[Label, Label], LinComb] = {}
    truncated: set[tuple[Label, Label]] = set()
    prods: dict[tuple[int, int], list[tuple[int, dict[int, Poly]]]] = {}
    for i in indices:
        for j in indices:
            prods[(i, j)] = k_products(alg, i, j) if i + j <= idx_window else []

    for i in indices:
        for m in modes:
            s = m + 1
            for j in indices:
                for n in modes:
                    t = n + 1
                    value: LinComb = {}
                    for k, elem in prods[(i, j)]:
                        if k > s:
                            continue
                        choose = math.comb(s, k)
                        mode_out = s + t - k
                        for gen, coeff_poly in elem.items():
                            for exp, coeff in coeff_poly.terms():
                                d_power = exp[Var.PARTIAL]
                                # (D^t a)_(q) = (-1)^t q(q-1)...(q-t+1) a_(q-t)
                                fall = math.perm(mode_out, d_power)
                                if not fall:
                                    continue
                                shifted = mode_out - d_power - 1
                                contrib = (
                                    choose * coeff * (-1) ** d_power * fall
                                )
                                if shifted > mode_window:
                                    if contrib:
                                        truncated.add((label_L(i, m), label_L(j, n)))
                                    continue
                                key = label_L(gen, shifted)
                                sacc = value.get(key, Fraction(0)) + contrib
                                if sacc:
                                    value[key] = sacc
                                else:
                                    value.pop(key, None)
                    if value:
                        table[(label_L(i, m), label_L(j, n))] = value

    # Route two: the closed form, with identical window truncation.
    closed: dict[tuple[Label, Label], LinComb] = {}
    for i in indices:
        for m in modes:
            for j in indices:
                for n in modes:
                    coeff, ti, tm = _closed_form_target(p, i, m, j, n)
                    if not coeff:
                        continue
                    if ti > idx_window or tm > mode_window:
                        truncated.add((label_L(i, m), label_L(j, n)))
                        continue
                    closed[(label_L(i, m), label_L(j, n))] = {
                        label_L(ti, tm): coeff
                    }

    if table != closed:
        diff_keys = sorted(
            k for k in set(table) | set(closed) if table.get(k) != closed.get(k)
        )
        raise ClosedFormMismatchError(
            f"mode expansion and closed form disagree on pairs {diff_keys[:5]}"
        )

    basis = [label_L(i, m) for i in indices for m in modes]
    if extended:
        for i in indices:
            for m in modes:
                out_mode = m - 1
                coeff = Fraction(-(m + 1))
                if not coeff:
                    continue
                if out_mode < -1:
                    continue
                lab = label_L(i, m)
                table[(T_LABEL, lab)] = {label_L(i, out_mode): coeff}
                table[(lab, T_LABEL)] = {label_L(i, out_mode): -coeff}
        basis.append(T_LABEL)

    coords = {label_L(i, m): (i, m) for i in indices for m in modes}
    return FiniteLieAlgebra(
        name=f"A({alg.name};{idx_window},{mode_window})"
        + ("+T" if extended else ""),
        basis=tuple(basis),
        table=table,
        param_p=p,
        meta={
            "kind": "annihilation",
            "idx_window": idx_window,
            "mode_window": mode_window,
            "extended": extended,
            "coords": coords,
            "truncated_pairs": truncated,
        },
    )


@dataclass
class CentralityReport:
    element: str
    checked: int
    failures: list[tuple[Label, LinComb]] = field(default_factory=list)
    excluded: list[Label] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_central(ext: FiniteLieAlgebra) -> CentralityReport:
    """Verify that ``T - (1/p) L(0,-1)`` commutes with every basis element.

    Basis elements whose brackets against either constituent lost a truncated
    product during construction are excluded rather than falsely certified;
    on the implemented windows both targets stay inside, so the exclusion
    list comes back empty.
    """
    if not ext.meta.get("extended"):
        raise UnsupportedAlgebraError("centrality check needs the extended algebra")
    p = ext.param_p
    assert p is not None
    base = label_L(0, -1)
    z: LinComb = {T_LABEL: Fraction(1), base: Fraction(-1) / p}
    truncated: set[tuple[Label, Label]] = ext.meta.get("truncated_pairs", set())
    report = CentralityReport(element=f"T - (1/{p})*{base}", checked=0)
    for x in ext.basis:
        touched = [(T_LABEL, x), (x, T_LABEL), (base, x), (x, base)]
        if any(pair in truncated for pair in touched):
            report.excluded.append(x)
            continue
        report.checked += 1
        residual = lie_bracket(ext, z, {x: Fraction(1)})
        if residual:
            report.failures.append((x, residual))
    return report


# -- two-parameter window family -------------------------------------------------


def make_block_pq_window(
    p: Fraction | int,
    q: Fraction | int,
    i_range: tuple[int, int],
    m_range: tuple[int, int],
) -> FiniteLieAlgebra:
    """Finite window of the two-parameter mode family.

    ``[L(i,m), L(j,n)] = ((j+p)(m+q) - (i+p)(n+q)) L(i+j, m+n)`` restricted
    to the given inclusive index and mode ranges; out-of-range targets are
    dropped.  At ``q = 1`` this reproduces the annihilation window table on
    matching labels.
    """
    p = Fraction(p)
    q = Fraction(q)
    ilo, ihi = i_range
    mlo, mhi = m_range
    if ilo > ihi or mlo > mhi:
        raise ValueError("empty window")
    table: dict[tuple[Label, Label], LinComb] = {}
    for i in range(ilo, ihi + 1):
        for m in range(mlo, mhi + 1):
            for j in range(ilo, ihi + 1):
                for n in range(mlo, mhi + 1):
                    coeff = (j + p) * (m + q) - (i + p) * (n + q)
                    if not coeff:
                        continue
                    ti, tm = i + j, m + n
                    if not (ilo <= ti <= ihi and mlo <= tm <= mhi):
                        continue
                    table[(label_L(i, m), label_L(j, n))] = {
                        label_L(ti, tm): coeff
                    }
    basis = tuple(
        label_L(i, m)
        for i in range(ilo, ihi + 1)
        for m in range(mlo, mhi + 1)
    )
    return FiniteLieAlgebra(
        name=f"W(p={p},q={q})",
        basis=basis,
        table=table,
        param_p=p,
        meta={"kind": "block_pq", "q": q, "i_range": i_range, "m_range": m_range},
    )


# -- finite subquotients ----------------------------------------------------------


def annihilation_subquotient(p: Fraction | int, idx_cap: int, mode_cap: int) -> FiniteLieAlgebra:
    """The finite-dimensional subquotient on ``J(i,m)``, ``0 <= i <= idx_cap``,
    ``0 <= m <= mode_cap``.

    ``[J(i,m), J(j,n)] = ((j+p)(m+1) - (i+p)(n+1)) J(i+j, m+n)`` when the
    target stays inside the caps, and zero otherwise; the zero rule is part
    of the algebra, not a lossy truncation.
    """
    p = Fraction(p)
    if p == 0:
        raise ValueError("the family parameter p must be nonzero")
    if idx_cap < 0 or mode_cap < 0:
        raise ValueError("caps must be nonnegative")
    table: dict[tuple[Label, Label], LinComb] = {}
    for i in range(idx_cap + 1):
        for m in range(mode_cap + 1):
            for j in range(idx_cap + 1):
                for n in range(mode_cap + 1):
                    coeff, ti, tm = _closed_form_target(p, i, m, j, n)
                    if not coeff:
                        continue
                    if ti > idx_cap or tm > mode_cap:
                        continue
                    table[(label_J(i, m), label_J(j, n))] = {
                        label_J(ti, tm): coeff
                    }
    basis = tuple(
        label_J(i, m)
        for i in range(idx_cap + 1)
        for m in range(mode_cap + 1)
    )
    coords = {
        label_J(i, m): (i, m)
        for i in range(idx_cap + 1)
        for m in range(mode_cap + 1)
    }
    return FiniteLieAlgebra(
        name=f"G(p={p};{idx_cap},{mode_cap})",
        basis=basis,
        table=table,
        param_p=p,
        meta={
            "kind": "subquotient",
            "idx_cap": idx_cap,
            "mode_cap": mode_cap,
            "coords": coords,
        },
    )


# -- Lie axiom checker --------------------------------------------------------------


@dataclass
class LieReport:
    algebra: str
    pairs_checked: int = 0
    triples_checked: int = 0
    triples_excluded: int = 0
    antisymmetry_failures: list[tuple[Label, Label, LinComb]] = field(default_factory=list)
    jacobi_failures: list[tuple[Label, Label, Label, LinComb]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_failures and not self.jacobi_failures


def check_lie(alg: FiniteLieAlgebra) -> LieReport:
    """Verify antisymmetry on ordered pairs and Jacobi on basis triples.

    Antisymmetry is checked tablewise first (including the diagonal); once it
    holds, Jacobi over unordered triples with repetition covers all ordered
    triples by multilinearity.

    Algebras built by lossy window truncation carry the set of ordered pairs
    whose products were dropped (``meta["truncated_pairs"]``).  A Jacobi
    triple whose evaluation consults such a pair computes with mutilated
    data, so it is excluded and counted instead of reported as a failure;
    every interior triple is still checked exactly.  Algebras with an
    intrinsic zero rule carry no such set and are checked in full.

    The triple walk runs on :func:`_integer_table`.  Its residuals are the
    exact ones times a fixed nonzero integer, so they vanish on the same
    triples; a triple that fails is evaluated again with the exact table,
    and the report carries that exact residual.
    """
    report = LieReport(algebra=alg.name)
    basis, table = alg.basis, alg.table
    n = len(basis)
    for a in range(n):
        for b in range(a, n):
            x, y = basis[a], basis[b]
            report.pairs_checked += 1
            residual = comb_add(table.get((x, y), {}), table.get((y, x), {}))
            if residual:
                report.antisymmetry_failures.append((x, y, residual))

    index, tab = _integer_table(alg)
    truncated: set[tuple[Label, Label]] = alg.meta.get("truncated_pairs", set())
    cut: list[list[bool]] | None = None
    if truncated:
        cut = [[False] * len(index) for _ in index]
        for x, y in truncated:
            if x in index and y in index:
                cut[index[x]][index[y]] = True

    checked = excluded = 0
    for a in range(n):
        tab_a = tab[a]
        for b in range(a, n):
            tab_b = tab[b]
            ab = tab_a[b]
            for c in range(b, n):
                tab_c = tab[c]
                bc, ca = tab_b[c], tab_c[a]
                # The triple consults [b,c], [c,a], [a,b] and the brackets
                # of a, b, c with their targets.
                if cut is not None and (
                    cut[b][c] or cut[c][a] or cut[a][b]
                    or any(cut[a][t] for t in bc)
                    or any(cut[b][t] for t in ca)
                    or any(cut[c][t] for t in ab)
                ):
                    excluded += 1
                    continue
                checked += 1
                if not (bc or ca or ab):
                    continue
                total: dict[int, int] = {}
                for outer, inner in ((tab_a, bc), (tab_b, ca), (tab_c, ab)):
                    for t, v in inner.items():
                        for u, w in outer[t].items():
                            total[u] = total.get(u, 0) + v * w
                if any(total.values()):
                    x, y, z = basis[a], basis[b], basis[c]
                    report.jacobi_failures.append((x, y, z, _jacobi_residual(alg, x, y, z)))
    report.triples_checked = checked
    report.triples_excluded = excluded
    return report


def _integer_table(alg: FiniteLieAlgebra) -> tuple[dict[Label, int], list[list[dict[int, int]]]]:
    """The table on integer label indices with integer coefficients.

    Returns the label index -- the basis first, then any other label the
    table names -- and ``tab[i][j] = {k: c}`` for ``[e_i, e_j] = sum c e_k``.
    Every coefficient is multiplied by the lcm of all their denominators;
    scaling every bracket by one nonzero constant preserves antisymmetry and
    Jacobi.  Explicit zero coefficients are kept, so ``tab[i][j]`` names the
    same targets as the table entry.
    """
    index = dict(alg.positions)
    for (x, y), value in alg.table.items():
        for label in (x, y, *value):
            index.setdefault(label, len(index))
    scale = math.lcm(*(c.denominator for value in alg.table.values() for c in value.values()))
    empty: dict[int, int] = {}
    tab = [[empty] * len(index) for _ in index]
    for (x, y), value in alg.table.items():
        tab[index[x]][index[y]] = {index[t]: int(c * scale) for t, c in value.items()}
    return index, tab


def _jacobi_residual(alg: FiniteLieAlgebra, x: Label, y: Label, z: Label) -> LinComb:
    """``[x,[y,z]] + [y,[z,x]] + [z,[x,y]]`` in exact arithmetic."""
    total = lie_bracket(alg, {x: Fraction(1)}, alg.bracket_basis(y, z))
    total = comb_add(total, lie_bracket(alg, {y: Fraction(1)}, alg.bracket_basis(z, x)))
    return comb_add(total, lie_bracket(alg, {z: Fraction(1)}, alg.bracket_basis(x, y)))


# -- resonance analysis ---------------------------------------------------------------


class ResonanceCase(str, enum.Enum):
    P_NOT_POSITIVE_RATIONAL = "P_NOT_POSITIVE_RATIONAL"
    NO_RESONANCE = "NO_RESONANCE"
    RESONANCE_BELOW_INDEX_CAP = "RESONANCE_BELOW_INDEX_CAP"
    RESONANCE_BELOW_MODE_CAP = "RESONANCE_BELOW_MODE_CAP"
    RESONANCE_AT_CORNER = "RESONANCE_AT_CORNER"


IDEAL_SCALING_COMPLEMENT = "scaling_complement"
IDEAL_TOP_INDEX_SLICE = "top_index_slice"
IDEAL_TOP_MODE_SLICE = "top_mode_slice"
IDEAL_CORNER_HOOK = "corner_hook"


@dataclass
class ResonanceReport:
    p: Fraction
    idx_cap: int
    mode_cap: int
    resonances: list[tuple[int, int]]
    top_resonance: tuple[int, int] | None
    case: ResonanceCase
    ideal_name: str
    ideal: tuple[Label, ...]
    corner_coefficient: Fraction | None = None
    corner_internal_brackets: list[tuple[Label, Label, LinComb]] = field(
        default_factory=list
    )


def resonance_analysis(G: FiniteLieAlgebra) -> ResonanceReport:
    """Classify the zero-eigenvalue locus of ``ad J(0,0)`` and name the ideal.

    The eigenvalue on ``J(i,m)`` is ``i - p m``.  Nonzero resonances (other
    than the diagonal element itself) pick out one of four configurations;
    each names a distinguished ideal:

    * no resonance, or ``p`` not a positive rational: the span of everything
      except ``J(0,0)`` (``scaling_complement``), a nilpotent ideal;
    * top resonance index below the index cap: the top index slice, abelian;
    * top resonance index at the cap with mode below the mode cap: the top
      mode slice, abelian;
    * top resonance at the corner ``(idx_cap, mode_cap)``: the boundary hook
      (last index row plus last mode column), nilpotent of class two.  Its
      complement of the corner element is almost abelian; the report lists
      every nonzero internal bracket of that complement rather than assuming
      there is only one, together with the coefficient on the distinguished
      pair.
    """
    if G.meta.get("kind") != "subquotient":
        raise UnsupportedAlgebraError("resonance analysis expects a subquotient")
    p = G.param_p
    assert p is not None
    idx_cap = G.meta["idx_cap"]
    mode_cap = G.meta["mode_cap"]
    resonances = [
        (i, m)
        for i in range(idx_cap + 1)
        for m in range(mode_cap + 1)
        if (i, m) != (0, 0) and Fraction(i) == p * m
    ]
    resonances.sort()

    def span_complement() -> tuple[Label, ...]:
        return tuple(lab for lab in G.basis if lab != label_J(0, 0))

    if p <= 0:
        case = ResonanceCase.P_NOT_POSITIVE_RATIONAL
        return ResonanceReport(
            p, idx_cap, mode_cap, resonances, None, case,
            IDEAL_SCALING_COMPLEMENT, span_complement(),
        )
    if not resonances:
        return ResonanceReport(
            p, idx_cap, mode_cap, resonances, None,
            ResonanceCase.NO_RESONANCE,
            IDEAL_SCALING_COMPLEMENT, span_complement(),
        )

    i0, m0 = max(resonances)
    if i0 < idx_cap:
        ideal = tuple(label_J(idx_cap, m) for m in range(mode_cap + 1))
        return ResonanceReport(
            p, idx_cap, mode_cap, resonances, (i0, m0),
            ResonanceCase.RESONANCE_BELOW_INDEX_CAP,
            IDEAL_TOP_INDEX_SLICE, ideal,
        )
    if m0 < mode_cap:
        ideal = tuple(label_J(i, mode_cap) for i in range(idx_cap + 1))
        return ResonanceReport(
            p, idx_cap, mode_cap, resonances, (i0, m0),
            ResonanceCase.RESONANCE_BELOW_MODE_CAP,
            IDEAL_TOP_MODE_SLICE, ideal,
        )

    hook = [label_J(idx_cap, m) for m in range(mode_cap + 1)]
    hook += [label_J(i, mode_cap) for i in range(idx_cap)]
    corner = label_J(i0, m0)
    inside = [lab for lab in hook if lab != corner]
    internal: list[tuple[Label, Label, LinComb]] = []
    inside_set = set(inside)
    for a_idx, x in enumerate(inside):
        for y in inside[a_idx:]:
            value = G.bracket_basis(x, y)
            if value:
                internal.append((x, y, value))
    coeff = G.bracket_basis(label_J(i0, 0), label_J(0, m0)).get(corner, Fraction(0))
    return ResonanceReport(
        p, idx_cap, mode_cap, resonances, (i0, m0),
        ResonanceCase.RESONANCE_AT_CORNER,
        IDEAL_CORNER_HOOK, tuple(hook),
        corner_coefficient=coeff,
        corner_internal_brackets=internal,
    )


# -- ideals, nilpotency, characters ------------------------------------------------------


@dataclass
class IdealReport:
    span: tuple[Label, ...]
    is_ideal: bool
    ideal_witness: tuple[Label, Label, LinComb] | None
    abelian: bool
    nilpotent: bool
    nilpotency_class: int | None
    series_dims: list[int]


def ideal_and_nilpotency(alg: FiniteLieAlgebra, span: Sequence[Label]) -> IdealReport:
    """Check ideal-ness of a coordinate span and compute its central series.

    The span is given by basis labels.  Ideal-ness is verified witness by
    witness: ``[g, s]`` for every basis element ``g`` and span label ``s``
    must be supported inside the span.  The lower central series is then
    computed with exact rank computations until it stabilises or dies.
    """
    span_set = set(span)
    unknown = span_set - set(alg.basis)
    if unknown:
        raise ValueError(f"labels not in the basis: {sorted(unknown)}")
    is_ideal = True
    witness = None
    for g in alg.basis:
        for s in span:
            value = alg.bracket_basis(g, s)
            if any(target not in span_set for target in value):
                is_ideal = False
                witness = (g, s, value)
                break
        if not is_ideal:
            break

    # Lower central series of the span, S^{t+1} = [S, S^t], as sparse rows
    # over the basis indices.
    current = linalg.Echelon({alg.index(lab): Fraction(1)} for lab in span)
    dims = [current.rank]
    abelian: bool | None = None
    nilpotent = False
    nil_class: int | None = None
    for step in range(1, len(alg.basis) + 2):
        nxt = linalg.Echelon()
        for s in span:
            for row in current.pivot_rows.values():
                comb = {alg.basis[col]: c for col, c in row.items()}
                out = lie_bracket(alg, {s: Fraction(1)}, comb)
                nxt.add({alg.index(lab): c for lab, c in out.items()})
        if abelian is None:
            abelian = not nxt.rank
        if not nxt.rank:
            nilpotent = True
            nil_class = step
            break
        dims.append(nxt.rank)
        same_span = nxt.rank == current.rank and not any(
            current.reduce(row) for row in nxt.pivot_rows.values()
        )
        if same_span:
            # Series stalled at a nonzero term.
            break
        current = nxt
    if not span:
        abelian = True
        nilpotent = True
        nil_class = 0
    return IdealReport(
        span=tuple(span),
        is_ideal=is_ideal,
        ideal_witness=witness,
        abelian=bool(abelian),
        nilpotent=nilpotent,
        nilpotency_class=nil_class,
        series_dims=dims,
    )


@dataclass
class TraceVerdict:
    consistent: bool
    forced_zero: bool
    commutator_trace: Fraction
    hypothesis_trace: Fraction


def trace_certificate(A: RatMatrix, B: RatMatrix, b: Fraction | int,
                      c: Fraction | int) -> TraceVerdict:
    """Compare ``trace(AB - BA)`` with ``trace(b c I)``.

    If a pair of square matrices represented two elements whose bracket is
    ``b`` times a third element represented by ``c I``, the traces would have
    to agree; since a commutator is traceless, consistency forces ``c = 0``
    whenever ``b != 0``.  ``b = 0`` is rejected because the certificate then
    says nothing.
    """
    b = Fraction(b)
    c = Fraction(c)
    if b == 0:
        raise ValueError("the bracket coefficient b must be nonzero")
    if A.nrows != A.ncols or B.nrows != B.ncols or A.nrows != B.nrows:
        raise ValueError("A and B must be square of the same size")
    commutator_trace = (A * B - B * A).trace()
    hypothesis_trace = b * c * A.nrows
    consistent = commutator_trace == hypothesis_trace
    return TraceVerdict(
        consistent=consistent,
        forced_zero=not consistent,
        commutator_trace=commutator_trace,
        hypothesis_trace=hypothesis_trace,
    )


@dataclass
class CharacterReport:
    dimension: int
    derived_rank: int
    character_dim: int
    characters: list[dict[Label, Fraction]]
    verified: bool


def characters(alg: FiniteLieAlgebra) -> CharacterReport:
    """All linear functionals vanishing on the derived subalgebra.

    Computed as the exact nullspace of the matrix whose rows are the
    nonzero brackets ``[g, h]`` of the table, from one elimination that also
    gives the rank of the derived subalgebra; every returned functional is
    then re-applied to every bracket as a final verification.
    """
    echelon = linalg.Echelon(
        {alg.index(lab): c for lab, c in value.items()} for value in alg.table.values()
    )
    chars = [
        {alg.basis[col]: c for col, c in vec.items()}
        for vec in echelon.nullspace(len(alg.basis))
    ]
    # Pairs absent from the table bracket to zero, which every functional
    # annihilates.
    verified = not any(
        sum(phi.get(lab, 0) * co for lab, co in value.items())
        for phi in chars
        for value in alg.table.values()
    )
    derived_rank = echelon.rank
    return CharacterReport(
        dimension=len(alg.basis),
        derived_rank=derived_rank,
        character_dim=len(alg.basis) - derived_rank,
        characters=chars,
        verified=verified,
    )
