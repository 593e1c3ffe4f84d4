"""Finite windows of annihilation algebras and their subquotients.

Expanding a conformal algebra into modes turns each generator ``L_i`` into a
family ``L_i{(s)}`` of ordinary Lie algebra elements whose brackets come from
the k-th products:

    [a_(s), b_(t)] = sum_k  C(s, k) (a_(k) b)_(s + t - k),
    (D a)_(t) = -t a_(t-1).

The bracket is ``[a_x b] = sum_k x^k / k! a_(k) b``, so a term ``c D^d x^k``
of an entry is ``k! c D^d`` in its k-th product; only the mode expansion of
:func:`build_annihilation` reads the products, and applies that ``k!``.

For the one-parameter bracket family the shifted labels ``L(i, m)`` with
``m = s - 1 >= -1`` close into the table

    [L(i,m), L(j,n)] = ((j+p)(m+1) - (i+p)(n+1)) L(i+j, m+n),

written once, in ``_closed_form``: it walks indices ``0..idx_cap`` and modes
``mode_lo..mode_cap`` in integer coordinates ``(i, m)`` and yields each
nonzero bracket with its target, or with ``None`` where the target escapes
the window.  Every bracket is a multiple of one basis element, so a table
stores one ``(target, coefficient)`` per pair, and each table is built once,
on labels, as the stream comes.

:func:`build_annihilation` writes each bracket of the stream either into the
table or, where it escapes, into the one set of truncated label pairs; then
it recomputes every pair by the general mode expansion and compares it with
that table, and a disagreement raises :class:`ClosedFormMismatchError`
naming the pairs.  The extended variant adjoins a translation generator
``T`` with ``[T, L(i,m)] = -(m+1) L(i,m-1)``; ``T - (1/p) L(0,-1)`` is then
central, which :func:`check_central` verifies bracket by bracket.
:func:`annihilation_subquotient` keeps the in-window brackets of the same
stream on modes ``0..mode_cap`` and records no escaping pair: there the zero
rule is part of the algebra, not a lossy truncation.  The resonance analysis
classifies the eigenvalue-zero locus of the diagonal element ``J(0,0)`` and
names the distinguished ideal each configuration produces.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import cached_property
from typing import AbstractSet, Any, Iterator, NamedTuple, Sequence

from .conformal import ConformalAlgebra, UnsupportedAlgebraError, family_parameter
from .poly import add_terms, elide, render_combo

Label = str

#: Linear combination of basis labels with rational coefficients.
LinComb = dict[Label, Fraction]

#: One table entry: the bracket is ``coefficient * target``.
Bracket = tuple[Label, Fraction]


class ClosedFormMismatchError(RuntimeError):
    """The mode expansion of ``algebra`` disagreed with the closed form on ``pairs``."""

    def __init__(self, algebra: str, pairs: list[tuple[Label, Label]]) -> None:
        super().__init__(f"{algebra}: mode expansion and closed form disagree on {pairs[:5]}")
        self.algebra, self.pairs = algebra, pairs


def label_L(i: int, m: int) -> Label:
    return f"L({i},{m})"


def label_J(i: int, m: int) -> Label:
    return f"J({i},{m})"


T_LABEL: Label = "T"

#: The largest basis a mode window or subquotient may have.  ``check_lie``
#: walks ``n**3 / 6`` triples, and the table and its truncated pairs hold up
#: to ``n**2`` pairs, one copy of each; ``G(1/2; 15, 31)``, with ``n = 512``,
#: took 6.2-8.9 s over five launches, at 38 MB peak RSS, on a shared 2-vCPU
#: Intel Xeon VM with Python 3.11.7.
MAX_BASIS_SIZE = 512


def _check_basis_size(title: str, n: int) -> None:
    if n > MAX_BASIS_SIZE:
        raise ValueError(
            f"{elide(title)} has {n} basis elements, more than the limit {MAX_BASIS_SIZE}")


class FiniteLieAlgebra:
    """A finite-dimensional Lie algebra whose brackets each have one target.

    ``table`` maps each ordered pair with a nonzero bracket to one
    ``(target, coefficient)``; missing pairs bracket to zero.  Every label
    it names, and every label of ``truncated_pairs``, lies in ``basis``, no
    coefficient is zero, and no label contains ``|``; construction refuses
    anything else with a ``ValueError``.  Antisymmetry must hold tablewise
    and is rechecked by :func:`check_lie` rather than assumed.

    ``coords`` maps each mode label to its ``(index, mode)``.
    ``truncated_pairs`` holds the ordered pairs whose product lost a term to
    window truncation; an algebra whose zero rule is part of its definition
    has none.
    """

    def __init__(
        self,
        name: str,
        basis: tuple[Label, ...],
        table: dict[tuple[Label, Label], Bracket],
        param_p: Fraction | None,
        coords: dict[Label, tuple[int, int]] | None = None,
        truncated_pairs: AbstractSet[tuple[Label, Label]] = frozenset(),
    ) -> None:
        self.name = name
        self.basis = basis
        self.table = table
        self.param_p = param_p
        self.coords = {} if coords is None else coords
        self.truncated_pairs = truncated_pairs
        known = self.positions
        if any("|" in label for label in known):
            raise ValueError("a basis label contains '|', which the table hash puts between "
                             "the labels of a pair")
        for (x, y), (target, coeff) in self.table.items():
            if not (x in known and y in known and target in known and coeff):
                raise ValueError(f"table entry [{x}, {y}] = {coeff} {target} is not a nonzero "
                                 "multiple of a basis label on a pair of basis labels")
        for x, y in self.truncated_pairs:
            if not (x in known and y in known):
                raise ValueError(f"truncated pair ({x}, {y}) names a label outside the basis")

    @cached_property
    def positions(self) -> dict[Label, int]:
        """Basis label -> its index in ``basis``."""
        return {label: i for i, label in enumerate(self.basis)}

    def bracket_basis(self, x: Label, y: Label) -> LinComb:
        entry = self.table.get((x, y))
        return {entry[0]: entry[1]} if entry else {}


# -- the closed form ------------------------------------------------------------

Coord = tuple[int, int]


def _closed_form(
    p: Fraction, idx_cap: int, mode_lo: int, mode_cap: int
) -> Iterator[tuple[Coord, Coord, Coord | None, Fraction]]:
    """Every nonzero closed-form bracket on indices ``0..idx_cap`` and modes
    ``mode_lo..mode_cap``, in row-major order of the pair.

    ``[L(i,m), L(j,n)] = ((j+p)(m+1) - (i+p)(n+1)) L(i+j, m+n)``.  Yields
    ``(x, y, target, c)`` on coordinates for ``[x, y] = c target``, with
    ``target`` ``None`` where it escapes the window.  Equal coefficients are
    one shared ``Fraction``.
    """
    a, b = p.numerator, p.denominator
    cells = [(i, m) for i in range(idx_cap + 1) for m in range(mode_lo, mode_cap + 1)]
    shared: dict[int, Fraction] = {}
    for x in cells:
        i, m = x
        for y in cells:
            j, n = y
            # b times the coefficient, in integers.
            num = (j * b + a) * (m + 1) - (i * b + a) * (n + 1)
            if not num:
                continue
            c = shared.get(num) or shared.setdefault(num, Fraction(num, b))
            if i + j > idx_cap or m + n > mode_cap:
                yield x, y, None, c
            else:
                yield x, y, (i + j, m + n), c


# -- the annihilation window ----------------------------------------------------


def build_annihilation(
    alg: ConformalAlgebra,
    idx_window: int,
    mode_window: int,
    extended: bool = False,
) -> FiniteLieAlgebra:
    """Mode-expand a bracket-family algebra on a finite label window.

    ``p`` is :func:`~confal.conformal.family_parameter` of ``alg``, and the
    cross-check below holds the rest of the table to the closed form at ``p``.

    Basis labels are ``L(i,m)`` for ``0 <= i <= idx_window`` and
    ``-1 <= m <= mode_window`` (plus ``T`` when ``extended``).  The table is
    written from the closed form, then recomputed pair by pair from the k-th
    products via the general mode-bracket formula and compared; any
    disagreement raises :class:`ClosedFormMismatchError` with the
    disagreeing pairs.  Products whose untruncated target falls outside the
    window are dropped.  The ordered pairs either route dropped something
    from are recorded in ``truncated_pairs``, so downstream checks can
    exclude them honestly.  A window of more than :data:`MAX_BASIS_SIZE`
    labels raises ``ValueError`` before any work.
    """
    p = family_parameter(alg)
    if idx_window < 0 or mode_window < -1:
        raise ValueError(f"index window {elide(str(idx_window))} and mode window "
                         f"{elide(str(mode_window))} are out of range: "
                         "need index >= 0 and mode >= -1")
    if idx_window > alg.window:
        raise ValueError(
            f"index window {idx_window} exceeds the algebra window {alg.window}"
        )
    title = f"A({alg.name};{idx_window},{mode_window})" + ("+T" if extended else "")
    _check_basis_size(title, (idx_window + 1) * (mode_window + 2) + extended)

    cells = [(i, m) for i in range(idx_window + 1) for m in range(-1, mode_window + 1)]
    coords = {label_L(*c): c for c in cells}
    name = {c: lab for lab, c in coords.items()}
    table: dict[tuple[Label, Label], Bracket] = {}
    truncated: set[tuple[Label, Label]] = set()
    for x, y, target, c in _closed_form(p, idx_window, -1, mode_window):
        if target is None:
            truncated.add((name[x], name[y]))
        else:
            table[(name[x], name[y])] = (name[target], c)

    # Route one, the independent cross-check: the general mode-bracket formula
    # over every term (k, generator, D power, signed coefficient) of each
    # pair's k-th products, in integers: every coefficient of either route is
    # multiplied by ``scale``, the lcm of their denominators.  A term
    # ``c D^d x^k`` of an entry is ``k! c D^d`` in its k-th product.  A pair
    # of which any term lands above the mode window joins ``truncated``, even
    # where its terms sum to zero.  Each pair's value is compared with the
    # table as soon as it is summed.
    indices = range(idx_window + 1)
    terms = {
        (i, j): [
            (k, gen, d, coeff * math.factorial(k) * (-1) ** d)
            for gen, poly in alg.structure_of(i, j).items()
            for (d, k, _), coeff in poly.terms()
        ]
        for i in indices
        for j in indices
        if i + j <= idx_window
    }
    scale = math.lcm(*(c.denominator for pair_terms in terms.values() for *_, c in pair_terms),
                     *(c.denominator for _, c in table.values()))
    terms = {ij: [(k, gen, d, int(c * scale)) for k, gen, d, c in pair_terms]
             for ij, pair_terms in terms.items()}
    mismatched: list[tuple[Label, Label]] = []
    for x in cells:
        i, s = x[0], x[1] + 1
        for y in cells:
            t = y[1] + 1
            pair = (name[x], name[y])
            value: dict[Coord, int] = {}
            for k, gen, d_power, coeff in terms.get((i, y[0]), ()):
                if k > s:
                    continue
                mode_out = s + t - k
                # (D^d a)_(q) = (-1)^d q(q-1)...(q-d+1) a_(q-d)
                fall = math.perm(mode_out, d_power)
                if not fall:
                    continue
                shifted = mode_out - d_power - 1
                if shifted > mode_window:
                    truncated.add(pair)
                    continue
                key = (gen, shifted)
                value[key] = value.get(key, 0) + math.comb(s, k) * fall * coeff
            entry = table.get(pair)
            expected = {coords[entry[0]]: int(entry[1] * scale)} if entry else {}
            if {key: v for key, v in value.items() if v} != expected:
                mismatched.append(pair)
    if mismatched:
        raise ClosedFormMismatchError(title, sorted(mismatched))

    basis = list(coords)
    if extended:
        # [T, L(i,m)] = -(m+1) L(i,m-1); the mode -1 elements commute with T.
        for lab, (i, m) in coords.items():
            if m >= 0:
                table[(T_LABEL, lab)] = (name[(i, m - 1)], Fraction(-(m + 1)))
                table[(lab, T_LABEL)] = (name[(i, m - 1)], Fraction(m + 1))
        basis.append(T_LABEL)

    return FiniteLieAlgebra(
        name=title,
        basis=tuple(basis),
        table=table,
        param_p=p,
        coords=coords,
        truncated_pairs=truncated,
    )


class CentralityReport(NamedTuple):
    element: str
    checked: int
    failures: list[tuple[Label, LinComb]]
    excluded: list[Label]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_payload(self) -> dict[str, Any]:
        return {
            "element": self.element,
            "checked": self.checked,
            "excluded": self.excluded,
            "failures": [
                {"against": label, "residual": render_combo(r)} for label, r in self.failures
            ],
        }


def check_central(ext: FiniteLieAlgebra) -> CentralityReport:
    """Verify that ``T - (1/p) L(0,-1)`` commutes with every basis element.

    Basis elements whose brackets against either constituent lost a truncated
    product during construction are excluded rather than falsely certified;
    on the implemented windows both targets stay inside, so the exclusion
    list comes back empty.
    """
    if T_LABEL not in ext.positions:
        raise UnsupportedAlgebraError("centrality check needs the extended algebra")
    p = ext.param_p
    if p is None:
        raise UnsupportedAlgebraError("centrality check needs the family parameter p, "
                                      f"and {ext.name} has none")
    base = label_L(0, -1)
    checked = 0
    failures: list[tuple[Label, LinComb]] = []
    excluded: list[Label] = []
    for x in ext.basis:
        touched = [(T_LABEL, x), (x, T_LABEL), (base, x), (x, base)]
        if any(pair in ext.truncated_pairs for pair in touched):
            excluded.append(x)
            continue
        checked += 1
        # [T, x] - (1/p) [L(0,-1), x], from the two table entries.
        residual = add_terms({}, (
            (entry[0], entry[1] * scale)
            for y, scale in ((T_LABEL, Fraction(1)), (base, -1 / p))
            if (entry := ext.table.get((y, x)))
        ))
        if residual:
            failures.append((x, residual))
    return CentralityReport(f"T - (1/{p})*{base}", checked, failures, excluded)


# -- finite subquotients ----------------------------------------------------------


def annihilation_subquotient(p: Fraction | int, idx_cap: int, mode_cap: int) -> FiniteLieAlgebra:
    """The finite-dimensional subquotient on ``J(i,m)``, ``0 <= i <= idx_cap``,
    ``0 <= m <= mode_cap``.

    The closed-form bracket when the target stays inside the caps, and zero
    otherwise; the zero rule is part of the algebra, not a lossy truncation,
    so the escaping pairs are not recorded.  Caps giving more than
    :data:`MAX_BASIS_SIZE` labels raise ``ValueError``.
    """
    p = Fraction(p)
    if p == 0:
        raise ValueError("the family parameter p must be nonzero")
    if idx_cap < 0 or mode_cap < 0:
        raise ValueError(f"caps must be nonnegative, got index cap {elide(str(idx_cap))} "
                         f"and mode cap {elide(str(mode_cap))}")
    title = f"G(p={p};{idx_cap},{mode_cap})"
    _check_basis_size(title, (idx_cap + 1) * (mode_cap + 1))
    coords = {label_J(i, m): (i, m) for i in range(idx_cap + 1) for m in range(mode_cap + 1)}
    name = {c: lab for lab, c in coords.items()}
    return FiniteLieAlgebra(
        name=title,
        basis=tuple(coords),
        table={(name[x], name[y]): (name[target], c)
               for x, y, target, c in _closed_form(p, idx_cap, 0, mode_cap) if target},
        param_p=p,
        coords=coords,
    )


# -- Lie axiom checker --------------------------------------------------------------


class LieReport(NamedTuple):
    algebra: str
    pairs_checked: int
    triples_checked: int
    triples_excluded: int
    antisymmetry_failures: list[tuple[Label, Label, LinComb]]
    jacobi_failures: list[tuple[Label, Label, Label, LinComb]]

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_failures and not self.jacobi_failures

    def to_payload(self) -> dict[str, Any]:
        return {
            "pairs_checked": self.pairs_checked,
            "triples_checked": self.triples_checked,
            "triples_excluded": self.triples_excluded,
            "antisymmetry_failures": [
                {"pair": [x, y], "residual": render_combo(r)}
                for x, y, r in self.antisymmetry_failures
            ],
            "jacobi_failures": [
                {"triple": [x, y, z], "residual": render_combo(r)}
                for x, y, z, r in self.jacobi_failures
            ],
        }


def check_lie(alg: FiniteLieAlgebra) -> LieReport:
    """Verify antisymmetry on ordered pairs and Jacobi on basis triples.

    Antisymmetry is checked tablewise first (including the diagonal); once it
    holds, Jacobi over unordered triples with repetition covers all ordered
    triples by multilinearity.

    Algebras built by lossy window truncation carry the set of ordered pairs
    whose products were dropped (``truncated_pairs``).  A Jacobi
    triple whose evaluation consults such a pair computes with mutilated
    data, so it is excluded and counted instead of reported as a failure;
    every interior triple is still checked exactly.  Algebras with an
    intrinsic zero rule carry no such set and are checked in full.

    The triple walk runs on basis indices with every coefficient multiplied
    by ``scale``, the lcm of their denominators: ``tab[a][b]`` is ``(target
    index, scaled coefficient)`` or ``None``, so a triple costs at most three
    integer products.  Each product is the exact term times ``scale**2``; a
    failing triple's exact residual is its three terms divided by
    ``scale**2``, summed in the order ``[a,[b,c]]``, ``[b,[c,a]]``,
    ``[c,[a,b]]``.
    """
    basis, pos = alg.basis, alg.positions
    n = len(basis)
    antisymmetry_failures = [
        (x, y, residual)
        for a, x in enumerate(basis)
        for y in basis[a:]
        if (residual := add_terms(alg.bracket_basis(x, y), alg.bracket_basis(y, x).items()))
    ]

    scale = math.lcm(*(c.denominator for _, c in alg.table.values()))
    tab: list[list[tuple[int, int] | None]] = [[None] * n for _ in basis]
    for (x, y), (target, c) in alg.table.items():
        tab[pos[x]][pos[y]] = (pos[target], int(c * scale))
    cut: list[list[bool]] | None = None
    if alg.truncated_pairs:
        cut = [[False] * n for _ in basis]
        for x, y in alg.truncated_pairs:
            cut[pos[x]][pos[y]] = True

    checked = excluded = 0
    jacobi_failures: list[tuple[Label, Label, Label, LinComb]] = []
    for a in range(n):
        tab_a = tab[a]
        for b in range(a, n):
            tab_b = tab[b]
            ab = tab_a[b]
            if cut is not None and cut[a][b]:
                # Every triple (a, b, c) consults [a,b].
                excluded += n - b
                continue
            for c in range(b, n):
                tab_c = tab[c]
                bc, ca = tab_b[c], tab_c[a]
                # The triple consults [b,c], [c,a], [a,b] and the brackets
                # of a, b, c with their targets.
                if cut is not None and (
                    cut[b][c] or cut[c][a]
                    or (bc and cut[a][bc[0]])
                    or (ca and cut[b][ca[0]])
                    or (ab and cut[c][ab[0]])
                ):
                    excluded += 1
                    continue
                checked += 1
                u = tab_a[bc[0]] if bc else None
                v = tab_b[ca[0]] if ca else None
                w = tab_c[ab[0]] if ab else None
                if not (u or v or w):
                    continue
                terms = [(outer[0], inner[1] * outer[1])
                         for inner, outer in ((bc, u), (ca, v), (ab, w)) if outer]
                if add_terms({}, terms):
                    jacobi_failures.append((basis[a], basis[b], basis[c], add_terms(
                        {}, ((basis[t], Fraction(r, scale * scale)) for t, r in terms))))
    return LieReport(alg.name, n * (n + 1) // 2, checked, excluded,
                     antisymmetry_failures, jacobi_failures)


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


class ResonanceReport(NamedTuple):
    resonances: list[tuple[int, int]]
    top_resonance: tuple[int, int] | None
    case: ResonanceCase
    ideal_name: str
    ideal: tuple[Label, ...]
    corner_coefficient: Fraction | None
    corner_internal_brackets: list[tuple[Label, Label, LinComb]]

    def to_payload(self) -> dict[str, Any]:
        corner = self.corner_coefficient
        return {
            "case": self.case.value,
            "resonances": [list(r) for r in self.resonances],
            "top_resonance": list(self.top_resonance) if self.top_resonance else None,
            "ideal_name": self.ideal_name,
            "ideal": list(self.ideal),
            "corner_coefficient": str(corner) if corner is not None else None,
            "corner_internal_brackets": [
                {"pair": [x, y], "value": render_combo(v)}
                for x, y, v in self.corner_internal_brackets
            ],
        }


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
    if label_J(0, 0) not in G.coords:
        raise UnsupportedAlgebraError("resonance analysis expects a subquotient")
    p = G.param_p
    if p is None:
        raise UnsupportedAlgebraError("resonance analysis needs the family parameter p, "
                                      f"and {G.name} has none")
    # The coordinates fill the rectangle from (0, 0), so their largest is the
    # corner (idx_cap, mode_cap).
    idx_cap, mode_cap = max(G.coords.values())
    resonances = [
        (i, m)
        for i in range(idx_cap + 1)
        for m in range(mode_cap + 1)
        if (i, m) != (0, 0) and Fraction(i) == p * m
    ]
    top = max(resonances, default=None)
    index_slice = tuple(label_J(idx_cap, m) for m in range(mode_cap + 1))
    mode_slice = tuple(label_J(i, mode_cap) for i in range(idx_cap + 1))
    coeff: Fraction | None = None
    internal: list[tuple[Label, Label, LinComb]] = []
    if top is None:
        case = (ResonanceCase.P_NOT_POSITIVE_RATIONAL if p <= 0
                else ResonanceCase.NO_RESONANCE)
        name = IDEAL_SCALING_COMPLEMENT
        ideal = tuple(lab for lab in G.basis if lab != label_J(0, 0))
    elif top[0] < idx_cap:
        case, name, ideal = (ResonanceCase.RESONANCE_BELOW_INDEX_CAP,
                             IDEAL_TOP_INDEX_SLICE, index_slice)
    elif top[1] < mode_cap:
        case, name, ideal = (ResonanceCase.RESONANCE_BELOW_MODE_CAP,
                             IDEAL_TOP_MODE_SLICE, mode_slice)
    else:
        # The hook: the index slice, then the mode slice without the corner.
        case, name, ideal = (ResonanceCase.RESONANCE_AT_CORNER,
                             IDEAL_CORNER_HOOK, index_slice + mode_slice[:-1])
        i0, m0 = top
        corner = label_J(i0, m0)
        inside = [lab for lab in ideal if lab != corner]
        internal = [(x, y, value) for a, x in enumerate(inside) for y in inside[a:]
                    if (value := G.bracket_basis(x, y))]
        coeff = G.bracket_basis(label_J(i0, 0), label_J(0, m0)).get(corner, Fraction(0))
    return ResonanceReport(resonances, top, case, name, ideal, coeff, internal)


# -- ideals, nilpotency, characters ------------------------------------------------------


class IdealReport(NamedTuple):
    span: tuple[Label, ...]
    is_ideal: bool
    ideal_witness: tuple[Label, Label, LinComb] | None
    abelian: bool
    nilpotent: bool
    nilpotency_class: int | None
    series_dims: list[int]

    def to_payload(self, ideal_name: str) -> dict[str, Any]:
        """The structure of the span, which the caller names ``ideal_name``."""
        return {
            "ideal_name": ideal_name,
            "is_ideal": self.is_ideal,
            "abelian": self.abelian,
            "nilpotent": self.nilpotent,
            "nilpotency_class": self.nilpotency_class,
            "series_dims": self.series_dims,
        }


def ideal_and_nilpotency(alg: FiniteLieAlgebra, span: Sequence[Label]) -> IdealReport:
    """Check ideal-ness of a coordinate span and compute its central series.

    The span is given by basis labels.  Ideal-ness is checked witness by
    witness: ``[g, s]`` for every basis element ``g`` and span label ``s``
    must be supported inside the span.  The lower central series is then
    computed on label sets, since every bracket is a multiple of one label:
    each term is the set of targets of ``[s, t]`` for ``s`` in the span and
    ``t`` in the previous term, and its dimension is the size of that set.
    The series stops when a term repeats (stalled) or is empty (nilpotent).
    """
    span_set = set(span)
    unknown = span_set - set(alg.basis)
    if unknown:
        raise ValueError(f"labels not in the basis: {sorted(unknown)}")
    witness = next(((g, s, alg.bracket_basis(g, s)) for g in alg.basis for s in span
                    if not alg.bracket_basis(g, s).keys() <= span_set), None)

    # Lower central series of the span, S^{t+1} = [S, S^t], as label sets.
    current = span_set
    dims = [len(current)]
    nil_class: int | None = None
    for step in range(1, len(alg.basis) + 2):
        nxt = {entry[0] for s in span_set for t in current
               if (entry := alg.table.get((s, t)))}
        if not nxt:
            nil_class = step if span else 0
            break
        dims.append(len(nxt))
        if nxt == current:
            # Series stalled at a nonzero term.
            break
        current = nxt
    return IdealReport(
        span=tuple(span),
        is_ideal=witness is None,
        ideal_witness=witness,
        abelian=nil_class is not None and nil_class <= 1,
        nilpotent=nil_class is not None,
        nilpotency_class=nil_class,
        series_dims=dims,
    )


class CharacterReport(NamedTuple):
    dimension: int
    derived_rank: int
    characters: list[dict[Label, Fraction]]

    @property
    def character_dim(self) -> int:
        return len(self.characters)

    def to_payload(self) -> dict[str, Any]:
        return {
            "dimension": self.dimension,
            "derived_rank": self.derived_rank,
            "character_dim": self.character_dim,
            "characters": [render_combo(phi) for phi in self.characters],
        }


def characters(alg: FiniteLieAlgebra) -> CharacterReport:
    """All linear functionals vanishing on the derived subalgebra.

    Every bracket is a nonzero multiple of one label, so the derived
    subalgebra is the span of the labels that occur as targets, and its
    dimension is their number.  The characters are, by construction, the
    duals of the other labels, in basis order: no bracket targets them.
    """
    targets = {target for target, _ in alg.table.values()}
    chars = [{lab: Fraction(1)} for lab in alg.basis if lab not in targets]
    return CharacterReport(
        dimension=len(alg.basis),
        derived_rank=len(targets),
        characters=chars,
    )
