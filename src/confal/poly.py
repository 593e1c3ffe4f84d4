"""Exact multivariate polynomial arithmetic over the rationals.

Every computation in this package happens inside one fixed polynomial ring.
The variable registry is closed:

    ``D``     the translation generator (the "partial" of the algebra)
    ``x``     the first bracket variable (lambda)
    ``y``     the second bracket variable (mu)

A :class:`Poly` maps exponent vectors (one slot per registry variable) to
nonzero :class:`~fractions.Fraction` coefficients.  The zero polynomial
stores no terms, coefficients are always in lowest terms with positive
denominator (``Fraction`` guarantees this), and every operation returns a
canonical value.  Two polynomials are mathematically equal if and only if
they compare equal structurally, so ``==`` is an exact identity test and
rendering is byte-stable.

Terms are ordered graded-lexicographically with ``D > x > y``:
higher total degree first, ties broken by the exponent vector with ``D``
weighted heaviest.  All iteration and string rendering follow that order.

:func:`parse_rat` reads one rational literal and raises :class:`ParseError`,
the error of every text format (the polynomial grammar is in
:mod:`confal.serialize`); :data:`MAX_INPUT_SIZE` bounds every size the
program reads, and :data:`MAX_LITERAL_DIGITS` every number; :func:`quote`
bounds what a message quotes of its input.

:func:`add_terms` is the one sparse-combination primitive, which ``Poly``
sums through too, and :func:`render_combo` writes a combination out.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import add
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class Var(enum.IntEnum):
    """The closed variable registry; the value is the exponent slot."""

    PARTIAL = 0
    LAMBDA = 1
    MU = 2

    @property
    def spelling(self) -> str:
        return _SPELLINGS[self]


_SPELLINGS = ("D", "x", "y")
NVARS = 3
_ZERO_EXP = (0, 0, 0)

SPELLING_TO_VAR = {s: Var(i) for i, s in enumerate(_SPELLINGS)}


class ParseError(ValueError):
    """Malformed textual input, annotated with a position where possible."""


#: Largest size the program accepts from its input: an algebra file's
#: ``window`` and each command-line size flag.  The Jacobi walk is cubic in
#: the window: an empty table of window 64 verifies in under a second, one of
#: window 128 in a few seconds.  Each size flag at this value runs in seconds,
#: and the checkers' cost grows as a power of it.
MAX_INPUT_SIZE = 64

#: Longest number the program reads, in characters: a rational literal, with
#: a decimal exponent counted as the digits it adds, and each integer of an
#: input file.  The readers check it on the text, before anything converts
#: or expands it.  Products of two numbers at the bound pass Python's
#: 4,300-digit limit on ``int``-to-``str`` conversion, which
#: :func:`confal.cli.main` lifts while it renders a certificate.
MAX_LITERAL_DIGITS = 3000

#: Longest quotation of input that a message carries, in characters.
MAX_QUOTE = 80


def elide(text: str, limit: int = MAX_QUOTE) -> str:
    """``text``, its middle elided to ``...`` past ``limit`` characters.

    The result keeps the first seven tenths of ``limit`` and as much of the
    tail as fits, so at :data:`MAX_QUOTE` the first 56 and last 21
    characters.
    """
    if len(text) <= limit:
        return text
    head = limit * 7 // 10
    return f"{text[:head]}...{text[head + 3 - limit:]}"


def quote(value: object) -> str:
    """``repr(value)`` for a message, elided past :data:`MAX_QUOTE` characters.

    A message that quotes input thus stays one short line whatever the input.
    """
    return elide(repr(value))


def parse_rat(text: str) -> Fraction:
    literal = text.strip()
    size = len(literal)
    if size <= MAX_LITERAL_DIGITS:
        # An exponent counts as the digits it adds.
        mantissa, _, exponent = literal.lower().partition("e")
        try:
            size = len(mantissa) + abs(int(exponent or 0))
        except ValueError:
            pass  # not an exponent, so Fraction refuses the literal below
    if size > MAX_LITERAL_DIGITS:
        raise ParseError(
            f"rational literal {literal[:40]!r} runs past the limit of "
            f"{MAX_LITERAL_DIGITS} digits"
        )
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {quote(text)}: {exc}") from None


def _as_rat(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


def _order_key(exp: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exp), exp)


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients.

    Supports ``+ - * **`` against other polynomials and against ``int`` or
    ``Fraction`` scalars.  Instances must be treated as values; no method
    mutates its receiver.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                c = _as_rat(coeff)
                if c:
                    if len(exp) != NVARS or any(e < 0 for e in exp):
                        raise ValueError(f"bad exponent vector {exp!r}")
                    clean[tuple(exp)] = c
        self._terms = clean

    # -- construction --------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return _ZERO

    @classmethod
    def const(cls, value: Scalar) -> Poly:
        c = _as_rat(value)
        if not c:
            return _ZERO
        return cls({_ZERO_EXP: c})

    @classmethod
    def variable(cls, var: Var) -> Poly:
        exp = [0] * NVARS
        exp[var] = 1
        return cls({tuple(exp): Fraction(1)})

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Yield ``(exponent_vector, coefficient)`` in canonical order."""
        for exp in sorted(self._terms, key=_order_key, reverse=True):
            yield exp, self._terms[exp]

    def coefficient_bits(self, at: Poly | None = None) -> int:
        """Bits of the longest numerator or denominator among the coefficients.

        With ``at``, only the coefficients at the monomials of ``at`` count.
        """
        terms = self._terms
        coeffs = terms.values() if at is None else (terms[e] for e in at._terms if e in terms)
        return max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
            default=0,
        )

    def constant(self) -> Fraction:
        """Coefficient of the monomial 1."""
        return self._terms.get(_ZERO_EXP, Fraction(0))

    def as_constant(self) -> Fraction:
        """The value of a constant polynomial; error if any variable occurs."""
        if self.variables():
            raise ValueError(f"polynomial {self} is not constant")
        return self.constant()

    def variables(self) -> set[Var]:
        out: set[Var] = set()
        for exp in self._terms:
            for i, e in enumerate(exp):
                if e:
                    out.add(Var(i))
        return out

    def degree_in(self, var: Var) -> int:
        """Largest exponent of ``var``; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(exp[var] for exp in self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(exp) for exp in self._terms)

    # -- ring operations -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Poly.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> Poly:
        return Poly({exp: -c for exp, c in self._terms.items()})

    def __add__(self, other: Poly | Scalar) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _wrap(add_terms(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __sub__(self, other: Poly | Scalar) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Poly | Scalar) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: Poly | Scalar) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        other_terms = other._terms.items()
        for ea, ca in self._terms.items():
            for eb, cb in other_terms:
                _accumulate(out, ea, eb, ca * cb)
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = _ONE
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- calculus of substitution ---------------------------------------

    def substitute(self, var: Var, replacement: Poly | Scalar) -> Poly:
        """Substitute ``replacement`` for ``var``, exactly."""
        rep = _coerce(replacement)
        if rep is NotImplemented:
            raise TypeError("replacement must be a Poly or an exact scalar")
        out: dict[tuple[int, ...], Fraction] = {}
        powers: dict[int, Poly] = {}
        for exp, c in self._terms.items():
            e = exp[var]
            power = powers.get(e)
            if power is None:
                power = powers[e] = rep**e
            rest = list(exp)
            rest[var] = 0
            for ep, cp in power._terms.items():
                _accumulate(out, rest, ep, c * cp)
        return _wrap(out)

    def coeff_in(self, var: Var, k: int) -> Poly:
        """The coefficient of ``var**k``, a polynomial free of ``var``.

        No ``k!`` is applied: a term ``c D^d x^k`` of a bracket entry is
        ``k! c D^d`` in its k-th product, and the mode expansion of
        :func:`confal.annihilation.build_annihilation` applies that factor.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self._terms.items():
            if exp[var] == k:
                rest = list(exp)
                rest[var] = 0
                out[tuple(rest)] = c
        return _wrap(out)

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exp, coeff in self.terms():
            factors = [
                _SPELLINGS[i] if e == 1 else f"{_SPELLINGS[i]}^{e}"
                for i, e in enumerate(exp)
                if e
            ]
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def add_terms(out: dict, terms: Iterable[tuple]) -> dict:
    """Add each ``(key, value)`` of ``terms`` into ``out``; return ``out``.

    A key whose sum cancels is removed, not stored as a zero.  This is the
    one sparse-combination primitive: polynomial sums, rows of
    :class:`confal.linalg.Echelon`, the centrality and Jacobi residuals of
    mode algebras and the bracket residuals of conformal tables all add
    through it.  Values are ``Fraction`` or ``Poly``, both falsy exactly at
    zero.
    """
    for key, value in terms:
        total = out[key] + value if key in out else value
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def render_combo(combo: Mapping, name: Callable[[Any], str] = str) -> dict[str, str]:
    """A sparse combination as strings, keys in sorted order, zeros left out.

    ``name`` renders a key: a generator name for an index, ``str`` for an
    index or a basis label written as itself.
    """
    return {name(k): str(v) for k, v in sorted(combo.items()) if v}


def _accumulate(
    out: dict[tuple[int, ...], Fraction],
    ea: Sequence[int],
    eb: Sequence[int],
    c: Fraction,
) -> None:
    """Add ``c`` (nonzero) times the monomial ``ea + eb`` into ``out``.

    Products add here, not in :func:`add_terms`: a tuple per term costs 5-10%.
    """
    exp = tuple(map(add, ea, eb))
    old = out.get(exp)
    if old is None:
        out[exp] = c
        return
    s = old + c
    if s:
        out[exp] = s
    else:
        del out[exp]


def _wrap(terms: dict[tuple[int, ...], Fraction]) -> Poly:
    p = Poly.__new__(Poly)
    p._terms = terms
    return p


def _coerce(value: Poly | Scalar) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented


_ZERO = _wrap({})
_ONE = Poly({_ZERO_EXP: Fraction(1)})

#: Generator polynomials, exported for readable formula building.
DEL = Poly.variable(Var.PARTIAL)
LAM = Poly.variable(Var.LAMBDA)
MU = Poly.variable(Var.MU)


def divmod_in_var(f: Poly, g: Poly, var: Var) -> tuple[Poly, Poly]:
    """Long division of ``f`` by ``g``, viewing both as univariate in ``var``.

    Requires the leading coefficient of ``g`` in ``var`` to be a nonzero
    rational constant (no other variables), which holds for every divisor
    this package produces.  Returns ``(q, r)`` with ``f == q*g + r`` and
    ``deg_var(r) < deg_var(g)``.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    dg = g.degree_in(var)
    lead_const = g.coeff_in(var, dg).as_constant()
    q = Poly.zero()
    r = f
    v = Poly.variable(var)
    while not r.is_zero() and r.degree_in(var) >= dg:
        dr = r.degree_in(var)
        lead_r = r.coeff_in(var, dr)
        step = lead_r * (Fraction(1) / lead_const) * v ** (dr - dg)
        q = q + step
        r = r - step * g
    return q, r

