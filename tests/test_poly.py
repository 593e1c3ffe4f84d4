"""Polynomial ring tests: frozen oracles first, then randomized ring laws.

Oracle values in this file were computed by hand from the definitions and
are asserted as literals; the seeded batteries then exercise the same
operations on random inputs against independently computed references.
"""

import random
from fractions import Fraction

import pytest

from confal.poly import (
    DEL,
    LAM,
    MU,
    Poly,
    Var,
    add_terms,
    divmod_in_var,
)

F = Fraction


def rand_poly(rng, max_degree=3, max_num=6, max_den=4):
    """Random polynomial in ``D``, ``x`` and ``y``."""
    out = Poly.zero()
    for _ in range(rng.randint(1, 6)):
        c = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        term = Poly.const(c)
        for g in (DEL, LAM, MU):
            term = term * g ** rng.randint(0, max_degree)
        out = out + term
    return out


def evaluate(poly, point):
    """``poly`` at ``point``, a map from every registry variable to a rational."""
    total = Fraction(0)
    for exp, c in poly.terms():
        for var, e in zip(Var, exp):
            c *= point[var] ** e
        total += c
    return total


# -- frozen oracles ---------------------------------------------------------


def test_constant_arithmetic_oracle():
    assert Poly.const(2) + Poly.const(3) == Poly.const(5)
    assert Poly.const(Fraction(1, 2)) * Poly.const(Fraction(2, 3)) == Poly.const(
        Fraction(1, 3)
    )
    assert Poly.const(7) - 7 == Poly.zero()
    assert Poly.zero().is_zero()
    assert not Poly.one().is_zero()


def test_binomial_square_oracle():
    # (D + x)^2 = D^2 + 2 D x + x^2, checked term by term.
    sq = (DEL + LAM) ** 2
    assert sq == DEL**2 + 2 * DEL * LAM + LAM**2
    assert sq.degree_in(Var.PARTIAL) == 2
    assert sq.degree_in(Var.MU) == 0
    assert sq.total_degree() == 2


def test_zero_polynomial_degrees():
    assert Poly.zero().degree_in(Var.PARTIAL) == -1
    assert Poly.zero().total_degree() == -1
    assert Poly.zero().constant() == 0


def test_canonical_string_rendering():
    assert str(Poly.zero()) == "0"
    assert str(DEL**2 - 2 * LAM + Poly.const(Fraction(1, 2))) == "D^2 - 2*x + 1/2"
    assert str(-DEL) == "-D"
    assert str(3 * DEL * LAM**2) == "3*D*x^2"
    assert str(Poly.const(Fraction(-3, 4))) == "-3/4"


def test_term_order_graded_lex():
    # total degree first, then D-heaviest: x^2 before D, D before x.
    p = LAM**2 + DEL + LAM
    exps = [exp for exp, _ in p.terms()]
    assert exps == [(0, 2, 0), (1, 0, 0), (0, 1, 0)]


def test_substitute_shift_oracle():
    # D -> D + x applied to D^2 gives D^2 + 2 D x + x^2.
    p = DEL**2
    assert p.substitute(Var.PARTIAL, DEL + LAM) == DEL**2 + 2 * DEL * LAM + LAM**2
    # substituting a variable that does not occur is the identity.
    assert p.substitute(Var.MU, Poly.const(99)) == p


def test_substitute_negation_oracle():
    # the skew-symmetry substitution x -> -x - D on (D + 2x).
    p = DEL + 2 * LAM
    assert p.substitute(Var.LAMBDA, -LAM - DEL) == -DEL - 2 * LAM


def test_coeff_in_is_the_plain_coefficient():
    # no k!: the divided-power factor belongs to the mode expansion.
    p = 5 * LAM**3 * DEL + LAM * MU
    assert p.coeff_in(Var.LAMBDA, 3) == 5 * DEL
    assert p.coeff_in(Var.LAMBDA, 1) == MU
    assert p.coeff_in(Var.LAMBDA, 0) == Poly.zero()


def test_as_constant_rejects_nonconstant():
    with pytest.raises(ValueError):
        (DEL + 1).as_constant()
    assert Poly.const(Fraction(3, 7)).as_constant() == Fraction(3, 7)


def test_pow_rejects_bad_exponents():
    with pytest.raises(ValueError):
        DEL ** (-1)
    with pytest.raises(ValueError):
        DEL ** Fraction(1, 2)  # type: ignore[operator]


def test_pow_forms_no_product_above_the_result_degree(monkeypatch):
    # Square-and-multiply must stop squaring once the exponent is used up:
    # (D+x+1)^32 needs no product of degree 64.
    degrees = []
    mul = Poly.__mul__

    def recording_mul(self, other):
        product = mul(self, other)
        degrees.append(product.total_degree())
        return product

    monkeypatch.setattr(Poly, "__mul__", recording_mul)
    base = DEL + LAM + 1
    for n in (1, 2, 5, 32):
        degrees.clear()
        assert (base ** n).total_degree() == n
        assert max(degrees) == n
    assert base ** 0 == Poly.one()


def test_divmod_oracle():
    # (D^2 + 3D + 2) / (D + 1) = (D + 2, 0)
    f = DEL**2 + 3 * DEL + 2
    g = DEL + 1
    q, r = divmod_in_var(f, g, Var.PARTIAL)
    assert q == DEL + 2
    assert r.is_zero()
    # nontrivial remainder: D^2 / (D + 1) = (D - 1, 1)
    q, r = divmod_in_var(DEL**2, g, Var.PARTIAL)
    assert q == DEL - 1
    assert r == Poly.one()


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod_in_var(DEL, Poly.zero(), Var.PARTIAL)


# -- seeded batteries --------------------------------------------------------


def test_ring_laws_random_battery():
    rng = random.Random(101)
    for _ in range(60):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero() == a
        assert a * Poly.one() == a
        assert a - a == Poly.zero()


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(202)
    for _ in range(40):
        a = rand_poly(rng)
        b = rand_poly(rng)
        point = {
            Var.PARTIAL: Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Var.LAMBDA: Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Var.MU: Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        }
        assert evaluate(a + b, point) == evaluate(a, point) + evaluate(b, point)
        assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)


def test_substitution_commutes_with_evaluation():
    rng = random.Random(303)
    for _ in range(40):
        a = rand_poly(rng)
        rep = rand_poly(rng, max_degree=2)
        point = {
            Var.PARTIAL: Fraction(rng.randint(-4, 4)),
            Var.LAMBDA: Fraction(rng.randint(-4, 4)),
            Var.MU: Fraction(rng.randint(-4, 4)),
        }
        direct = evaluate(a.substitute(Var.LAMBDA, rep), point)
        shifted = dict(point)
        shifted[Var.LAMBDA] = evaluate(rep, point)
        assert direct == evaluate(a, shifted)


def test_divmod_reconstructs_dividend():
    rng = random.Random(404)
    for _ in range(40):
        f = rand_poly(rng)
        # divisor with constant leading coefficient in D.
        g = DEL ** rng.randint(1, 3) * rng.randint(1, 5) + rand_poly(
            rng, max_degree=0
        )
        if g.is_zero() or g.degree_in(Var.PARTIAL) < 1:
            continue
        q, r = divmod_in_var(f, g, Var.PARTIAL)
        assert q * g + r == f
        assert r.degree_in(Var.PARTIAL) < g.degree_in(Var.PARTIAL)


def test_mul_and_substitute_match_sympy():
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("D x y")

    def to_sympy(poly):
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s**e for s, e in zip(symbols, exp)))
                for exp, c in poly.terms()
            )
        )

    rng = random.Random(707)
    for _ in range(40):
        a = rand_poly(rng)
        b = rand_poly(rng)
        var = rng.choice(list(Var))
        rep = rand_poly(rng, max_degree=2)
        assert sympy.expand(to_sympy(a * b) - to_sympy(a) * to_sympy(b)) == 0
        expected = to_sympy(a).subs(symbols[var], to_sympy(rep))
        assert sympy.expand(to_sympy(a.substitute(var, rep)) - expected) == 0


def test_divmod_in_var_matches_sympy():
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("D x y")

    def to_sympy(poly):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(symbols, exp)))
            for exp, c in poly.terms()
        ))

    rng = random.Random(808)
    for _ in range(40):
        var = rng.choice(list(Var))
        v = Poly.variable(var)
        f = rand_poly(rng)
        # Leading coefficient in ``var`` a nonzero constant; the lower
        # coefficients are polynomials in the other variables.
        dg = rng.randint(0, 3)
        g = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) * v**dg
        for e in range(dg):
            g = g + rand_poly(rng, max_degree=1).substitute(var, 0) * v**e
        q, r = divmod_in_var(f, g, var)
        assert q * g + r == f
        assert r.is_zero() or r.degree_in(var) < dg
        sq, sr = sympy.div(to_sympy(f), to_sympy(g), symbols[var])
        assert sympy.expand(to_sympy(q) - sq) == 0
        assert sympy.expand(to_sympy(r) - sr) == 0


def test_hash_consistent_with_eq():
    rng = random.Random(505)
    for _ in range(30):
        a = rand_poly(rng)
        b = a + Poly.zero()
        assert a == b and hash(a) == hash(b)


# -- the sparse-combination primitive ----------------------------------------------


def test_add_terms_removes_a_key_that_cancels():
    out = {0: F(1), 1: F(2)}
    add_terms(out, [(0, F(-1)), (2, F(0)), (1, F(1, 2))])
    assert out == {1: F(5, 2)}
    assert 0 not in out and 2 not in out


def test_add_terms_updates_in_place_and_returns_the_dict():
    out = {"a": F(1)}
    assert add_terms(out, [("b", F(1, 2)), ("a", F(1))]) is out
    assert out == {"a": F(2), "b": F(1, 2)}
    assert add_terms(out, iter(())) is out


def test_add_terms_on_polynomial_values():
    out = {0: DEL + LAM}
    add_terms(out, [(0, -LAM), (1, LAM), (1, -LAM), (2, Poly.zero())])
    assert out == {0: DEL}


def test_add_terms_matches_sum_then_filter_on_random_terms():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.builds(F, st.integers(-3, 3), st.integers(1, 2))
    nonzero = value.filter(bool)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.dictionaries(st.integers(0, 4), nonzero, max_size=4),
        st.lists(st.tuples(st.integers(0, 4), value), max_size=12),
    )
    def check(start, terms):
        sums = dict(start)
        for key, v in terms:
            sums[key] = sums.get(key, 0) + v
        assert add_terms(dict(start), terms) == {k: v for k, v in sums.items() if v}

    check()
