from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from qtoda.scalars import LaurentQK
from qtoda.torus import (
    TorusError, TorusPoly, TorusRat, add_terms, com_quotient_canonicalize,
    cyclic_root, root_form,
)

Q = LaurentQK.q
N = 3


def mono(exp, c=1):
    return TorusPoly.monomial(len(exp), tuple(exp), LaurentQK.rational(c))


def sl_polys(n=3):
    def build(entries):
        terms = {}
        for vec, c in entries:
            vec = list(vec)
            vec.append(-sum(vec))
            terms[tuple(vec)] = LaurentQK.rational(c)
        return TorusPoly(n, terms, sl=True)

    entry = st.tuples(
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * (n - 1)),
        st.fractions(min_value=-4, max_value=4, max_denominator=4))
    return st.lists(entry, max_size=3).map(build)


def shifts(n=3):
    return st.tuples(*[st.integers(min_value=-3, max_value=3)] * n)


def test_quotient_canonicalization():
    assert com_quotient_canonicalize((2, 2, 2)) == (0, 0, 0)
    assert com_quotient_canonicalize((2, 0, 0)) == (2, 0, 0)
    assert com_quotient_canonicalize((1, 2, 1)) == (0, 1, 0)


def test_monomial_products_and_shift():
    a = mono((1, -1, 0))
    b = mono((0, 1, -1))
    assert a * b == mono((1, 0, -1))
    # single shift relation: e^(z1-z2) under mu = e1 picks up q
    assert a.shift_substitute((1, 0, 0)) == mono((1, -1, 0)) * Q(1)
    # orthogonal pairing leaves the monomial alone
    assert a.shift_substitute((1, 1, 0)) == a
    c = TorusPoly.constant(3, LaurentQK.rational(7))
    assert c.shift_substitute((2, -1, 5)) == c


def test_sl_mode_rejects_bad_exponents():
    with pytest.raises(TorusError):
        TorusPoly(3, {(1, 0, 0): LaurentQK.one()}, sl=True)
    TorusPoly(3, {(1, 0, -1): LaurentQK.one()}, sl=True)


@settings(max_examples=50, deadline=None)
@given(sl_polys(), sl_polys(), shifts())
def test_shift_substitute_is_multiplicative(f, g, mu):
    assert (f * g).shift_substitute(mu) == (
        f.shift_substitute(mu) * g.shift_substitute(mu))


@settings(max_examples=50, deadline=None)
@given(sl_polys(), shifts(), shifts())
def test_shift_substitute_composes(f, mu, nu):
    total = tuple(a + b for a, b in zip(mu, nu))
    assert f.shift_substitute(total) == (
        f.shift_substitute(mu).shift_substitute(nu))


@settings(max_examples=50, deadline=None)
@given(sl_polys())
def test_sl_polys_ignore_center_shift(f):
    assert f.shift_substitute((1, 1, 1)) == f


def test_rat_cancellation_of_identical_factors():
    p = mono((1, 0, 0)) - mono((0, 1, 0))
    r = TorusRat(p, p)
    assert r == TorusRat.one(3)


def test_constant_poly_hashes_like_its_scalar():
    for x in (3, 0, LaurentQK.q(1)):
        p = TorusPoly.constant(N, x)
        assert p == x and hash(p) == hash(x)
        assert len({p, x}) == 1
    assert len({TorusPoly.constant(N, 3), LaurentQK.rational(3), 3}) == 1


@settings(max_examples=30, deadline=None)
@given(sl_polys())
def test_rat_is_unhashable(p):
    # equal values such as p/p and 1 have different representatives, so
    # no hash can agree with the cross-multiplying equality
    if not p.is_zero:
        assert TorusRat(p, p) == TorusRat.one(N)
        with pytest.raises(TypeError):
            hash(TorusRat(p, p))
    with pytest.raises(TypeError):
        {TorusRat(p), TorusRat.one(N)}


def test_rat_normalization_is_canonical():
    # (q^2 e^z1 - e^z2) / (e^z1 - e^z2) stays reduced with leading coeff 1
    num = mono((1, 0, 0)) * Q(2) - mono((0, 1, 0))
    den = mono((1, 0, 0)) - mono((0, 1, 0))
    r = TorusRat(num, den)
    assert r.den.terms[(1, 0, 0)] == LaurentQK.one()
    # scaling numerator and denominator together gives the identical form
    s = TorusRat(num * Q(-3), den * Q(-3))
    assert s.num == r.num and s.den == r.den


def test_rat_field_ops():
    a = TorusRat(mono((1, -1, 0)))
    b = TorusRat(mono((0, 1, -1)))
    assert a * b == TorusRat(mono((1, 0, -1)))
    assert (a / a) == TorusRat.one(3)
    quot = (a + b) / b
    assert quot * b == a + b
    with pytest.raises(ZeroDivisionError):
        TorusRat(mono((1, 0, 0)), TorusPoly.zero(3))


@pytest.mark.parametrize("den, want", [
    (TorusPoly.one(N), True),
    # a one whose value is Fraction(1) rather than int 1
    (TorusPoly._of(N, {(0,) * N: LaurentQK._wrap({(0, 0): Fraction(1)})}),
     True),
    (TorusPoly.constant(N, 2), False),
    (TorusPoly.constant(N, Q(1)), False),
    (TorusPoly.constant(N, LaurentQK.k(1)), False),
    (mono((1, -1, 0)), False),
    (mono((1, -1, 0)) + 1, False),
])
def test_rat_is_polynomial(den, want):
    # set directly, bypassing the normalisation a constructor would do
    r = TorusRat.__new__(TorusRat)
    r.num, r.den = mono((0, 1, -1)), den
    assert r.is_polynomial() is want
    assert want == (den == TorusPoly.one(N))


@settings(max_examples=30, deadline=None)
@given(sl_polys(), sl_polys())
def test_rat_shares_one_unit_denominator(p, p2):
    r = TorusRat(p)
    assert r.den is TorusRat(p2).den
    # a quotient that normalises to zero gets it too, another rank not
    assert TorusRat(TorusPoly.zero(N), mono((1, -1, 0)) + 1).den is r.den
    assert TorusRat(TorusPoly.one(2)).den.n == 2
    # against a freshly built unit denominator nothing reads differently
    fresh = TorusRat.__new__(TorusRat)
    fresh.num, fresh.den = p, TorusPoly.one(N)
    assert r.is_polynomial() and fresh.is_polynomial()
    assert r == fresh and fresh == r
    assert r.to_json() == fresh.to_json()
    assert r.text() == fresh.text()


def test_rat_shift_substitute_matches_poly():
    num = mono((1, 0, -1)) + mono((0, 1, -1)) * 2
    den = mono((1, -1, 0)) - 3
    r = TorusRat(num, den)
    mu = (2, 0, 1)
    shifted = r.shift_substitute(mu)
    assert shifted.num * den.shift_substitute(mu) == (
        num.shift_substitute(mu) * shifted.den)


def test_json_round_trip():
    p = mono((1, -1, 0)) * Q(1) + mono((0, 0, 0)) * 5
    assert TorusPoly.from_json(3, p.to_json()) == p
    r = TorusRat(p, mono((1, 0, -1)) - 2)
    back = TorusRat.from_json(3, r.to_json())
    assert back == r


def test_add_terms_drops_cancelled_keys():
    one, two = LaurentQK.rational(1), LaurentQK.rational(2)
    terms = {"a": one}
    out = add_terms(terms, [("a", -one), ("b", two), ("c", LaurentQK.zero()),
                            ("b", one)])
    assert out is terms
    assert terms == {"b": LaurentQK.rational(3)}
    # subtracting negates the keys only the pairs have
    assert add_terms({"a": one}, [("a", one), ("b", two)], sub) == \
        {"b": -two}


def test_cyclic_roots():
    assert cyclic_root(3, 1) == (1, -1, 0)
    assert cyclic_root(3, 3) == cyclic_root(3, 0) == (-1, 0, 1)
    assert cyclic_root(2, 2) == (-1, 1)


@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.tuples(*[st.integers(min_value=-3, max_value=3)] * n)))
def test_root_form_sums_cyclic_roots(m):
    n = len(m)
    want = [0] * n
    for i, mi in enumerate(m, start=1):
        want = [a + mi * b for a, b in zip(want, cyclic_root(n, i))]
    assert root_form(m) == tuple(want)
