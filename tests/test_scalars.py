from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtoda.scalars import (
    LaurentQK, HbarJet, IllPosedLimitError,
    jet_divide, jet_expand, q_binomial, q_integer, serre_scalar_sum,
)

Q = LaurentQK.q
QH = LaurentQK.q_half
K = LaurentQK.k
ONE = LaurentQK.one()
ZERO = LaurentQK.zero()


def small_scalars():
    term = st.tuples(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-2, max_value=2),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    return st.lists(term, max_size=4).map(
        lambda ts: LaurentQK({(q2, k): c for q2, k, c in ts}))


# -- q-combinatorics ---------------------------------------------------------

def test_q_integer_small_values():
    assert q_integer(1, 1) == ONE
    assert q_integer(2, 1) == Q(1) + Q(-1)
    assert q_integer(3, 1) == Q(2) + 1 + Q(-2)
    assert q_integer(0, 1) == ZERO
    assert q_integer(-2, 1) == -(Q(1) + Q(-1))


@pytest.mark.parametrize("a", range(-5, 6))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_q_integer_against_division_oracle(a, d):
    # (q^d - q^-d) * [a] must reproduce q^(da) - q^(-da) exactly
    lhs = (Q(d) - Q(-d)) * q_integer(a, d)
    assert lhs == Q(d * a) - Q(-d * a)


def test_q_binomial_base_cases():
    assert q_binomial(2, 1, 1) == Q(1) + Q(-1)
    assert q_binomial(5, 0, 2) == ONE
    assert q_binomial(3, 1, 1) == Q(2) + 1 + Q(-2)
    assert q_binomial(3, 5, 1) == ZERO
    assert q_binomial(3, -1, 1) == ZERO


@pytest.mark.parametrize("d", [1, 2, 3])
def test_q_binomial_factorial_oracle(d):
    # [n,k] * [k]! * [n-k]! == [n]! without any division
    def qfact(m):
        out = ONE
        for j in range(1, m + 1):
            out = out * q_integer(j, d)
        return out

    for n in range(7):
        for k in range(n + 1):
            assert q_binomial(n, k, d) * qfact(k) * qfact(n - k) == qfact(n)


def test_q_binomial_symmetry_and_bar_invariance():
    for n in range(7):
        for k in range(n + 1):
            for d in (1, 2, 3):
                b = q_binomial(n, k, d)
                assert b == q_binomial(n, n - k, d)
                assert b == b.bar()


@pytest.mark.parametrize("a_ij", [0, -1, -2, -3])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_serre_scalar_sum_vanishes(a_ij, sign, d):
    assert serre_scalar_sum(a_ij, d * a_ij, sign, d).is_zero


def test_serre_scalar_sum_explicit_expansion():
    # four-term expansion at a_ij = -2, written out with the binomial oracle
    total = ZERO
    for k in range(4):
        term = q_binomial(3, k, 1) * QH(2 * k * (-2))
        total = total + (term if k % 2 == 0 else -term)
    assert total.is_zero
    assert serre_scalar_sum(-2, -2, 1, 1) == total


# -- ring axioms -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(small_scalars(), small_scalars(), small_scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a
    assert a + ZERO == a
    assert a - a == ZERO


@pytest.mark.parametrize("key", [(0,), (0, 0, 0), (0, 0, 0, 0)])
def test_exponent_keys_are_pairs(key):
    # (doubled q exponent, K exponent); any other length is refused
    with pytest.raises(ValueError):
        LaurentQK({key: 1})


def test_monomial_inverse_and_units():
    m = LaurentQK.monomial(Fraction(3, 2), q2=3, k=-1)
    assert m * m.monomial_inverse() == ONE
    s = Q(2) + K(1)
    with pytest.raises(ZeroDivisionError):
        s.monomial_inverse()


@pytest.mark.parametrize("x", [3, 0, -1, Fraction(1, 2)])
def test_constant_hashes_like_its_rational(x):
    s = LaurentQK.rational(x)
    assert s == x and hash(s) == hash(x)
    assert len({s, x}) == 1


def test_integral_coefficients_are_ints():
    for make in (LaurentQK.rational, lambda c: LaurentQK.monomial(c, q2=1)):
        a, b = make(2), make(Fraction(4, 2))
        assert a == b and hash(a) == hash(b)
        assert a.to_json() == b.to_json() and a.text() == b.text()
        assert all(type(c) is int for c in b.terms.values())
    half = LaurentQK.rational(Fraction(1, 2))
    assert half.to_json() == [[0, 0, 1, 2]] and half.text() == "1/2"
    assert (half + half).to_json() == ONE.to_json()


def test_monomial_inverse_is_exact():
    inv = LaurentQK.monomial(2, q2=2, k=1).monomial_inverse()
    (key, c), = inv.terms.items()
    assert key == (-2, -1)
    assert isinstance(c, Fraction) and c == Fraction(1, 2)
    (c,) = (-Q(1)).monomial_inverse().terms.values()
    assert type(c) is int and c == -1


def test_rational_value_is_a_fraction():
    for s, want in ((LaurentQK.rational(3), 3), (ZERO, 0),
                    (LaurentQK.rational(Fraction(-1, 3)), Fraction(-1, 3))):
        value = s.rational_value()
        assert type(value) is Fraction and value == want


def test_substitute_k():
    s = ONE + K(1) * Q(1) + K(2) * 3
    assert s.substitute_k(0) == ONE
    assert s.substitute_k(1) == ONE + Q(1) + LaurentQK.rational(3)
    assert s.substitute_k(Fraction(1, 2)) == (
        ONE + Q(1) * Fraction(1, 2) + LaurentQK.rational(Fraction(3, 4)))
    t = K(-1)
    with pytest.raises(ZeroDivisionError):
        t.substitute_k(0)
    assert t.substitute_k(2).terms == {(0, 0): Fraction(1, 2)}


def test_json_round_trip_and_text():
    s = Q(2) * Fraction(-3, 4) + K(1) * QH(1) + 2
    assert LaurentQK.from_json(s.to_json()) == s
    assert "q^(1/2)" in s.text()
    assert LaurentQK.zero().text() == "0"


# -- hbar jets ---------------------------------------------------------------

def test_jet_expand_basics():
    assert jet_expand(ONE, 4) == HbarJet.constant(1, 4)
    # 2*sinh(h) = 2h + h^3/3 + ...
    j = jet_expand(Q(1) - Q(-1), 3)
    assert j.coeffs[0].is_zero
    assert j.coeffs[1] == LaurentQK.rational(2)
    assert j.coeffs[2].is_zero
    assert j.coeffs[3] == LaurentQK.rational(Fraction(1, 3))
    # e^(2h) = 1 + 2h + 2h^2 + ...
    j2 = jet_expand(Q(2), 2)
    assert [c.rational_value() for c in j2.coeffs] == [1, 2, 2]


@settings(max_examples=40, deadline=None)
@given(small_scalars(), small_scalars())
def test_jet_expand_is_ring_homomorphism(a, b):
    m = 4
    assert jet_expand(a * b, m) == jet_expand(a, m) * jet_expand(b, m)
    assert jet_expand(a + b, m) == jet_expand(a, m) + jet_expand(b, m)


def test_jet_divide_exact_cases():
    m = 6
    c2 = jet_expand((Q(1) - Q(-1)) ** 2, m)
    assert jet_divide(c2, c2) == HbarJet.constant(1, 4)
    num = jet_expand(Q(2) - 2 + Q(-2), m)
    assert jet_divide(num, c2) == HbarJet.constant(1, 4)


def test_jet_divide_pole_window():
    m = 5
    c1 = jet_expand(Q(1) - Q(-1), m)      # valuation 1
    c2 = jet_expand((Q(1) - Q(-1)) ** 2, m)  # valuation 2
    quo = jet_divide(c1, c2)
    assert quo.has_pole
    assert quo.pole == LaurentQK.rational(Fraction(1, 2))
    const = HbarJet.constant(1, m)
    with pytest.raises(IllPosedLimitError):
        jet_divide(const, c2)


def test_jet_divide_keeps_k_symbolic():
    m = 3
    s = jet_expand((ONE + K(1)) * (Q(1) - Q(-1)), m)
    c1 = jet_expand(Q(1) - Q(-1), m)
    quo = jet_divide(s, c1)
    assert quo.coeffs[0] == ONE + K(1)
