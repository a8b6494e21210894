from fractions import Fraction
from math import comb

import pytest

from qtoda.scalars import LaurentQK, jet_expand
from qtoda.torus import TorusPoly
from qtoda.diffop import DiffOp, SL_QUOTIENT
from qtoda.engine import build_toda_operator, toda_family
from qtoda.limits import (
    DifferentialOp, LimitError, SinhTerm, affine_classical_toda,
    classical_combination_fit, classical_toda, cm_limit, difference_op_jet,
    quasiclassical_limit,
)

Q = LaurentQK.q
HALF = Fraction(1, 2)


def test_classical_toda_smallest():
    op = classical_toda(2)
    # -(1/2)(d1^2 + d2^2) + e^(z1 - z2), with d2 eliminated
    want = DifferentialOp(2, {
        (2, 0): TorusPoly.constant(2, LaurentQK.rational(-1)),
        (0, 0): TorusPoly.monomial(2, (1, -1)),
    })
    assert op == want
    aff = affine_classical_toda(2)
    assert aff - op == DifferentialOp(
        2, {(0, 0): TorusPoly.monomial(2, (-1, 1), LaurentQK.k(1))})


def test_affine_at_k_zero_matches_finite():
    for n in (2, 3, 4):
        aff = affine_classical_toda(n)
        dropped = DifferentialOp(
            n, {g: c.map_coeffs(lambda s: s.substitute_k(0))
                for g, c in aff.terms.items()})
        assert dropped == classical_toda(n)


def test_sl_reduce_eliminates_last_derivative():
    n = 3
    op = DifferentialOp(n, {(0, 0, 2): TorusPoly.one(n)})
    red = op.sl_reduce()
    want = DifferentialOp(n, {
        (2, 0, 0): TorusPoly.one(n),
        (0, 2, 0): TorusPoly.one(n),
        (1, 1, 0): TorusPoly.constant(n, LaurentQK.rational(2)),
    })
    assert red == want
    assert not any(g[-1] for g in red.terms)


def test_differential_op_is_not_equal_to_a_bare_scalar():
    one = DifferentialOp(2, {(0, 0): 1})
    assert one.__eq__(1) is NotImplemented
    assert one != 1 and DifferentialOp.zero(2) != 0
    # a rank mismatch compares unequal instead of raising
    assert one != DifferentialOp(3, {(0, 0, 0): 1})


def test_differential_op_json_round_trip():
    n = 3
    op = classical_toda(n)
    assert DifferentialOp.from_json(op.to_json()) == op


def test_jet_of_shift_matches_scalar_jet():
    # applying the expanded shift to a monomial reproduces the scalar jet
    # of q^(lam . mu) order by order
    import random
    rng = random.Random(11)
    n, order = 3, 4
    cases = [((1, -1, 0), (2, 0, 1)), ((0, 1, -1), (1, 1, 1)),
             ((2, -1, -1), (-1, 0, 2))]
    for _ in range(12):
        lam = tuple(rng.randint(-2, 2) for _ in range(n))
        mu = tuple(rng.randint(-3, 3) for _ in range(n))
        cases.append((lam, mu))
    for lam, mu in cases:
        op = DiffOp.shift(n, mu)
        jet = difference_op_jet(op, order)
        pairing = sum(a * b for a, b in zip(lam, mu))
        sjet = jet_expand(Q(pairing), order)
        for k in range(order + 1):
            got = jet[k].apply_to_monomial(lam)
            want = TorusPoly.monomial(n, lam, sjet.coeffs[k])
            assert got == want, (lam, mu, k)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("affine", [False, True])
def test_quasiclassical_limit_rank_one(n, affine):
    op = build_toda_operator(n, 1, affine=affine)
    target = affine_classical_toda(n) if affine else classical_toda(n)
    assert quasiclassical_limit(op, n) == -1 * target


def test_quasiclassical_annihilates_constants():
    n = 3
    ident = DiffOp.identity(n, SL_QUOTIENT)
    assert quasiclassical_limit(ident * 7, 7).is_zero


def test_quasiclassical_is_linear():
    n = 3
    a = build_toda_operator(n, 1)
    b = build_toda_operator(n, 2)
    la = quasiclassical_limit(a, n)
    lb = quasiclassical_limit(b, comb(n, 2))
    lab = quasiclassical_limit(a + b, n + comb(n, 2))
    assert lab == la + lb


def test_quasiclassical_input_validation():
    n = 3
    op = build_toda_operator(n, 1)
    with pytest.raises(LimitError):
        quasiclassical_limit(op, n + 1)      # wrong dimension offset
    raw = build_toda_operator(n, 1, raw=True)
    with pytest.raises(LimitError):
        quasiclassical_limit(raw, n)         # not on the quotient


def test_quasiclassical_detects_surviving_pole():
    # a lone doubled shift has hbar coefficient d_1, which does not vanish
    # under the sl reduction
    n = 2
    bad = DiffOp.shift(n, (2, 0), mode=SL_QUOTIENT)
    with pytest.raises(LimitError):
        quasiclassical_limit(bad, 1)


@pytest.mark.parametrize("n,k,c_expected", [(3, 2, -1), (4, 2, -2)])
def test_quasiclassical_higher_fundamentals(n, k, c_expected):
    op = build_toda_operator(n, k)
    lim = quasiclassical_limit(op, comb(n, k))
    fit = classical_combination_fit(lim, classical_toda(n))
    assert fit is not None
    c, g = fit
    assert c == LaurentQK.rational(c_expected)
    assert g == LaurentQK.zero()


def test_built_differential_ops_skip_the_constructor_checks(monkeypatch):
    # jets, sums, differences, negation, scaling and sl_reduce wrap what
    # they build; only outside input goes through the constructor's checks
    n = 4
    finite, affine = toda_family(n), toda_family(n, True)
    target = classical_toda(n)
    checked = DifferentialOp._checked

    def refuse(self, terms):
        raise AssertionError("a built result was checked again")

    monkeypatch.setattr(DifferentialOp, "_checked", refuse)
    for op in finite + affine:
        for d in difference_op_jet(op, 2):
            assert (d + target) - target == d
            assert -(d - target) == target - d
            assert d * 2 == d + d and (d * Q(1) * 0).is_zero
            assert (d + d).sl_reduce() == d.sl_reduce() * 2
    # the limit checks its one outside input, the constant dim_v
    calls = []

    def counted(self, terms):
        calls.append(1)
        return checked(self, terms)

    monkeypatch.setattr(DifferentialOp, "_checked", counted)
    cases = [(op, comb(n, k)) for k, op in enumerate(finite, 1)]
    cases.append((affine[0], n))
    for op, dim_v in cases:
        calls.clear()
        quasiclassical_limit(op, dim_v)
        assert len(calls) <= 1


def test_combination_fit_rejects_wrong_candidate():
    n = 3
    lim = quasiclassical_limit(build_toda_operator(n, 1), n)
    wrong = classical_toda(n) + DifferentialOp(
        n, {(1, 0, 0): TorusPoly.monomial(n, (1, -1, 0))})
    assert classical_combination_fit(lim, wrong) is None


# -- inverse-sinh-squared limits ------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_cm_limit_trigonometric(n):
    op, certs = cm_limit(n)
    assert op == classical_toda(n)
    survivors = [c for c in certs if c["survives"]]
    # exactly the simple roots survive
    assert len(survivors) == n - 1
    for c in certs:
        if c["survives"]:
            assert all(d < 0 for d in c["subleading"])
        else:
            assert c["net_degree"] < 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cm_limit_elliptic(n):
    op, certs = cm_limit(n, elliptic=True)
    assert op == affine_classical_toda(n)
    survivors = [c for c in certs if c["survives"]]
    # simple roots at lattice shift 0 plus the maximal root at shift -1
    assert len(survivors) == n
    theta = tuple([1] + [0] * (n - 2) + [-1])
    assert any(c["w"] == theta and c["lam"] == -1 for c in survivors)
    for c in certs:
        if not c["survives"]:
            assert c["net_degree"] < 0


def test_cm_nonsimple_roots_decay_quadratically():
    # the longest root at lattice shift 0 has escape rate N-1, hence net
    # degree 2 - 2(N-1) as reported
    _, certs = cm_limit(4)
    theta = (1, 0, 0, -1)
    rec = next(c for c in certs if c["w"] == theta)
    assert not rec["survives"] and rec["net_degree"] == 2 - 2 * 3


def test_cm_tail_certificate_failure_raises():
    # at N = 2 with an empty window the first lattice translate beyond it
    # has |rate| = 1 < 2, so the tail is not certified; this must raise
    # even under python -O
    with pytest.raises(LimitError):
        cm_limit(2, elliptic=True, window=0)
    op, _ = cm_limit(2, elliptic=True, window=1)
    assert op == affine_classical_toda(2)


def test_sinh_term_zero_rate_rejected():
    with pytest.raises(LimitError):
        SinhTerm((1, -1), 0, 0, {2: Fraction(1, 4)})
