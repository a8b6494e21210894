import hashlib
import json
import os.path as osp
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from qtoda.cli import canonical_json
from qtoda.scalars import LaurentQK, jet_expand
from qtoda.torus import TorusError, TorusPoly, TorusRat, add_terms
from qtoda.diffop import DiffOp, SL_QUOTIENT
from qtoda.engine import build_toda_operator, toda_family
from qtoda.limits import (
    DifferentialOp, LimitError, SinhTerm, affine_classical_toda,
    classical_combination_fit, classical_toda, cm_limit, difference_op_jet,
    quasiclassical_limit,
)

Q = LaurentQK.q
HALF = Fraction(1, 2)
GOLDEN = osp.join(osp.dirname(__file__), "golden")


def digest(value):
    return hashlib.sha256(
        canonical_json(value.to_json()).encode()).hexdigest()


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


def per_term_jet(op, order):
    # the jet by its definition, one term at a time: a scalar jet per
    # coefficient term and one merged monomial per (order, derivative,
    # exponent) contribution
    n = op.n
    coeffs = [{} for _ in range(order + 1)]
    for mu, f in op.terms.items():
        dir_pows = [{(0,) * n: 1}]
        for _ in range(order):
            nxt = {}
            for gamma, mult in dir_pows[-1].items():
                for j in range(n):
                    if mu[j]:
                        g = list(gamma)
                        g[j] += 1
                        key = tuple(g)
                        nxt[key] = nxt.get(key, 0) + mult * mu[j]
            dir_pows.append(nxt)
        for lam, scal in f.as_poly().terms.items():
            sjet = jet_expand(scal, order)
            for m in range(order + 1):
                for k in range(m, order + 1):
                    s = sjet.coeffs[k - m]
                    add_terms(coeffs[k], (
                        (gamma, TorusPoly.monomial(
                            n, lam, s * Fraction(mult, factorial(m))))
                        for gamma, mult in dir_pows[m].items()))
    return [DifferentialOp(n, terms) for terms in coeffs]


def random_diffop(rng, n):
    # Fraction coefficients, odd doubled q exponents, K powers and
    # negative shifts: inputs the engine never emits
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mu = tuple(rng.randint(-2, 2) for _ in range(n))
        poly = {}
        for _ in range(rng.randint(1, 3)):
            lam = tuple(rng.randint(-2, 2) for _ in range(n))
            poly[lam] = LaurentQK({
                (rng.randint(-3, 3), rng.randint(-2, 2)):
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))})
        terms[mu] = TorusPoly(n, poly)
    return DiffOp(n, terms)


def assert_clean(jet):
    # no zero is kept at any level, and integral values are ints
    for d in jet:
        for poly in d.terms.values():
            assert poly.terms
            for scal in poly.terms.values():
                assert scal.terms
                for c in scal.terms.values():
                    assert c and (type(c) is int or c.denominator != 1)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_jet_matches_the_per_term_route(order):
    rng = random.Random(order)
    for _ in range(15):
        op = random_diffop(rng, rng.randint(1, 4))
        got, want = difference_op_jet(op, order), per_term_jet(op, order)
        assert len(got) == order + 1
        assert got == want
        assert [canonical_json(d.to_json()) for d in got] == \
            [canonical_json(d.to_json()) for d in want]
        assert_clean(got)


def test_jet_drops_contributions_that_cancel():
    # T_(1,0) + T_(-1,0): the hbar^1 parts d_1 and -d_1 cancel; the
    # K parts of (q - q^(-1)) K + q^(1/2) cancel at hbar^0
    n = 2
    a = LaurentQK({(2, 1): 1, (-2, 1): -1, (1, 0): 1})
    op = DiffOp(n, {(1, 0): 1, (-1, 0): 1, (0, 1): TorusPoly.monomial(
        n, (1, -1), a)})
    for order in range(4):
        got = difference_op_jet(op, order)
        assert got == per_term_jet(op, order)
        assert_clean(got)
    jet = difference_op_jet(op, 3)
    assert jet[1].terms.keys() == {(0, 0), (0, 1)}
    const = jet[0].terms[(0, 0)].terms[(0, 0)]
    assert const == LaurentQK.rational(2)
    # every contribution cancels at hbar^1 and hbar^3
    sym = DiffOp(n, {(1, 0): 1, (-1, 0): 1})
    jet = difference_op_jet(sym, 3)
    assert jet[1].terms == {} and jet[3].terms == {}


def test_jet_refuses_a_rational_coefficient():
    n = 2
    den = TorusPoly.one(n) - TorusPoly.monomial(n, (1, -1))
    op = DiffOp(n, {(1, 0): TorusRat(TorusPoly.one(n), den)})
    for order in (0, 2):
        with pytest.raises(TorusError):
            difference_op_jet(op, order)


with open(osp.join(GOLDEN, "jets_sha256.json")) as fh:
    JET_DIGESTS = json.load(fh)


@pytest.mark.parametrize("affine", [False, True], ids=["finite", "affine"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jet_goldens(n, affine):
    # sha256 of the canonical JSON of every hbar^j coefficient of the
    # order-2 and order-N jets of every engine operator at N = 2..6
    tag = "n%d-%s-" % (n, "affine" if affine else "finite")
    want = {key: d for key, d in JET_DIGESTS.items() if key.startswith(tag)}
    got = {}
    for k, op in enumerate(toda_family(n, affine), 1):
        for order in sorted({2, n}):
            for j, d in enumerate(difference_op_jet(op, order)):
                got["%sk%d-o%d-h%d" % (tag, k, order, j)] = digest(d)
    assert got == want


def test_quasiclassical_goldens():
    # sha256 of every quasiclassical limit the quasiclassical suite takes
    # at N = 2..7: the first operator of both families, then every higher
    # operator of the finite one
    want = {key: d for key, d in JET_DIGESTS.items()
            if key.startswith("quasiclassical-")}
    got = {}
    for n in range(2, 8):
        cases = [(1, False), (1, True)] + [(k, False) for k in range(2, n)]
        for k, affine in cases:
            op = build_toda_operator(n, k, affine=affine)
            got["quasiclassical-n%d-%s-k%d" % (
                n, "affine" if affine else "finite", k)] = digest(
                quasiclassical_limit(op, comb(n, k)))
    assert got == want


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
