import hashlib
import json
import os.path as osp

import pytest

from qtoda.cli import canonical_json
from qtoda.scalars import LaurentQK
from qtoda.torus import TorusPoly, TorusRat, com_quotient_canonicalize
from qtoda.diffop import DiffOp, GL, SL_QUOTIENT, sect6_automorphism
from qtoda.engine import build_toda_operator
from qtoda import degenerations
from qtoda.degenerations import (
    DegenerationError, macdonald_limit_closed_form,
    macdonald_operator, macdonald_toda_limit, periodic_matching_exponent,
    relativistic_catalog, relativistic_gauge_check,
    relativistic_resolved_form, rescale_g, rescale_root_exponentials,
    substitute_g2, toda_simplified_form, toda_z_form, _uniform_offset,
)

Q = LaurentQK.q
C2 = (Q(1) - Q(-1)) ** 2

GOLDEN = osp.join(osp.dirname(osp.abspath(__file__)), "golden")
GOLDEN_REL = osp.join(GOLDEN, "relativistic")


def test_macdonald_operator_smallest():
    n = 2
    op = macdonald_operator(n)
    t = LaurentQK.k(1)   # t rides in the K slot
    e1 = TorusPoly.monomial(n, (1, 0))
    e2 = TorusPoly.monomial(n, (0, 1))
    want = DiffOp(n, {
        (2, 0): TorusRat(e1 * t - e2, e1 - e2),
        (0, 2): TorusRat(e2 * t - e1, e2 - e1),
    }, GL)
    assert op == want


def test_macdonald_operator_collapses_at_unit_parameter():
    for n in (2, 3):
        op = macdonald_operator(n).substitute_k(1)
        want = DiffOp.zero(n, GL)
        for i in range(n):
            mu = [0] * n
            mu[i] = 2
            want = want + DiffOp.shift(n, tuple(mu))
        assert op == want


def test_macdonald_coefficients_permute_with_indices():
    # relabeling coordinates permutes the coefficients accordingly
    n = 3
    op = macdonald_operator(n)
    perm = (1, 2, 0)                      # cyclic relabeling

    def permute_vec(v):
        out = [0] * n
        for j, x in enumerate(v):
            out[perm[j]] = x
        return tuple(out)

    def permute_poly(p):
        return TorusPoly(n, {permute_vec(e): c for e, c in p.terms.items()})

    permuted = DiffOp(n, {
        permute_vec(mu): TorusRat(permute_poly(f.num), permute_poly(f.den))
        for mu, f in op.terms.items()}, GL)
    assert permuted == op


@pytest.mark.parametrize("n", range(2, 10))
def test_macdonald_toda_limit(n):
    assert macdonald_toda_limit(n) == macdonald_limit_closed_form(n)


def test_macdonald_limit_digests():
    # sha256 of the canonical JSON and of the text of every drift limit
    # at N=2..10, past the byte-for-byte goldens, which stop at N=4
    with open(osp.join(GOLDEN, "macdonald_limit_sha256.json")) as fh:
        want = json.load(fh)
    got = {}
    for n in range(2, 11):
        op = macdonald_toda_limit(n)
        for kind, text in (("json", canonical_json(op.to_json())),
                           ("text", op.text())):
            got["n%d_%s" % (n, kind)] = \
                hashlib.sha256(text.encode()).hexdigest()
    assert got == want


def test_macdonald_limit_closed_form_smallest():
    n = 2
    got = macdonald_limit_closed_form(n)
    want = DiffOp(n, {
        (0, 2): TorusRat.one(n),
        (2, 0): TorusRat(TorusPoly.one(n)
                         - TorusPoly.monomial(n, (1, -1))),
    }, SL_QUOTIENT)
    assert got == want


def test_macdonald_limit_rules_on_hand_coefficients(monkeypatch):
    # e^(w_j) -> u^j e^(z_j) and t -> u; the T_i^2 numerator degree drops
    # by i - 1.  T_1^2: (t e1 - e2)/(e1 - e2) has u-degree 2 over 2 (tie);
    # T_2^2: e1/(e2 - e1) has 1 - 1 over 2 (lower, no term).
    n = 2
    t = LaurentQK.k(1)
    e1 = TorusPoly.monomial(n, (1, 0))
    e2 = TorusPoly.monomial(n, (0, 1))
    hand = [(1, (2, 0), [(e1 * t - e2, e1 - e2)]),
            (2, (0, 2), [(e1, e2 - e1)])]
    monkeypatch.setattr(degenerations, "_macdonald_factors", lambda n: hand)
    want = DiffOp(n, {(2, 0): TorusRat(e1 - e2, -e2)}, SL_QUOTIENT)
    assert macdonald_toda_limit(n) == want
    # T_1^2: t e2 / e1 has u-degree 1 + 2 - 1 = 2 over 0 (higher)
    hand[:] = [(1, (2, 0), [(TorusPoly.monomial(n, (-1, 1), t),
                             TorusPoly.one(n))])]
    with pytest.raises(DegenerationError,
                       match="divergent coefficient: u-degree 2 over 0"):
        macdonald_toda_limit(n)


def whole_product_limit(n):
    """The drift limit read off the whole rational coefficients of
    macdonald_operator(n): the top u-parts of each numerator and
    denominator, under the same tie / lower / higher rule."""
    terms = {}
    for mu, coeff in macdonald_operator(n).terms.items():
        i = next(j + 1 for j in range(n) if mu[j])
        dn, num = degenerations._top_drift_part(coeff.num)
        dd, den = degenerations._top_drift_part(coeff.den)
        dn -= i - 1
        if dn > dd:
            raise DegenerationError(
                "divergent coefficient: u-degree %d over %d" % (dn, dd))
        if dn == dd:
            terms[mu] = TorusRat(num, den)
    return DiffOp(n, terms, SL_QUOTIENT)


@pytest.mark.parametrize("n", range(2, 8))
def test_macdonald_limit_matches_whole_product(n):
    # factor by factor equals the top u-parts of the whole product
    assert canonical_json(macdonald_toda_limit(n).to_json()) == \
        canonical_json(whole_product_limit(n).to_json())


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
def test_macdonald_limit_sees_a_moved_parameter(monkeypatch, n, last):
    # (t e^(w_i) - e^(w_j)) -> (e^(w_i) - t e^(w_j)) in one factor changes
    # its top u-part and degree: in T_1^2 (j = 2) the coefficient
    # diverges, in T_N^2 (j = N-1) the term drops
    i, j = (n, n - 1) if last else (1, 2)
    t = LaurentQK.k(1)
    ei, ej = (TorusPoly.monomial(n, tuple(int(k == m - 1) for k in range(n)))
              for m in (i, j))
    factors = degenerations._macdonald_factors

    def moved(n):
        for row, mu, pairs in factors(n):
            if row == i:
                k = j - 1 if j < i else j - 2      # the pair of this j
                assert pairs[k] == (ei * t - ej, ei - ej)
                pairs[k] = (ei - ej * t, ei - ej)
            yield row, mu, pairs

    monkeypatch.setattr(degenerations, "_macdonald_factors", moved)
    if last:
        assert macdonald_toda_limit(n) != macdonald_limit_closed_form(n)
    else:
        with pytest.raises(DegenerationError, match="divergent"):
            macdonald_toda_limit(n)


@pytest.mark.parametrize("n", range(2, 10))
def test_macdonald_limit_shift_consistency(n):
    # after the variable shift z_j -> z_j + j*c with e^(-c) = (q-q^(-1))^2
    # the limiting operator is the simplified finite form
    shifted = rescale_root_exponentials(macdonald_toda_limit(n), C2)
    assert shifted == toda_simplified_form(n, affine=False)


# -- catalog identities --------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_z_form_matches_engine(n):
    assert toda_z_form(n, affine=True) == build_toda_operator(n, 1, True)
    assert toda_z_form(n, affine=False) == build_toda_operator(n, 1, False)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_automorphism_maps_z_form_to_simplified(n):
    img = sect6_automorphism(toda_z_form(n, affine=True))
    assert img == toda_simplified_form(n, affine=True)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplified_form_at_k_zero(n):
    assert toda_simplified_form(n, True).substitute_k(0) == \
        toda_simplified_form(n, False)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nonperiodic_substitution_recovers_simplified(n):
    got = substitute_g2(relativistic_resolved_form(n, periodic=False), -C2)
    assert got == toda_simplified_form(n, affine=False)


def test_catalog_keys():
    cat = relativistic_catalog(3)
    assert set(cat) == {
        "first_operator_z_form", "simplified_affine", "simplified_finite",
        "relativistic_resolved_periodic", "relativistic_resolved_nonperiodic",
        "square_root_periodic", "square_root_nonperiodic",
    }
    n, mode, coeffs = cat["square_root_nonperiodic"]
    assert n == 3 and len(coeffs) == 3


# -- relativistic gauge equivalence ---------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("periodic", [True, False])
def test_relativistic_gauge_check(n, periodic):
    report = relativistic_gauge_check(n, periodic)
    assert report["ok"], report
    assert report["direction"] == -1
    assert report["offset"] == -2
    # the literal shift direction leaves unmatched square roots
    assert not report["outcomes"][1]["ok"]
    assert "unmatched factor symbol" in report["outcomes"][1]["error"]
    # removing the offset reproduces the resolved transcription exactly
    fixed = rescale_g(report["operator"], -report["offset"])
    assert fixed == relativistic_resolved_form(n, periodic, 0,
                                               report["direction"])


@pytest.mark.parametrize("periodic", [True, False],
                         ids=["periodic", "nonperiodic"])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_uniform_offset(n, direction, periodic):
    for c in (-2, 0, 1):
        op = relativistic_resolved_form(n, periodic, c, direction)
        assert _uniform_offset(op, n, periodic, direction) == c
    op = relativistic_resolved_form(n, periodic, 0, direction)
    alpha1 = (1, -1) + (0,) * (n - 2)

    def first(scalar):
        return TorusRat(TorusPoly.one(n) + TorusPoly.monomial(n, alpha1,
                                                              scalar))

    bad = {
        # the e^(alpha_1) term is missing
        "missing": TorusRat.one(n),
        # 2 g^2 instead of g^2
        "doubled": first(LaurentQK.monomial(2, k=1)),
    }
    if periodic or n > 2:
        # e^(alpha_1) at offset 1, the other exponentials at 0
        bad["mixed"] = first(LaurentQK.monomial(1, q2=2, k=1))
    key = com_quotient_canonicalize((2 * direction,) + (0,) * (n - 1))
    for name, coeff in bad.items():
        terms = dict(op.terms)
        terms[key] = coeff
        changed = DiffOp(n, terms, SL_QUOTIENT)
        assert _uniform_offset(changed, n, periodic, direction) is None, name
    # every coefficient as in the resolved form, plus a stray shift term
    stray = DiffOp.shift(n, (1, 1) + (0,) * (n - 2), mode=SL_QUOTIENT)
    for c in (-2, 0):
        op = relativistic_resolved_form(n, periodic, c, direction) + stray
        assert _uniform_offset(op, n, periodic, direction) is None


def gauge_record(n, periodic):
    """The gauge-check report as canonical JSON; the resolved operator
    carries g^2 in the K slot and contains no genuine K, so it is pinned by
    its text form with K^ renamed g2^."""
    report = relativistic_gauge_check(n, periodic)
    record = {k: v for k, v in report.items() if k != "operator"}
    record["outcomes"] = {str(d): o for d, o in report["outcomes"].items()}
    if "operator" in report:
        record["operator"] = report["operator"].text().replace("K^", "g2^")
    return canonical_json(record)


@pytest.mark.parametrize("periodic", [True, False],
                         ids=["periodic", "nonperiodic"])
@pytest.mark.parametrize("n", range(2, 7))
def test_relativistic_gauge_goldens(n, periodic):
    # outcomes with their error strings, direction, offset and operator
    name = "gauge_n%d_%s.json" % (n, "periodic" if periodic
                                  else "nonperiodic")
    with open(osp.join(GOLDEN_REL, name)) as fh:
        want = fh.read()
    assert gauge_record(n, periodic) == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_periodic_matching_exponent(n):
    found, tried = periodic_matching_exponent(n)
    # the coupling matches through the 2N-th root of K: g^2 = -c^2 K^(1/N);
    # the K^(2/N) variant provably fails the overall K-degree count
    assert found == 1
    assert tried == {1: True, 2: False}
