import copy
import glob
import hashlib
import json
import os.path as osp
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtoda import cli, engine, torus
from qtoda.scalars import LaurentQK
from qtoda.cli import canonical_json
from qtoda.torus import (
    TorusPoly, TorusRat, com_quotient_canonicalize, vadd,
)
from qtoda.degenerations import macdonald_operator
from qtoda.diffop import (
    GL, ROOT_WEIGHT, SL_QUOTIENT, DiffOp, DiffOpError, UnresolvedFactorError,
    conjugate_by_factor_product, cyclic_root, sect6_automorphism,
)
from qtoda.engine import build_toda_operator, toda_family
from qtoda.limits import DifferentialOp

from root_lattice import root_form

GOLDEN = osp.join(osp.dirname(osp.abspath(__file__)), "golden")
GOLDEN_AUT = osp.join(GOLDEN, "automorphism")

Q = LaurentQK.q
ONE = LaurentQK.one()


def root_mono(n, lam, c=ONE):
    return TorusRat.monomial(n, lam, c)


def small_ops(n=3, mode=GL):
    """Random small operators with sl-torus coefficients."""
    def build(entries):
        terms = {}
        for shift, lam_head, c in entries:
            lam = list(lam_head) + [-sum(lam_head)]
            coeff = TorusRat.monomial(n, tuple(lam), LaurentQK.rational(c))
            key = tuple(shift)
            if key in terms:
                terms[key] = terms[key] + coeff
            else:
                terms[key] = coeff
        return DiffOp(n, terms, mode)

    entry = st.tuples(
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * n),
        st.tuples(*[st.integers(min_value=-1, max_value=1)] * (n - 1)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3))
    return st.lists(entry, min_size=1, max_size=3).map(build)


def reference_compose(a, b):
    """The operator product term by term: sum of f * sigma_mu(g) T_(mu+nu)
    over every pair of terms, each product a TorusRat."""
    terms = {}
    for mu, f in a.terms.items():
        for nu, g in b.terms.items():
            key = vadd(mu, nu)
            if a.mode == SL_QUOTIENT:
                key = com_quotient_canonicalize(key)
            p = f * g.shift_substitute(mu)
            s = terms[key] + p if key in terms else p
            if s.is_zero:
                terms.pop(key, None)
            else:
                terms[key] = s
    return DiffOp(a.n, terms, a.mode)


def rational_ops(n=3, mode=GL):
    """Random operators whose first coefficient has a non-unit denominator
    1 + e^(lam'); later ones may be polynomial."""
    def build(entries):
        terms = {}
        for i, (shift, lam_head, c, den_head) in enumerate(entries):
            lam = tuple(lam_head) + (-sum(lam_head),)
            num = TorusPoly.monomial(n, lam, LaurentQK.rational(c)) + 1
            den = TorusPoly.one(n)
            if i == 0 or den_head is not None:
                den_head = den_head or (0,) * (n - 1)
                den_lam = tuple(den_head) + (-sum(den_head),)
                if not any(den_lam):
                    den_lam = (1, -1) + (0,) * (n - 2)
                den = den + TorusPoly.monomial(n, den_lam)
            coeff = TorusRat(num, den)
            key = tuple(shift)
            terms[key] = terms[key] + coeff if key in terms else coeff
        return DiffOp(n, terms, mode)

    exps = st.tuples(*[st.integers(min_value=-1, max_value=1)] * (n - 1))
    entry = st.tuples(
        st.tuples(*[st.integers(min_value=-1, max_value=1)] * n), exps,
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.none() | exps)
    return st.lists(entry, min_size=1, max_size=3).map(build)


@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_compose_matches_reference_on_families(n, affine):
    family = toda_family(n, affine)
    for a in family:
        for b in family:
            assert a.compose(b).to_json() == reference_compose(a, b).to_json()


with open(osp.join(GOLDEN, "products_sha256.json")) as fh:
    PRODUCT_DIGESTS = json.load(fh)


@pytest.mark.parametrize("affine", [False, True], ids=["finite", "affine"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_product_goldens(n, affine):
    # sha256 of the canonical JSON of every ordered product a b of the
    # N = 2..6 families
    family = toda_family(n, affine)
    tag = "n%d-%s-" % (n, "affine" if affine else "finite")
    want = {key: d for key, d in PRODUCT_DIGESTS.items()
            if key.startswith(tag)}
    got = {}
    for i, a in enumerate(family, 1):
        for j, b in enumerate(family, 1):
            text = canonical_json(a.compose(b).to_json())
            got["%sk%dxk%d" % (tag, i, j)] = \
                hashlib.sha256(text.encode()).hexdigest()
    assert got == want


with open(osp.join(GOLDEN, "commutators_sha256.json")) as fh:
    COMMUTATOR_DIGESTS = json.load(fh)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_commutator_goldens(n):
    # sha256 of the canonical JSON of every ordered commutator [a, b] of
    # the union of both N = 2..6 families; a finite member never commutes
    # with an affine one, so these digests pin nonzero results too
    ops = [("%s-k%d" % (tag, k), op)
           for tag, affine in (("finite", False), ("affine", True))
           for k, op in enumerate(toda_family(n, affine), 1)]
    want = {key: d for key, d in COMMUTATOR_DIGESTS.items()
            if key.startswith("n%d-" % n)}
    got = {}
    for x, a in ops:
        for y, b in ops:
            c = a.commutator(b)
            assert c.is_zero == (x[0] == y[0])
            text = canonical_json(c.to_json())
            got["n%d-%sx%s" % (n, x, y)] = \
                hashlib.sha256(text.encode()).hexdigest()
    assert got == want


def checked_dumps(data):
    # the canonical text with json's circular-reference check left on
    return json.dumps(copy.deepcopy(data), sort_keys=True,
                      separators=(",", ":")) + "\n"


SERIALIZED_GOLDENS = sorted(
    glob.glob(osp.join(GOLDEN, "operators", "toda_*.json"))
    + glob.glob(osp.join(GOLDEN, "raw", "toda_*.json")))


@pytest.mark.parametrize("path", SERIALIZED_GOLDENS,
                         ids=lambda p: "/".join(p.split(osp.sep)[-2:]))
def test_serializer_reproduces_goldens(path):
    with open(path) as fh:
        text = fh.read()
    data = DiffOp.from_json(json.loads(text)).to_json()
    assert canonical_json(data) == text
    assert checked_dumps(data) == text


def test_serializer_on_rational_and_shared_scalars():
    # non-unit denominators, and terms that hold one LaurentQK object: the
    # operator's JSON equals the one rendered coefficient by coefficient
    c = Q(1) - LaurentQK.k(2)
    shared = DiffOp(3, {
        (2, 0, 0): root_mono(3, (1, -1, 0), c),
        (0, 2, 0): root_mono(3, (0, 1, -1), c),
        (0, 0, 2): TorusRat(TorusPoly(3, {(0, 0, 0): c, (1, 0, -1): c})),
    }, GL)
    assert all(c_ is c for f in shared.terms.values()
               for c_ in f.num.terms.values())
    rational = macdonald_operator(3)
    assert any(not f.is_polynomial() for f in rational.terms.values())
    for op in (shared, rational):
        data = op.to_json()
        want = {"N": op.n, "mode": op.mode,
                "terms": [dict(op.terms[mu].to_json(), shift=list(mu))
                          for mu in sorted(op.terms)]}
        assert data == want
        text = canonical_json(data)
        assert text == checked_dumps(data) == checked_dumps(want)
        assert canonical_json(DiffOp.from_json(data).to_json()) == text


def test_to_json_returns_fresh_structures():
    # mutating one call's result leaves the next call's result alone
    op = build_toda_operator(4, 2, affine=True)
    first = op.to_json()
    text = canonical_json(first)
    record = first["terms"][0]
    record["num"][0]["coeff"][0][2] = 99
    record["num"][0]["coeff"].append([1, 0, 1, 1])
    record["den"][0]["coeff"].append([1, 0, 1, 1])
    assert canonical_json(first) != text
    second = op.to_json()
    assert second["terms"][0]["num"][0]["coeff"] != record["num"][0]["coeff"]
    assert canonical_json(second) == text


@pytest.mark.parametrize("mode", [GL, SL_QUOTIENT])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_compose_matches_reference_on_rational_coefficients(mode, data):
    a = data.draw(rational_ops(mode=mode))
    b = data.draw(st.one_of(rational_ops(mode=mode), small_ops(mode=mode)))
    if data.draw(st.booleans()):
        a, b = b, a
    assert a * b == reference_compose(a, b)


def test_compose_rational_coefficient_example():
    # a = (1 + e^(z1 - z2))^(-1) T_1 + e^(z1 - z2) T_2 and b = T_1 + T_2:
    # T_1 T_2 collects a rational and a polynomial product
    n = 3
    e12 = TorusPoly.monomial(n, (1, -1, 0))
    p = e12 + 1
    a = DiffOp(n, {(1, 0, 0): TorusRat(TorusPoly.one(n), p),
                   (0, 1, 0): TorusRat(e12)})
    b = DiffOp.shift(n, (1, 0, 0)) + DiffOp.shift(n, (0, 1, 0))
    ab = a * b
    assert ab == reference_compose(a, b)
    assert ab.terms[(1, 1, 0)] == TorusRat(e12 * p + 1, p)
    assert ab.terms[(2, 0, 0)] == TorusRat(TorusPoly.one(n), p)
    assert ab.terms[(0, 2, 0)] == TorusRat(e12)
    # sigma_1 and sigma_2 act on 1 + e^(z1 - z2) as 1 + q^(+-1) e^(z1 - z2)
    c = DiffOp(n, {(0, 0, 0): TorusRat(p)})
    assert a * c == DiffOp(n, {
        (1, 0, 0): TorusRat(e12 * Q(1) + 1, p),
        (0, 1, 0): TorusRat(e12 * (e12 * Q(-1) + 1))})


def weight_ops(n, mode, shift=2, k_min=0):
    """Random unit-weight point sets: distinct (mu, lam) with coefficient
    ROOT_WEIGHT^j K^k e^(lam . z), lam = root_form(m), j = |m|, shift
    entries up to ``shift`` in absolute value and k_min <= k <= 1."""
    def build(points):
        terms = {}
        for mu, m, k in points:
            if mode == SL_QUOTIENT:
                mu = com_quotient_canonicalize(mu)
            terms.setdefault(mu, {}).setdefault(
                root_form(m), ROOT_WEIGHT ** sum(m) * LaurentQK.k(k))
        return DiffOp(n, {mu: TorusPoly(n, poly)
                          for mu, poly in terms.items()}, mode)

    point = st.tuples(
        st.tuples(*[st.integers(min_value=-shift, max_value=shift)] * n),
        st.tuples(*[st.integers(min_value=0, max_value=2)] * n),
        st.integers(min_value=k_min, max_value=1))
    return st.lists(point, min_size=1, max_size=6).map(build)


@pytest.mark.parametrize("mode", [GL, SL_QUOTIENT])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compose_matches_reference_on_unit_weight_points(mode, data):
    n = data.draw(st.integers(min_value=2, max_value=4))
    a = data.draw(weight_ops(n, mode))
    b = data.draw(weight_ops(n, mode))
    assert a.compose(b).to_json() == reference_compose(a, b).to_json()


@pytest.mark.parametrize("mode", [GL, SL_QUOTIENT])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_packed_counts_match_reference_on_wide_points(mode, data):
    # shift entries up to 50 and negative K powers: wide radices and
    # negative digits in the packed points of both counting kernels
    n = data.draw(st.integers(min_value=2, max_value=6))
    a = data.draw(weight_ops(n, mode, shift=50, k_min=-3))
    b = data.draw(weight_ops(n, mode, shift=50, k_min=-3))
    ab, ba = reference_compose(a, b), reference_compose(b, a)
    assert a.compose(b).to_json() == ab.to_json()
    assert a.commutator(b).to_json() == (ab - ba).to_json()


def test_packed_counts_at_the_radix_bound():
    # a's entries are at most 2 and b's at most 1, so the radix is
    # 2 (2 + 1) + 1 = 7; the one output point (3, 0) e^(z1 - z2) w(3) K^-3
    # has entries 3 and -3, the largest balanced digits, which a radix
    # of 6 or 5 would misread
    n = 2
    a = DiffOp(n, {(2, 0): ROOT_WEIGHT ** 2 * LaurentQK.k(-2)})
    b = DiffOp(n, {(1, 0): root_mono(n, (1, -1),
                                     ROOT_WEIGHT * LaurentQK.k(-1))})
    c = ROOT_WEIGHT ** 3 * LaurentQK.k(-3)
    ab = DiffOp(n, {(3, 0): root_mono(n, (1, -1), Q(2) * c)})
    assert a * b == ab == reference_compose(a, b)
    assert b * a == DiffOp(n, {(3, 0): root_mono(n, (1, -1), c)})
    assert a.commutator(b) == DiffOp(
        n, {(3, 0): root_mono(n, (1, -1), (Q(2) - 1) * c)})
    assert b.commutator(a) == -a.commutator(b)


def test_compose_drops_cancelled_scalar_terms():
    # a = T_(2,0) + w(1) e^(z1 - z2) T_(1,1) and b = e^(z1 - z2) + T_(1,-1):
    # on T_(2,0) e^(z1 - z2) the counts q^2 w(0) and w(1) = -q^2 + 2 - q^-2
    # cancel in q^2
    n = 2
    a = DiffOp(n, {(2, 0): 1, (1, 1): root_mono(n, (1, -1), ROOT_WEIGHT)})
    b = DiffOp(n, {(0, 0): root_mono(n, (1, -1)), (1, -1): 1})
    ab = a * b
    assert ab.to_json() == reference_compose(a, b).to_json()
    assert ab.terms[(2, 0)] == root_mono(n, (1, -1), 2 - Q(-2))


def replace_root_coefficient(op, fn):
    """op with the coefficient f of its first term carrying a root
    exponential replaced by fn(f)."""
    mu = next(mu for mu in sorted(op.terms)
              if any(next(iter(op.terms[mu].num.terms))))
    return DiffOp(op.n, {**op.terms, mu: fn(op.terms[mu])}, op.mode)


E1 = TorusPoly.monomial(3, cyclic_root(3, 1))

# coefficients that are not exactly one weight ROOT_WEIGHT^j K^k
UNDECODABLE = {
    "twice": lambda f: f * 2,
    "half-q-power": lambda f: f * LaurentQK.q_half(1),
    "negative-top-q-power": lambda f: f * Q(-3),
    "denominator": lambda f: f / TorusRat(E1 + 1),
    "two-weights": lambda f: TorusRat(f.num + f.num * ROOT_WEIGHT),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_compose_falls_back_on_undecodable_coefficients(case):
    a, b = toda_family(3, True)
    a = replace_root_coefficient(a, UNDECODABLE[case])
    for x, y in ((a, b), (b, a), (a, a)):
        assert x.compose(y).to_json() == reference_compose(x, y).to_json()


def test_compose_falls_back_on_k_substituted_weights():
    # --k-value 1/2 leaves weights with Fraction coefficients
    a, b = (op.substitute_k(Fraction(1, 2)) for op in toda_family(3, True))
    for x, y in ((a, b), (b, a)):
        assert x.compose(y).to_json() == reference_compose(x, y).to_json()


def test_family_products_take_the_counting_path(monkeypatch):
    # every engine product is counted on the lattice: neither the exact
    # TorusRat product nor polynomial multiplication runs
    families = [toda_family(n, affine)
                for n in (2, 3, 4, 5) for affine in (False, True)]
    calls = []
    for cls, name in ((TorusRat, "shift_substitute"),
                      (TorusPoly, "__mul__")):
        def counted(*args, orig=getattr(cls, name), name=name):
            calls.append(name)
            return orig(*args)
        monkeypatch.setattr(cls, name, counted)
    for family in families:
        for a in family:
            for b in family:
                a.compose(b)
    assert calls == []


def test_family_commutators_never_normalize(monkeypatch):
    # the products are polynomials, so their difference is too: no
    # quotient is normalised anywhere in a commutator
    families = [toda_family(5, affine) for affine in (False, True)]
    calls = []

    def counted(num, den, orig=torus._normalize):
        calls.append(1)
        return orig(num, den)

    monkeypatch.setattr(torus, "_normalize", counted)
    for family in families:
        for a in family:
            for b in family:
                a.commutator(b)
    assert calls == []


@pytest.mark.parametrize("affine", [False, True])
def test_planted_non_commuting_pair_reports_its_residual(affine, monkeypatch):
    # drop one (m, mu) point from the second operator of the N = 4 family
    family = toda_family(4, affine)
    op = family[1]
    mu = sorted(op.terms)[1]
    family[1] = DiffOp(op.n, {nu: f for nu, f in op.terms.items()
                              if nu != mu}, op.mode)
    want = []
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            a, b = family[i], family[j]
            ref = reference_compose(a, b) - reference_compose(b, a)
            assert a.commutator(b).to_json() == ref.to_json()
            if not ref.is_zero:
                want.append({"pair": (i + 1, j + 1), "ok": False,
                             "residual": ref.to_json()})
    assert want
    monkeypatch.setattr(engine, "toda_family", lambda n, affine: family)
    check, = cli.suite_commute(4, affine).checks
    assert check["status"] == "fail"
    assert check["residual"] == want


def drop_points(op, drop):
    """op without the coefficient monomials whose positions, in sorted
    (mu, lam) order, are in drop."""
    points = sorted((mu, lam) for mu, f in op.terms.items()
                    for lam in f.num.terms)
    terms = {}
    for i, (mu, lam) in enumerate(points):
        if i not in drop:
            terms.setdefault(mu, {})[lam] = op.terms[mu].num.terms[lam]
    return DiffOp(op.n, {mu: TorusPoly(op.n, poly)
                         for mu, poly in terms.items()}, op.mode)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_commutator_matches_reference_on_perturbed_families(data):
    # two members of a family with random points dropped, and sometimes
    # one coefficient scaled off the weights so that the exact path runs
    n = data.draw(st.integers(min_value=3, max_value=5))
    family = toda_family(n, data.draw(st.booleans()))
    i = data.draw(st.integers(min_value=0, max_value=len(family) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(family) - 1))
    a, b = (drop_points(op, data.draw(st.sets(st.integers(0, 9),
                                              max_size=3)))
            for op in (family[i], family[j]))
    scale = data.draw(st.sampled_from([None, 2, Q(1)]))
    if scale is not None and a.terms:
        mu = data.draw(st.sampled_from(sorted(a.terms)))
        a = DiffOp(n, {**a.terms, mu: a.terms[mu] * scale}, a.mode)
    if data.draw(st.booleans()):
        a, b = b, a
    ref = reference_compose(a, b) - reference_compose(b, a)
    assert a.commutator(b).to_json() == ref.to_json()


def test_family_commutators_take_the_signed_table(monkeypatch):
    # unit-weight operands never reach the exact fallback: neither
    # compose nor a TorusRat sum runs, and every commutator is zero
    families = [toda_family(5, affine) for affine in (False, True)]

    def never(*args):
        raise AssertionError("exact commutator path taken")

    monkeypatch.setattr(DiffOp, "compose", never)
    monkeypatch.setattr(TorusRat, "__add__", never)
    for family in families:
        for a in family:
            for b in family:
                assert a.commutator(b).is_zero


def test_family_differences_merge_without_negation(monkeypatch):
    # a b - b a merges the terms of b a with a minus sign into a copy of
    # a b at every layer: no negated copy, no scalar sum and no normalised
    # quotient is made, and every difference is zero
    families = [toda_family(5, affine) for affine in (False, True)]

    def never(*args):
        raise AssertionError("negated copy, sum or quotient in a difference")

    for cls in (LaurentQK, TorusPoly, TorusRat):
        monkeypatch.setattr(cls, "__neg__", never)
    monkeypatch.setattr(LaurentQK, "__add__", never)
    monkeypatch.setattr(torus, "_normalize", never)
    for family in families:
        for a in family:
            for b in family:
                assert (a.compose(b) - b.compose(a)).is_zero


def laurents():
    term = st.tuples(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-1, max_value=1),
        st.fractions(min_value=-3, max_value=3, max_denominator=3))
    return st.lists(term, max_size=3).map(
        lambda ts: LaurentQK({(q2, k): c for q2, k, c in ts}))


def sl_torus_polys(n=3):
    exp = st.tuples(*[st.integers(min_value=-1, max_value=1)] * (n - 1)).map(
        lambda head: head + (-sum(head),))
    return st.dictionaries(exp, laurents(), max_size=3).map(
        lambda terms: TorusPoly(n, terms))


def torus_rats(n=3):
    """Polynomials over 1 or over 1 + e^(lam), lam a root."""
    def build(num, lam):
        if lam is None:
            return TorusRat(num)
        return TorusRat(num, TorusPoly.monomial(n, lam) + 1)
    return st.builds(build, sl_torus_polys(n), st.sampled_from(
        [None, cyclic_root(n, 1), cyclic_root(n, 2), (1, 0, -1)]))


def differential_ops(n=3):
    """Derivative indices up to order 2 with sl-torus coefficients."""
    gamma = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
    return st.dictionaries(gamma, sl_torus_polys(n), max_size=3).map(
        lambda terms: DifferentialOp(n, terms))


DIFFERENCE_LAYERS = {
    "scalar": lambda mode: laurents(),
    "poly": lambda mode: sl_torus_polys(),
    "rat": lambda mode: torus_rats(),
    "diffop": lambda mode: st.one_of(
        small_ops(mode=mode), rational_ops(mode=mode), weight_ops(3, mode)),
    "differential": lambda mode: differential_ops(),
}


@pytest.mark.parametrize("layer,mode", [
    ("scalar", GL), ("poly", GL), ("rat", GL), ("diffop", GL),
    ("diffop", SL_QUOTIENT), ("differential", GL)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_difference_matches_sum_with_negation(layer, mode, data):
    # y is independent of x, x itself, or x plus a perturbation, so that
    # keys are shared and cancel
    values = DIFFERENCE_LAYERS[layer](mode)
    x = data.draw(values)
    y = data.draw(st.one_of(values, st.just(x), values.map(lambda z: x + z)))
    assert (x - y).to_json() == (x + (-y)).to_json()
    assert (x - x).is_zero
    assert (x - x).to_json() == (x + (-x)).to_json()


# a value of each type with a non-unit denominator, and how a scalar lifts
# to it; a differential operator has no product with its constants, so
# there the scalar stays a LaurentQK
E12 = TorusPoly.monomial(2, (1, -1))
MIXED = {
    "poly": (E12 * Q(1) + 2, lambda s: TorusPoly.constant(2, s)),
    "rat": (TorusRat(E12, E12 + 1),
            lambda s: TorusRat(TorusPoly.constant(2, s))),
    "diffop": (DiffOp(2, {(1, 0): TorusRat(E12, E12 + 1), (0, 0): 3}),
               lambda s: DiffOp(2, {(0, 0): s})),
    "differential": (DifferentialOp(2, {(1, 0): E12 * Q(1) + 2, (0, 0): 3}),
                     lambda s: LaurentQK.rational(s)
                     if isinstance(s, int) else s),
}


@pytest.mark.parametrize("scalar", [3, Q(1)], ids=["int", "laurent"])
@pytest.mark.parametrize("kind", sorted(MIXED))
def test_scalar_arithmetic_in_every_order(kind, scalar):
    x, lift = MIXED[kind]
    c = lift(scalar)
    for got, want in ((scalar + x, c + x), (x + scalar, x + c),
                      (scalar - x, c - x), (x - scalar, x - c),
                      (scalar * x, c * x), (x * scalar, x * c)):
        assert type(got) is type(x)
        assert got.to_json() == want.to_json()
    assert (scalar - x).to_json() == (-(x - scalar)).to_json()


@pytest.mark.parametrize("x", [ONE] + [MIXED[k][0] for k in sorted(MIXED)],
                         ids=["scalar"] + sorted(MIXED))
def test_arithmetic_with_a_non_number_raises(x):
    for fn in (lambda: x + "x", lambda: "x" + x, lambda: x - "x",
               lambda: "x" - x, lambda: x * "x", lambda: x * 0.5):
        with pytest.raises(TypeError):
            fn()


@pytest.mark.parametrize("make", [
    TorusPoly.one, TorusRat.one, DiffOp.identity,
    lambda n: DifferentialOp(n, {(0,) * n: 1})],
    ids=["poly", "rat", "diffop", "differential"])
def test_rank_mismatch_compares_unequal(make):
    # the same value at ranks 2 and 3: unequal either way round, no error
    a, b = make(2), make(3)
    assert not a == b and not b == a
    assert a != b and b != a


def test_function_times_operator_on_either_side():
    # on the left a function multiplies every coefficient; on the right
    # it moves past T_mu first: T_1 e^(z1 - z2) = q e^(z1 - z2) T_1
    n = 2
    t = DiffOp.shift(n, (1, 0))
    g = TorusRat.monomial(n, (1, -1))
    assert (g * t).to_json() == DiffOp(n, {(1, 0): g}).to_json()
    assert (g.num * t).to_json() == (g * t).to_json()
    assert (t * g).to_json() == DiffOp(n, {(1, 0): g * Q(1)}).to_json()
    assert (t * g.num).to_json() == (t * g).to_json()
    assert (t + g).to_json() == (g + t).to_json() == \
        DiffOp(n, {(1, 0): 1, (0, 0): g}).to_json()
    # a polynomial and a quotient mix in either order
    r = TorusRat(E12, E12 + 1)
    assert (E12 + r).to_json() == (r + E12).to_json() == \
        TorusRat(E12 * E12 + E12 * 2, E12 + 1).to_json()
    assert (E12 - r).to_json() == (-(r - E12)).to_json()
    assert (E12 * r).to_json() == (r * E12).to_json()


def test_compose_shift_past_coefficient():
    n = 2
    t1 = DiffOp.shift(n, (1, 0))
    f = DiffOp(n, {(0, 0): root_mono(n, (1, -1))})
    assert t1 * f == DiffOp(n, {(1, 0): root_mono(n, (1, -1), Q(1))})
    ident = DiffOp.identity(n)
    assert ident * t1 == t1 and t1 * ident == t1
    # orthogonal pairing: T1 T2 commutes with e^(z1 - z2)
    t12 = DiffOp.shift(n, (1, 1))
    assert t12.commutator(f).is_zero


def test_shifts_commute():
    n = 3
    a = DiffOp.shift(n, (1, 0, 0))
    b = DiffOp.shift(n, (0, 0, 2))
    assert a.commutator(b).is_zero
    assert a.commutator(a).is_zero


def test_operator_is_not_equal_to_a_bare_scalar():
    # operators hash their shift keys only, so they do not equal scalars
    ident = DiffOp.identity(2)
    assert ident.__eq__(1) is NotImplemented
    assert ident != 1 and DiffOp.zero(2) != 0
    assert ident != ONE and len({ident, 1}) == 2
    assert ident == DiffOp(2, {(0, 0): 1})
    assert hash(ident) == hash(DiffOp(2, {(0, 0): 1}))


def test_mixed_algebras_rejected():
    a = DiffOp.shift(2, (1, 0))
    b = DiffOp.shift(3, (1, 0, 0))
    with pytest.raises(DiffOpError):
        a.compose(b)
    c = DiffOp.shift(2, (1, 1), mode=SL_QUOTIENT)
    with pytest.raises(DiffOpError):
        a.compose(c)


@settings(max_examples=40, deadline=None)
@given(small_ops(), small_ops(), small_ops())
def test_compose_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(small_ops(), small_ops())
def test_gauge_monomial_is_multiplicative(a, b):
    lam = (1, -2, 1)
    assert (a * b).gauge_monomial(lam) == (
        a.gauge_monomial(lam) * b.gauge_monomial(lam))


def test_gauge_monomial_basics():
    n = 2
    t = DiffOp.shift(n, (1, 0))
    assert t.gauge_monomial((0, 0)) == t
    f = DiffOp(n, {(0, 0): root_mono(n, (1, -1))})
    assert f.gauge_monomial((5, -3)) == f
    from fractions import Fraction
    half = (Fraction(1, 2), Fraction(-1, 2))
    assert t.gauge_monomial(half) == DiffOp(
        n, {(1, 0): TorusRat(TorusPoly.constant(n, LaurentQK.q_half(-1)))})
    with pytest.raises(DiffOpError):
        t.gauge_monomial((Fraction(1, 3), 0))


def test_quotient_reduce():
    n = 2
    assert DiffOp.shift(n, (1, 1)).quotient_reduce() == \
        DiffOp.identity(n, SL_QUOTIENT)
    two = DiffOp.shift(n, (2, 0)) + DiffOp.shift(n, (0, 2))
    assert len(two.quotient_reduce().terms) == 2
    bad = DiffOp(n, {(0, 0): root_mono(n, (1, 0))})
    with pytest.raises(DiffOpError):
        bad.quotient_reduce()


def test_quotient_mode_guards():
    n = 2
    # coefficients that do not descend to the quotient are rejected
    with pytest.raises(DiffOpError):
        DiffOp(n, {(0, 0): root_mono(n, (1, 0))}, SL_QUOTIENT)
    # a balanced homogeneous ratio is fine even when inhomogeneous-looking
    num = TorusPoly.monomial(n, (1, 0)) - TorusPoly.monomial(n, (0, 1))
    DiffOp(n, {(0, 0): TorusRat(num, num)}, SL_QUOTIENT)
    # gauge vectors must have zero sum on the quotient
    op = DiffOp.shift(n, (2, 0), mode=SL_QUOTIENT)
    with pytest.raises(DiffOpError):
        op.gauge_monomial((1, 0))
    op.gauge_monomial((1, -1))


@settings(max_examples=30, deadline=None)
@given(small_ops(), small_ops())
def test_quotient_respects_products(a, b):
    assert (a * b).quotient_reduce() == \
        a.quotient_reduce() * b.quotient_reduce()


def test_json_round_trip():
    n = 3
    op = DiffOp(n, {
        (2, 0, 0): root_mono(n, (0, 0, 0), Q(1)),
        (1, 1, 0): root_mono(n, (1, -1, 0), Q(-1) * -1),
    })
    back = DiffOp.from_json(op.to_json())
    assert back == op


# -- generator automorphism ---------------------------------------------------

def unit_shift(n, j):
    return DiffOp.shift(n, tuple(int(i == j) for i in range(1, n + 1)))


def root_exp(n, i):
    return DiffOp(n, {(0,) * n: root_mono(n, cyclic_root(n, i))})


def cone_ops(n=3):
    """Random operators whose coefficient exponents are nonnegative
    combinations of alpha_1..alpha_(N-1): their windings add under
    products."""
    entry = st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=2)] * (n - 1)),
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * n),
        st.fractions(min_value=-3, max_value=3, max_denominator=2))
    def build(entries):
        op = DiffOp.zero(n)
        for m, mu, c in entries:
            lam = root_form(m + (0,))
            op = op + DiffOp.shift(
                n, mu, root_mono(n, lam, LaurentQK.rational(c)))
        return op
    return st.lists(entry, min_size=1, max_size=3).map(build)


def test_automorphism_on_generators():
    n = 3
    for j in range(1, n + 1):
        t = unit_shift(n, j)
        assert sect6_automorphism(t) == t
    for i in range(1, n + 1):
        e = root_exp(n, i)
        assert sect6_automorphism(e) == \
            e * DiffOp.shift(n, cyclic_root(n, i))


@settings(max_examples=40, deadline=None)
@given(cone_ops(), cone_ops())
def test_automorphism_respects_products(a, b):
    assert sect6_automorphism(a * b) == \
        sect6_automorphism(a) * sect6_automorphism(b)


def test_automorphism_is_not_multiplicative_around_the_cycle():
    # e^(alpha_1) e^(alpha_2) e^(alpha_3) = 1 is fixed, while the product
    # of the images picks up q^(alpha_2 . alpha_1 + alpha_3 . (alpha_1 +
    # alpha_2)) = q^(-3): windings (1, 1, 1) do not lift to (0, 0, 0)
    n = 3
    e1, e2, e3 = (root_exp(n, i) for i in (1, 2, 3))
    assert e1 * e2 * e3 == DiffOp.identity(n)
    assert sect6_automorphism(e1 * e2 * e3) == DiffOp.identity(n)
    images = [sect6_automorphism(e) for e in (e1, e2, e3)]
    assert images[0] * images[1] * images[2] == DiffOp.identity(n) * Q(-3)


def test_automorphism_reordering_consistency():
    # images of generator relation instances agree however the monomial is
    # assembled: T_j E_i versus its reordered form q^(alpha_i . e_j) E_i T_j
    n = 4
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            e = root_exp(n, i)
            t = unit_shift(n, j)
            assert sect6_automorphism(t * e) == \
                sect6_automorphism(t) * sect6_automorphism(e)


def test_automorphism_on_diffop_single_root():
    n = 3
    # e^(z1-z2) * Id maps to e^(z1-z2) T_1 T_2^(-1)
    op = DiffOp(n, {(0, 0, 0): root_mono(n, (1, -1, 0))}, SL_QUOTIENT)
    img = sect6_automorphism(op)
    assert img == DiffOp(n, {(1, -1, 0): root_mono(n, (1, -1, 0))},
                         SL_QUOTIENT)
    bad = DiffOp(n, {(0, 0, 0): root_mono(n, (1, 0, 0))})
    with pytest.raises(DiffOpError, match="root lattice"):
        sect6_automorphism(bad)
    rat = DiffOp(n, {(0, 0, 0): TorusRat(
        TorusPoly.one(n), TorusPoly.monomial(n, (1, -1, 0)) + 1)})
    with pytest.raises(DiffOpError, match="non-polynomial"):
        sect6_automorphism(rat)


@pytest.mark.parametrize("affine", [False, True], ids=["finite", "affine"])
@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6)
                                 for k in range(1, n)])
def test_automorphism_goldens(n, k, affine):
    # canonical JSON of the image of every engine operator up to N=5
    name = "toda_n%d_k%d_%s.json" % (n, k, "affine" if affine else "finite")
    with open(osp.join(GOLDEN_AUT, name)) as fh:
        want = fh.read()
    img = sect6_automorphism(build_toda_operator(n, k, affine))
    assert canonical_json(img.to_json()) == want


@pytest.mark.parametrize("m,power", [
    ((2, 0, 0), 2), ((1, 1, 0), -1), ((0, 1, 1), -1), ((1, 0, 1), -1),
    ((2, 1, 0), 0)])
def test_automorphism_q_powers(m, power):
    # e^(lam) with lam = sum_i m_i alpha_i maps to q^(s(m)) e^(lam) T_lam;
    # engine operators never reach s(m) != 0, so their goldens cannot
    # pin these powers
    n, mu = 3, (1, 0, -2)
    lam = root_form(m)
    op = DiffOp(n, {mu: root_mono(n, lam)})
    assert sect6_automorphism(op) == DiffOp(
        n, {vadd(mu, lam): root_mono(n, lam, Q(power))})


# -- square-root gauge conjugation -------------------------------------------

PSI_FORMS = [(1, -1)]


def conjugate(n, coeffs):
    return conjugate_by_factor_product((n, GL, coeffs), PSI_FORMS)


def test_conjugation_identity_and_square_root_matching():
    n = 2
    assert conjugate(n, {(0, 0): {}}) == DiffOp.identity(n)
    # a bare shift picks up a single square-root symbol: not resolvable
    with pytest.raises(UnresolvedFactorError):
        conjugate(n, {(2, 0): {}})
    # a matching f in the operand coefficient cancels the ratio exactly
    conj = conjugate(n, {(2, 0): {((1, -1), 0): 1}})
    assert conj == DiffOp(n, {(2, 0): TorusRat.one(n)})
    # squared symbols resolve to the 1 + g^2 e^a polynomial, g^2 in the K
    # slot
    g2 = LaurentQK.k(1)
    conj2 = conjugate(n, {(2, 0): {((1, -1), 0): 3}})
    expected = TorusRat(
        TorusPoly.one(n) + TorusPoly.monomial(n, (1, -1), g2))
    assert conj2 == DiffOp(n, {(2, 0): expected})
    # a negative step divides by the symbol one step below the argument
    with pytest.raises(UnresolvedFactorError):
        conjugate(n, {(-2, 0): {}})
    conj_down = conjugate(n, {(-2, 0): {((1, -1), -2): 1}})
    below = TorusRat(TorusPoly.one(n)
                     + TorusPoly.monomial(n, (1, -1), g2 * Q(-2)))
    assert conj_down == DiffOp(n, {(-2, 0): below})


def test_conjugation_multi_step_offsets():
    # a move by t steps touches offsets 0, 2, ..., 2(t-1) for t > 0 and
    # 2t, ..., -2 for t < 0, one symbol each
    n = 2
    up = {((1, -1), 0): 1, ((1, -1), 2): 1}
    assert conjugate(n, {(4, 0): up}) == DiffOp.shift(n, (4, 0))
    down = {((1, -1), -4): -1, ((1, -1), -2): -1}
    assert conjugate(n, {(-4, 0): down}) == DiffOp.shift(n, (-4, 0))
    with pytest.raises(UnresolvedFactorError):
        conjugate(n, {(4, 0): {((1, -1), 0): 1}})


def test_conjugation_error_cases():
    n = 2
    with pytest.raises(DiffOpError):
        conjugate(n, {(1, 0): {}})
    # a single unmatched square root cannot be resolved
    with pytest.raises(UnresolvedFactorError):
        conjugate(n, {(0, 0): {((1, -1), 0): 1}})
