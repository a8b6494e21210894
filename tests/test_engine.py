import hashlib
import json
import os.path as osp

import pytest

from qtoda.cli import canonical_json
from qtoda.scalars import LaurentQK
from qtoda.torus import TorusRat
from qtoda.diffop import DiffOp, DiffOpError, SL_QUOTIENT
from qtoda.qrep import (
    DynkinData, Orientation, QRepError, fundamental_rep, weyl_vector,
)
from qtoda import engine
from qtoda.engine import (
    EngineConfig, build_toda_operator, expand_central_words,
    verify_commuting_family, whittaker_reduce, words_to_json,
)

import pbw_sl2

GOLDEN = osp.join(osp.dirname(osp.abspath(__file__)), "golden")
GOLDEN_OPS = osp.join(GOLDEN, "operators")
GOLDEN_RAW = osp.join(GOLDEN, "raw")

Q = LaurentQK.q
C2 = (Q(1) - Q(-1)) ** 2


def closed_form_rank_one(n, affine):
    """The published closed form of the first operator:
    sum_j T_j^2 - (q - q^(-1))^2 sum_i K^[i=N] e^(z_i - z_(i+1)) T_i T_(i+1),
    cyclic in the affine case."""
    terms = {}
    for j in range(n):
        mu = [0] * n
        mu[j] = 2
        terms[tuple(mu)] = TorusRat.one(n)
    op = DiffOp(n, terms, SL_QUOTIENT)
    top = n if affine else n - 1
    for i in range(1, top + 1):
        lam = [0] * n
        lam[i - 1] += 1
        lam[i % n] -= 1
        mu = [0] * n
        mu[i - 1] += 1
        mu[i % n] += 1
        scal = -C2 * (LaurentQK.k(1) if (affine and i == n) else 1)
        op = op + DiffOp(n, {tuple(mu): TorusRat.monomial(n, tuple(lam), scal)},
                         SL_QUOTIENT)
    return op


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("affine", [False, True])
def test_rank_one_closed_form(n, affine):
    assert build_toda_operator(n, 1, affine) == closed_form_rank_one(n, affine)


@pytest.mark.parametrize("affine", [False, True], ids=["finite", "affine"])
@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7)
                                 for k in range(1, n)])
def test_operator_goldens(n, k, affine):
    # canonical JSON of every engine operator up to N=6, byte for byte
    name = "toda_n%d_k%d_%s.json" % (n, k, "affine" if affine else "finite")
    with open(osp.join(GOLDEN_OPS, name)) as fh:
        want = fh.read()
    assert canonical_json(build_toda_operator(n, k, affine).to_json()) == want


@pytest.mark.parametrize("affine", [False, True], ids=["finite", "affine"])
@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7)
                                 for k in range(1, n)])
def test_raw_operator_goldens(n, k, affine):
    # the reduction before the Weyl-vector gauge and the quotient
    name = "toda_n%d_k%d_%s.json" % (n, k, "affine" if affine else "finite")
    with open(osp.join(GOLDEN_RAW, name)) as fh:
        want = fh.read()
    op = build_toda_operator(n, k, affine, raw=True)
    assert canonical_json(op.to_json()) == want


@pytest.mark.parametrize("raw", [False, True], ids=["gauged", "raw"])
@pytest.mark.parametrize("n", [7, 8])
def test_operator_digests(n, raw):
    # sha256 of the canonical JSON of every engine operator at N=7 and 8,
    # past the byte-for-byte goldens, which stop at N=6
    with open(osp.join(GOLDEN, "operators_sha256.json")) as fh:
        want = json.load(fh)
    for k in range(1, n):
        for affine in (False, True):
            name = "n%d_k%d_%s%s" % (n, k, "affine" if affine else "finite",
                                     "_raw" if raw else "")
            op = build_toda_operator(n, k, affine, raw=raw)
            text = canonical_json(op.to_json())
            assert hashlib.sha256(text.encode()).hexdigest() == want[name], \
                name


def test_trace_word_digests():
    # every trace word, its coefficient and its position in the list: a
    # reordered or dropped word changes the digest
    with open(osp.join(GOLDEN_RAW, "words_sha256.json")) as fh:
        want = json.load(fh)
    got = {}
    for n in range(2, 6):
        for k in range(1, n):
            for affine in (False, True):
                cfg = EngineConfig(n=n, k=k, affine=affine)
                words = expand_central_words(
                    fundamental_rep(n, k, affine), cfg)
                text = canonical_json(words_to_json(words))
                got["n%d_k%d_%s" % (n, k, "affine" if affine else "finite")] \
                    = hashlib.sha256(text.encode()).hexdigest()
    assert got == want


def three_pass_oracle(n, k, affine):
    """The reduction, then the Weyl-vector gauge and the quotient as
    separate passes over the whole operator."""
    cfg = EngineConfig(n=n, k=k, affine=affine)
    op = whittaker_reduce(
        expand_central_words(fundamental_rep(n, k, affine), cfg), cfg)
    return op.gauge_monomial(weyl_vector(n)).quotient_reduce()


@pytest.mark.parametrize("affine", [False, True], ids=["finite", "affine"])
@pytest.mark.parametrize("n", range(2, 8))
def test_build_matches_three_pass_oracle(n, affine):
    for k in range(1, n):
        want = three_pass_oracle(n, k, affine)
        got = build_toda_operator(n, k, affine)
        assert canonical_json(got.to_json()) == \
            canonical_json(want.to_json())


def test_quotient_rejects_non_zero_sum_coefficients(monkeypatch):
    # a root sum off the zero-sum lattice must not reach the quotient
    root_sum = engine._root_sum

    def skewed(dynkin, nodes):
        total = root_sum(dynkin, nodes)
        return (total[0] + 1,) + total[1:]

    monkeypatch.setattr(engine, "_root_sum", skewed)
    with pytest.raises(DiffOpError):
        build_toda_operator(3, 1)
    build_toda_operator(3, 1, raw=True)


def test_exterior_square_sl3_hand_value():
    # derived by hand from the trace expansion and cross-checked against
    # commutation with the first operator
    n = 3
    expected = DiffOp(n, {
        (2, 2, 0): TorusRat.one(n),
        (2, 0, 2): TorusRat.one(n),
        (0, 2, 2): TorusRat.one(n),
        (1, 1, 2): TorusRat.monomial(n, (1, -1, 0), -C2),
        (2, 1, 1): TorusRat.monomial(n, (0, 1, -1), -C2),
    }, SL_QUOTIENT)
    assert build_toda_operator(3, 2) == expected


def test_word_counts_rank_one():
    for n in (2, 3, 4, 5):
        cfg = EngineConfig(n=n, k=1)
        words = expand_central_words(fundamental_rep(n, 1), cfg)
        assert len(words) == n + (n - 1)
        cfga = EngineConfig(n=n, k=1, affine=True)
        words_a = expand_central_words(
            fundamental_rep(n, 1, affine=True), cfga)
        assert len(words_a) == 2 * n
        assert all(w.z_degree == 0 for w in words_a)


def test_words_for_smallest_case():
    cfg = EngineConfig(n=2, k=1)
    words = expand_central_words(fundamental_rep(2, 1), cfg)
    cartan = [w for w in words if not w.e_nodes]
    cross = [w for w in words if w.e_nodes]
    assert len(cartan) == 2 and len(cross) == 1
    assert {(w.pre, w.post) for w in cartan} == {((1, 0), (1, 0)),
                                                 ((0, 1), (0, 1))}
    assert all(w.coeff.is_one for w in cartan)
    w = cross[0]
    assert w.f_nodes == (1,) and w.e_nodes == (1,)
    assert (w.pre, w.post) == ((0, 1), (1, 0))
    # (q - q^(-1))^2 times the prefix-normalization power q^(pre . alpha_1)
    assert w.coeff == C2 * Q(-1)
    assert words_to_json(words)


def predicted_word_count(n, k, affine):
    """Independent combinatorial oracle: one word per pair (A, S) with A a
    pairwise non-adjacent node set and S a basis subset satisfying, for
    each i in A, that the raising source lies in S and its target does
    not (node 0 reads as the wrap pair: N in S, 1 not in S)."""
    from itertools import combinations
    dynkin = DynkinData(n, affine)
    total = 0
    for r in range(len(dynkin.nodes) + 1):
        for A in combinations(dynkin.nodes, r):
            if any(dynkin.adjacent(a, b) for a in A for b in A if a < b):
                continue
            for S in combinations(range(1, n + 1), k):
                S = set(S)
                if all((n in S and 1 not in S) if i == 0 else
                       (i in S and i + 1 not in S) for i in A):
                    total += 1
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("affine", [False, True])
def test_word_counts_match_combinatorial_oracle(n, affine):
    for k in range(1, n):
        cfg = EngineConfig(n=n, k=k, affine=affine)
        words = expand_central_words(fundamental_rep(n, k, affine), cfg)
        assert len(words) == predicted_word_count(n, k, affine)


def test_letter_sets_are_pairwise_nonadjacent():
    # the consecutivity argument: surviving words use commuting letter sets
    for n, k, affine in [(4, 2, False), (4, 2, True), (5, 2, False),
                         (5, 3, False), (4, 3, True)]:
        cfg = EngineConfig(n=n, k=k, affine=affine)
        dynkin = cfg.dynkin
        words = expand_central_words(fundamental_rep(n, k, affine), cfg)
        for w in words:
            assert sorted(w.e_nodes) == sorted(w.f_nodes)
            nodes = list(w.e_nodes)
            for a in range(len(nodes)):
                for b in range(a + 1, len(nodes)):
                    assert not dynkin.adjacent(nodes[a], nodes[b])


def test_total_shift_degree_constant():
    for n, k in [(3, 1), (3, 2), (4, 2), (5, 3)]:
        op = build_toda_operator(n, k, raw=True)
        degrees = {sum(mu) for mu in op.terms}
        assert degrees == {2 * k}
        for f in op.terms.values():
            assert f.num.is_sl() and f.den.is_sl()


@pytest.mark.parametrize("n,affine", [(2, False), (2, True), (3, False),
                                      (3, True), (4, True)])
def test_commuting_family(n, affine):
    report = verify_commuting_family(n, affine)
    assert report["ok"], report


@pytest.mark.slow
def test_commuting_family_n4_finite():
    assert verify_commuting_family(4, False)["ok"]


@pytest.mark.slow
def test_commuting_family_large_rank():
    assert verify_commuting_family(5, True)["ok"]
    assert verify_commuting_family(6, False)["ok"]


def test_affine_at_k_zero_is_finite():
    for n in (2, 3, 4):
        for k in range(1, n):
            affine = build_toda_operator(n, k, affine=True)
            assert affine.substitute_k(0) == build_toda_operator(n, k)


def test_reduce_of_empty_word_list_is_zero():
    cfg = EngineConfig(n=3, k=1)
    assert whittaker_reduce([], cfg).is_zero


def test_symbolic_beta_grading():
    # grading keys are the matched letter sets; substituting the character
    # normalization reproduces the plain reduction, for the default
    # normalization and for a distinct q and K monomial at every node
    n, k = 4, 2
    for affine in (False, True):
        custom = {i: LaurentQK.monomial(-(i + 2), q2=2 * i + 1, k=i + 1)
                  for i in range(0 if affine else 1, n)}
        plain = {}
        for beta in ({}, custom):
            cfg = EngineConfig(n=n, k=k, affine=affine, beta=dict(beta))
            words = expand_central_words(fundamental_rep(n, k, affine), cfg)
            graded = whittaker_reduce(words, cfg, symbolic_beta=True)
            assert () in graded
            assert any(len(key) == 2 for key in graded)
            total = DiffOp.zero(n)
            for key, part in graded.items():
                prod = LaurentQK.one()
                for i in key:
                    prod = prod * cfg.beta[i]
                total = total + part * prod
            plain[bool(beta)] = whittaker_reduce(words, cfg)
            assert total == plain[bool(beta)]
        assert plain[True] != plain[False]


@pytest.mark.parametrize("raw", [False, True], ids=["gauged", "raw"])
@pytest.mark.parametrize("affine", [False, True], ids=["finite", "affine"])
def test_symbolic_beta_digests(affine, raw):
    # sha256 of the canonical JSON of every graded part at N=4, every k,
    # keyed by its matched letter set
    n = 4
    with open(osp.join(GOLDEN, "symbolic_sha256.json")) as fh:
        data = json.load(fh)
    family = "%s%s" % ("affine" if affine else "finite", "_raw" if raw else "")
    want = {key: digest for key, digest in data.items()
            if key.split("/")[0].split("_", 2)[2] == family}
    got = {}
    for k in range(1, n):
        cfg = EngineConfig(n=n, k=k, affine=affine)
        words = expand_central_words(fundamental_rep(n, k, affine), cfg)
        graded = whittaker_reduce(words, cfg, symbolic_beta=True, raw=raw)
        for key, part in graded.items():
            name = "n%d_k%d_%s/%s" % (n, k, family, ",".join(map(str, key)))
            text = canonical_json(part.to_json())
            got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert want and got == want


def test_orientation_extension_independence():
    # an orientation with incomparable nodes: 1 -> 2 <- 3 (finite A_3),
    # whose two total-order extensions must give identical operators
    dynkin = DynkinData(4)
    edges = [(1, 2), (3, 2)]
    ext = Orientation(dynkin, edges, (1, 3, 2)).extensions()
    assert sorted(ext) == [(1, 3, 2), (3, 1, 2)]
    ops = []
    for order in ext:
        o = Orientation(dynkin, edges, order)
        ops.append([build_toda_operator(4, k, orientation=o)
                    for k in (1, 2, 3)])
    assert ops[0] == ops[1]
    # the family for the nonstandard orientation still commutes
    for a in range(3):
        for b in range(a + 1, 3):
            assert ops[0][a].commutator(ops[0][b]).is_zero


def all_acyclic_orientations(n, affine):
    from itertools import permutations, product
    d = DynkinData(n, affine)
    pairs = sorted({frozenset((i, j)) for i in d.nodes for j in d.nodes
                    if i < j and d.adjacent(i, j)}, key=sorted)
    out = []
    for dirs in product((0, 1), repeat=len(pairs)):
        edges = []
        for pair, flip in zip(pairs, dirs):
            a, b = sorted(pair)
            edges.append((b, a) if flip else (a, b))
        for order in permutations(d.nodes):
            pos = {v: i for i, v in enumerate(order)}
            if all(pos[t] < pos[h] for t, h in edges):
                out.append(Orientation(d, edges, order))
                break
    return out


@pytest.mark.parametrize("affine", [False, True])
def test_every_acyclic_orientation_commutes(affine):
    # the construction is supposed to work for any acyclic orientation;
    # for these exterior powers the outputs even coincide, since every
    # surviving word uses pairwise-commuting letters
    orientations = all_acyclic_orientations(4, affine)
    assert len(orientations) == (14 if affine else 4)
    outputs = set()
    for o in orientations:
        fam = [build_toda_operator(4, k, affine, orientation=o)
               for k in (1, 2, 3)]
        for a in range(3):
            for b in range(a + 1, 3):
                assert fam[a].commutator(fam[b]).is_zero
        outputs.add(tuple(fam))
    assert len(outputs) == 1


def test_affine_orientation_extension_independence():
    dynkin = DynkinData(4, affine=True)
    edges = [(0, 1), (0, 3), (1, 2), (3, 2)]
    orders = Orientation(dynkin, edges, (0, 1, 3, 2)).extensions()
    assert len(orders) >= 2
    results = set()
    for order in orders:
        o = Orientation(dynkin, edges, order)
        results.add(build_toda_operator(4, 2, affine=True, orientation=o))
    assert len(results) == 1


def test_invalid_ranks_rejected():
    with pytest.raises(QRepError):
        build_toda_operator(1, 1)
    with pytest.raises(QRepError):
        build_toda_operator(3, 0)
    with pytest.raises(QRepError):
        build_toda_operator(3, 3)


# -- independent rank-one oracle ----------------------------------------------

def test_pbw_oracle_centrality():
    for presentation in ("faithful", "plain"):
        elem = pbw_sl2.central_element(presentation)
        assert pbw_sl2.is_central(elem), presentation


def test_pbw_oracle_reproduces_engine():
    engine_op = build_toda_operator(2, 1)
    for presentation in ("faithful", "plain"):
        elem = pbw_sl2.central_element(presentation)
        assert pbw_sl2.reduce_to_operator(elem) == engine_op, presentation


def test_pbw_oracle_flags_nonzero_weight():
    e, f, _, _ = pbw_sl2.generators()
    with pytest.raises(ValueError):
        pbw_sl2.reduce_to_operator(e)
