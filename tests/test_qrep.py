import random
from fractions import Fraction

import pytest

from qtoda.scalars import LaurentQK
from qtoda.torus import cyclic_root
from qtoda.qrep import (
    DynkinData, Orientation, QRepError, build_orientation, fundamental_rep,
    qp_normal_order, rho_pairing2, verify_serre_homomorphism, weyl_vector,
)

Q = LaurentQK.q


def test_build_orientation_shapes():
    o2 = build_orientation(2)
    assert o2.dynkin.nodes == (1,) and not o2.edges
    o3a = build_orientation(3, affine=True)
    assert sorted(o3a.edges.values()) == [(0, 1), (0, 2), (1, 2)]
    assert o3a.order == (0, 1, 2)


def test_directed_cycle_is_rejected():
    dynkin = DynkinData(4, affine=True)
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for order in ((0, 1, 2, 3), (3, 2, 1, 0), (1, 2, 3, 0)):
        with pytest.raises(QRepError):
            Orientation(dynkin, cycle, order)


def test_affine_cartan_matrix():
    d2 = DynkinData(2, affine=True)
    assert d2.a(0, 1) == d2.a(1, 0) == -2
    d4 = DynkinData(4, affine=True)
    assert d4.a(0, 3) == -1 and d4.a(0, 2) == 0 and d4.a(1, 2) == -1


def test_weyl_vector_pairings():
    for n in (2, 3, 4, 5):
        dynkin = DynkinData(n)
        for i in dynkin.nodes:
            assert rho_pairing2(n, cyclic_root(n, i)) == 2
        assert sum(weyl_vector(n)) == 0


def test_qp_normal_order_single_relation():
    o = build_orientation(3)
    # x_2 x_1 = q^(-b_12) x_1 x_2 = q x_1 x_2
    scal, word = qp_normal_order((2, 1), o)
    assert word == (1, 2) and scal == Q(1)
    scal, word = qp_normal_order((3, 1), o)
    assert word == (1, 3) and scal == LaurentQK.one()
    scal, word = qp_normal_order((1, 2, 3), o)
    assert word == (1, 2, 3) and scal == LaurentQK.one()


def test_qp_normal_order_is_confluent():
    # sorting with randomly shuffled adjacent swaps must reproduce the
    # bubble-sort scalar: apply relations in random legal order
    o = build_orientation(4, affine=True)
    dynkin = o.dynkin
    rng = random.Random(7)

    def random_order(word):
        word = list(word)
        scal = LaurentQK.one()
        while True:
            bad = [a for a in range(len(word) - 1)
                   if word[a] > word[a + 1]]
            if not bad:
                return scal, tuple(word)
            a = rng.choice(bad)
            i, j = word[a], word[a + 1]
            if dynkin.adjacent(i, j):
                scal = scal * Q(o.sign(i, j) * dynkin.b(i, j))
            word[a], word[a + 1] = j, i

    for _ in range(40):
        word = tuple(rng.choice(dynkin.nodes) for _ in range(6))
        s1, w1 = qp_normal_order(word, o)
        s2, w2 = random_order(word)
        assert (w1, s1) == (w2, s2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("affine", [False, True])
def test_serre_homomorphism(n, affine):
    report = verify_serre_homomorphism(build_orientation(n, affine))
    assert report["ok"], report


def test_serre_fails_for_wrong_relation_signs():
    # flipping one edge against the stored total order is caught early
    dynkin = DynkinData(3)
    with pytest.raises(QRepError):
        Orientation(dynkin, [(2, 1)], (1, 2))


# -- representations -----------------------------------------------------------

def test_vector_rep_tables():
    rep = fundamental_rep(2, 1)
    assert rep.dim == 2
    assert rep.e_action[1] == {frozenset({2}): frozenset({1})}
    assert rep.f_action[1] == {frozenset({1}): frozenset({2})}
    rep42 = fundamental_rep(4, 2)
    assert rep42.dim == 6
    with pytest.raises(QRepError):
        fundamental_rep(3, 3)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
@pytest.mark.parametrize("affine", [False, True])
def test_rep_defining_relations(n, k, affine):
    rep = fundamental_rep(n, k, affine)
    assert rep.nilpotency_check()
    for i in rep.nodes:
        root = cyclic_root(n, i)
        for s, t in rep.e_action[i].items():
            dw = tuple(a - b for a, b in zip(rep.weight(t), rep.weight(s)))
            assert dw == root
        # e_i and f_i are mutually inverse bijections on their supports
        assert {t: s for s, t in rep.e_action[i].items()} == rep.f_action[i]
    # cross commutation [e_i, f_j] = 0 for i != j on 0/1 matrices
    for i in rep.nodes:
        for j in rep.nodes:
            if i == j:
                continue
            for s in rep.basis:
                path1 = rep.e_action[i].get(rep.f_action[j].get(s))
                path2 = rep.f_action[j].get(rep.e_action[i].get(s))
                assert path1 == path2


def test_rho_pairing2_rejects_non_integer_entries():
    # 2 rho . (1/2, 0) = 1/2 is not an integer; the check must be a real
    # exception, not an assert that vanishes under python -O
    with pytest.raises(QRepError):
        rho_pairing2(2, (Fraction(1, 2), 0))
    with pytest.raises(QRepError):
        rho_pairing2(3, (Fraction(1, 2), 0, Fraction(-1, 2)))


def test_rho_diagonal_for_vector_rep():
    # diagonal exponents for the vector representation are N+1-2j
    for n in (2, 3, 4, 5):
        rep = fundamental_rep(n, 1)
        assert [rep.weight_q2(frozenset({j})) for j in range(1, n + 1)] \
            == [n + 1 - 2 * j for j in range(1, n + 1)]


def test_action_dump_deterministic():
    rep = fundamental_rep(3, 2, affine=True)
    assert rep.action_dump() == rep.action_dump()
    assert "e_0" in rep.action_dump()
