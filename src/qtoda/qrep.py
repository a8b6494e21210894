"""Quantum-group data for type A.

Dynkin diagrams (finite A_(N-1) and cyclic affine), acyclic orientations,
the quantum polynomial algebra with relations x_i x_j = q^(+-b_ij) x_j x_i,
the Serre-relation check for the deformed characters, and the weight-basis
action tables of the minuscule exterior-power representations used by the
trace engine.

Representation conventions: the basis of the k-th exterior power of the
vector representation is the set of k-element subsets S of {1..N}, with
weight the indicator vector of S.  The raising generator for node i >= 1
replaces i+1 by i with coefficient 1; node 0 (affine) replaces 1 by N and
carries degree +1 in the loop parameter, its partner degree -1.

All Cartan data and representation tables are immutable once built and
safe for concurrent reads.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .scalars import LaurentQK, q_binomial


class QRepError(ValueError):
    pass


class DynkinData:
    """Cartan data of type A: finite A_(N-1) or the cyclic affine diagram.

    Nodes are 1..N-1 in the finite case and 0..N-1 in the affine case.
    All symmetrizers are 1, so b_ij = a_ij.
    """

    __slots__ = ("n", "affine", "nodes")

    def __init__(self, n, affine=False):
        if n < 2:
            raise QRepError("rank parameter N must be at least 2")
        self.n = n
        self.affine = affine
        self.nodes = tuple(range(0 if affine else 1, n))

    def a(self, i, j):
        if i == j:
            return 2
        if self.affine:
            d = (i - j) % self.n
            if self.n == 2:
                return -2
            return -1 if d in (1, self.n - 1) else 0
        return -1 if abs(i - j) == 1 else 0

    def d(self, i):
        return 1

    def b(self, i, j):
        return self.d(i) * self.a(i, j)

    def adjacent(self, i, j):
        return i != j and self.a(i, j) != 0


def weyl_vector(n):
    """rho in Z^N/2 coordinates: rho_j = (N + 1 - 2j)/2; pairs to 1 with
    every finite simple root."""
    return tuple(Fraction(n + 1 - 2 * j, 2) for j in range(1, n + 1))


def rho_pairing2(n, vec):
    """2*(rho . vec) = sum_j (N + 1 - 2j) vec_j for an integer vector."""
    total = 0
    for j, v in enumerate(vec, start=1):
        if v != int(v):
            raise QRepError("rho pairing needs integer entries, got %s" % v)
        total += (n + 1 - 2 * j) * int(v)
    return total


class Orientation:
    """An acyclic orientation of the Dynkin diagram together with a total
    node order extending it (edges point from smaller to larger)."""

    __slots__ = ("dynkin", "edges", "order", "_pos")

    def __init__(self, dynkin, edges, order):
        self.dynkin = dynkin
        self.order = tuple(order)
        if sorted(self.order) != sorted(dynkin.nodes):
            raise QRepError("total order must enumerate the node set")
        self._pos = {node: i for i, node in enumerate(self.order)}
        self.edges = {}
        for tail, head in edges:
            if not dynkin.adjacent(tail, head):
                raise QRepError("(%s, %s) is not a Dynkin edge" % (tail, head))
            key = frozenset((tail, head))
            if key in self.edges:
                raise QRepError("duplicate edge %s" % (key,))
            self.edges[key] = (tail, head)
            if self._pos[tail] > self._pos[head]:
                raise QRepError(
                    "total order does not extend edge %s -> %s" % (tail, head))
        for i in dynkin.nodes:
            for j in dynkin.nodes:
                if i < j and dynkin.adjacent(i, j) \
                        and frozenset((i, j)) not in self.edges:
                    raise QRepError("edge {%s, %s} left unoriented" % (i, j))

    def sign(self, i, j):
        """+1 if the edge is oriented i -> j, -1 if j -> i."""
        tail, head = self.edges[frozenset((i, j))]
        return 1 if (tail, head) == (i, j) else -1

    def with_order(self, order):
        """Same orientation under a different total-order extension."""
        return Orientation(self.dynkin, list(self.edges.values()), order)

    def extensions(self):
        """All total orders extending the orientation."""
        nodes = list(self.dynkin.nodes)
        out = []
        for perm in itertools.permutations(nodes):
            pos = {node: i for i, node in enumerate(perm)}
            if all(pos[t] < pos[h] for t, h in self.edges.values()):
                out.append(perm)
        return out


def build_orientation(n, affine=False):
    """The standard orientation: finite 1 -> 2 -> ... -> N-1; affine adds
    node 0 as a source (0 -> 1 and 0 -> N-1).  Acyclicity is guaranteed by
    the existence of the extending total order."""
    dynkin = DynkinData(n, affine)
    edges = [(i, i + 1) for i in range(1, n - 1)]
    if affine:
        edges.append((0, 1))
        if n > 2:
            edges.append((0, n - 1))
    order = list(dynkin.nodes)
    return Orientation(dynkin, edges, order)


# ---------------------------------------------------------------------------
# Quantum polynomial algebra
# ---------------------------------------------------------------------------

def qp_normal_order(word, orientation, descending=False):
    """Normal-order a word in the quantum polynomial algebra.

    Bubble-sorts the word into ascending node order (descending=True for
    the reversed target), collecting one factor q^(+-b_ij) per adjacent
    transposition from the relation x_i x_j = q^(+-b_ij) x_j x_i, the sign
    being + when the edge is oriented i -> j.

    Returns (scalar, sorted word).
    """
    dynkin = orientation.dynkin
    word = list(word)
    scalar = LaurentQK.one()
    changed = True
    while changed:
        changed = False
        for a in range(len(word) - 1):
            i, j = word[a], word[a + 1]
            wrong = (i > j) if not descending else (i < j)
            if wrong:
                # rewrite x_i x_j as q^(s b_ij) x_j x_i
                if dynkin.adjacent(i, j):
                    s = orientation.sign(i, j)
                    scalar = scalar * LaurentQK.q(s * dynkin.b(i, j))
                word[a], word[a + 1] = j, i
                changed = True
    return scalar, tuple(word)


def verify_serre_homomorphism(orientation):
    """Check that sending each Chevalley generator to its quantum
    polynomial variable respects every quantum Serre relation.

    For each ordered pair of distinct nodes the alternating q-binomial
    expansion x_i^(1-a_ij-k) x_j x_i^k is normal-ordered and summed; the
    report lists the residual scalar per pair (all must vanish).
    """
    dynkin = orientation.dynkin
    checks = []
    for i in dynkin.nodes:
        for j in dynkin.nodes:
            if i == j:
                continue
            a_ij = dynkin.a(i, j)
            top = 1 - a_ij
            residual = {}
            for k in range(top + 1):
                coeff = q_binomial(top, k, dynkin.d(i))
                if k % 2:
                    coeff = -coeff
                word = (i,) * (top - k) + (j,) + (i,) * k
                scal, sortedw = qp_normal_order(word, orientation)
                tot = residual.get(sortedw, LaurentQK.zero()) + coeff * scal
                residual[sortedw] = tot
            residual = {w: c for w, c in residual.items() if not c.is_zero}
            checks.append({
                "pair": (i, j),
                "ok": not residual,
                "residual": {str(list(w)): c.text()
                             for w, c in residual.items()},
            })
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# Minuscule representation data
# ---------------------------------------------------------------------------

class RepData:
    """Weight-basis action tables for the k-th exterior power of the
    vector representation, with the affine evaluation extension.

    e_action[i] maps a basis subset to the subset it is sent to (raising),
    f_action[i] the reverse; all matrix entries are 1.  z_degree[i] is the
    loop-parameter degree carried by node i (nonzero only for node 0).
    weights[s] is the weight of the basis subset s, its indicator vector.
    """

    __slots__ = ("n", "k", "affine", "basis", "e_action", "f_action",
                 "z_degree", "nodes", "weights")

    def __init__(self, n, k, affine=False):
        if not 1 <= k <= n - 1:
            raise QRepError("need 1 <= k <= N-1 for an exterior power")
        self.n = n
        self.k = k
        self.affine = affine
        self.basis = tuple(
            frozenset(s) for s in itertools.combinations(range(1, n + 1), k))
        self.nodes = tuple(range(0 if affine else 1, n))
        self.weights = {s: tuple(1 if j in s else 0 for j in range(1, n + 1))
                        for s in self.basis}
        self.e_action = {}
        self.f_action = {}
        self.z_degree = {}
        for i in self.nodes:
            if i == 0:
                # node 0: the raising move replaces 1 by N
                src, dst = 1, n
            else:
                # node i: the raising move replaces i+1 by i
                src, dst = i + 1, i
            e_map = {s: (s - {src}) | {dst}
                     for s in self.basis if src in s and dst not in s}
            f_map = {s: (s - {dst}) | {src}
                     for s in self.basis if dst in s and src not in s}
            self.e_action[i] = e_map
            self.f_action[i] = f_map
            self.z_degree[i] = 1 if (affine and i == 0) else 0

    @property
    def dim(self):
        return len(self.basis)

    def weight(self, s):
        return self.weights[s]

    def weight_q2(self, s):
        """Doubled pairing 2*(rho . wt(S)) for the diagonal factor."""
        return rho_pairing2(self.n, self.weight(s))

    def nilpotency_check(self):
        """Every simple generator must square to zero on the module."""
        for i in self.nodes:
            for act in (self.e_action[i], self.f_action[i]):
                for s, t in act.items():
                    if t in act:
                        return False
        return True

    def action_dump(self):
        """Deterministic text dump of the action tables."""
        lines = ["N=%d k=%d affine=%s dim=%d"
                 % (self.n, self.k, self.affine, self.dim)]
        for i in self.nodes:
            for name, act in (("e", self.e_action[i]),
                              ("f", self.f_action[i])):
                for s in sorted(self.basis, key=sorted):
                    if s in act:
                        lines.append("%s_%d: %s -> %s" % (
                            name, i, sorted(s), sorted(act[s])))
        for s in sorted(self.basis, key=sorted):
            lines.append("q2rho %s = %d" % (sorted(s), self.weight_q2(s)))
        return "\n".join(lines)

    def to_json(self):
        return {
            "N": self.n, "k": self.k, "affine": self.affine,
            "basis": [sorted(s) for s in
                      sorted(self.basis, key=sorted)],
            "e": {str(i): [[sorted(s), sorted(t)]
                           for s, t in sorted(self.e_action[i].items(),
                                              key=lambda p: sorted(p[0]))]
                  for i in self.nodes},
            "f": {str(i): [[sorted(s), sorted(t)]
                           for s, t in sorted(self.f_action[i].items(),
                                              key=lambda p: sorted(p[0]))]
                  for i in self.nodes},
            "z_degree": {str(i): self.z_degree[i] for i in self.nodes},
        }


def fundamental_rep(n, k, affine=False):
    rep = RepData(n, k, affine)
    if not rep.nilpotency_check():
        raise QRepError("representation is not minuscule")
    return rep
