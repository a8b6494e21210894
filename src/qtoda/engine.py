"""The trace engine: from representation data to Toda difference operators.

The central element is expanded as a matrix product over the module

    [transposed simple factors] [Cartan kernel] [simple factors]
    [Cartan kernel * rho diagonal],

with every simple-root factor truncated to 1 + (q - q^(-1)) letter (x)
action (exact on minuscule modules).  Each closed trace path yields one
word: letters from the chosen factors, the two kernel crossings recorded
as front/back weights, and in the affine case the loop-degree bookkeeping
of node 0.  Words are then reduced to difference-operator terms:

  * the two crossing weights become the shift T_(front+back);
  * the raising letters give the torus multiplier e^((sum of roots) . z);
  * normal-ordering the letter words in the quantum polynomial algebra
    (plain on the raising side, opposite on the lowering side) produces
    an exact q power, after which matched letters are replaced by the
    character normalization beta_i (-1 for i >= 1, -K for node 0);
  * the back weight contributes q^(2 rho . weight), and in the affine case
    the kernel crossing at critical level contributes q^(N * n0), n0 being
    the number of node-0 letters on each side.

Conjugating by the Weyl-vector monomial and passing to the
simultaneous-shift quotient gives the commuting family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import LaurentQK
from .torus import TorusPoly, add_terms, cyclic_root, dot, vadd
from .diffop import GL, DiffOp
from .qrep import (
    Orientation, QRepError, build_orientation, fundamental_rep,
    qp_normal_order, rho_pairing2, weyl_vector,
)


class EngineInvariantError(AssertionError):
    """An internal consistency condition of the reduction was violated."""


@dataclass(frozen=True)
class NCWord:
    """One trace word in normal form: a Cartan factor for the front weight
    standing left, lowering letters, raising letters, then the Cartan
    factor for the back weight (which also carries the rho diagonal)."""

    coeff: LaurentQK
    pre: tuple          # front crossing weight mu1
    f_nodes: tuple      # lowering letters, in block order
    e_nodes: tuple      # raising letters, in block order
    post: tuple         # back crossing weight mu2
    z_degree: int = 0

    def to_json(self):
        return {
            "coeff": self.coeff.to_json(),
            "pre": list(self.pre),
            "f": list(self.f_nodes),
            "e": list(self.e_nodes),
            "post": list(self.post),
            "zdeg": self.z_degree,
        }


@dataclass
class EngineConfig:
    n: int
    k: int
    affine: bool = False
    orientation: Orientation = None
    beta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.orientation is None:
            self.orientation = build_orientation(self.n, self.affine)
        if not self.beta:
            self.beta = {i: LaurentQK.rational(-1)
                         for i in self.orientation.dynkin.nodes}
            if self.affine:
                self.beta[0] = -LaurentQK.k(1)

    @property
    def dynkin(self):
        return self.orientation.dynkin


def words_to_json(words):
    return [w.to_json() for w in words]


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

def _block_paths(rep, nodes_in_block_order, actions, z_signs, start):
    """All ways of threading the basis vector ``start`` through one block
    of two-term factors.

    Factors are written in block order but act right to left, so the block
    list is traversed reversed.  Yields (end, chosen nodes, z degree);
    chosen nodes are reported in block order.
    """
    states = [(start, (), 0)]
    for node in reversed(nodes_in_block_order):
        new_states = []
        act = actions[node]
        for s, chosen, zdeg in states:
            new_states.append((s, chosen, zdeg))
            t = act.get(s)
            if t is not None:
                new_states.append((t, (node,) + chosen, zdeg + z_signs[node]))
        states = new_states
    return states


def expand_central_words(rep, cfg):
    """Expand the truncated central element into trace words.

    In affine mode only total loop degree zero survives (the residue in
    the evaluation parameter), and the front kernel crossing contributes
    the critical-level factor q^(N * n0) for each node-0 raising letter
    already applied.
    """
    n = rep.n
    order = cfg.orientation.order
    c = LaurentQK.q(1) - LaurentQK.q(-1)
    e_z = {i: -rep.z_degree[i] for i in rep.nodes}   # raising block moves
    f_z = {i: rep.z_degree[i] for i in rep.nodes}    # lowering block moves
    words = []
    for start in rep.basis:
        post = rep.weight(start)
        # raising block: module actions are the lowering maps f_i
        for mid, e_nodes, z_e in _block_paths(
                rep, order, rep.f_action, e_z, start):
            pre = rep.weight(mid)
            level = LaurentQK.q_half(-2 * n * z_e) if cfg.affine \
                else LaurentQK.one()
            # lowering block: module actions are the raising maps e_i
            for end, f_nodes, z_f in _block_paths(
                    rep, order, rep.e_action, f_z, mid):
                if end != start:
                    continue
                if cfg.affine and z_e + z_f != 0:
                    continue
                nletters = len(e_nodes) + len(f_nodes)
                coeff = c ** nletters * level
                # normalize to the Cartan-prefix form: moving the front
                # kernel factor left past the lowering letters collects
                # q^(pre . sum of lowering roots)
                roots = _root_sum(cfg.dynkin, f_nodes)
                p = dot(pre, roots)
                if p:
                    coeff = coeff * LaurentQK.q(p)
                words.append(NCWord(coeff=coeff, pre=pre, f_nodes=f_nodes,
                                    e_nodes=e_nodes, post=post,
                                    z_degree=z_e + z_f))
    return words


def _root_sum(dynkin, nodes):
    total = (0,) * dynkin.n
    for i in nodes:
        total = vadd(total, cyclic_root(dynkin.n, i))
    return total


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def whittaker_reduce(words, cfg, symbolic_beta=False):
    """Map trace words to a difference operator.

    With symbolic_beta=True the character values are left unevaluated and
    the result is a dict mapping each matched letter set to its operator
    part, exhibiting the commutative-subalgebra structure.

    Every word adds one scalar at (shift, root-sum exponent); each part
    becomes one operator at the end.
    """
    n = cfg.n
    parts = {}   # letter set (None when evaluated) -> shift -> exp -> scalar
    for w in words:
        if w.z_degree != 0:
            raise EngineInvariantError(
                "nonzero loop degree survived: %r" % (w,))
        scal_e, sorted_e = qp_normal_order(w.e_nodes, cfg.orientation,
                                           side="left")
        # lowering word: plain-algebra element x_{k1}...x_{kn}, sorted
        # descending to pair with the ascending raising word
        scal_f, sorted_f = qp_normal_order(w.f_nodes, cfg.orientation,
                                           side="left", descending=True)
        if tuple(sorted(sorted_e)) != tuple(sorted(sorted_f)):
            raise EngineInvariantError(
                "letter multisets differ in %r" % (w,))
        scalar = (w.coeff * scal_e * scal_f
                  * LaurentQK.q_half(2 * rho_pairing2(n, w.post)))
        if symbolic_beta:
            key = tuple(sorted(sorted_e))
        else:
            key = None
            beta = LaurentQK.one()
            for i in sorted_e:
                beta = beta * cfg.beta[i]
            scalar = scalar * beta
        shifts = parts.setdefault(key, {})
        add_terms(shifts.setdefault(vadd(w.pre, w.post), {}),
                  ((_root_sum(cfg.dynkin, w.f_nodes), scalar),))
    ops = {key: DiffOp(n, {mu: TorusPoly(n, poly)
                           for mu, poly in shifts.items()}, GL)
           for key, shifts in parts.items()}
    return ops if symbolic_beta else ops.get(None, DiffOp.zero(n, GL))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def build_toda_operator(n, k, affine=False, orientation=None,
                        gauge=True, quotient=True):
    """Full pipeline: representation data, trace expansion, reduction,
    Weyl-vector conjugation, simultaneous-shift quotient."""
    if n < 2 or not 1 <= k <= n - 1:
        raise QRepError("invalid rank/exterior power (N=%s, k=%s)" % (n, k))
    cfg = EngineConfig(n=n, k=k, affine=affine, orientation=orientation)
    rep = fundamental_rep(n, k, affine)
    words = expand_central_words(rep, cfg)
    op = whittaker_reduce(words, cfg)
    if gauge:
        op = op.gauge_monomial(weyl_vector(n))
    if quotient:
        op = op.quotient_reduce()
    return op


def toda_family(n, affine=False, orientation=None):
    return [build_toda_operator(n, k, affine, orientation)
            for k in range(1, n)]


def verify_commuting_family(n, affine=False):
    """Pairwise commutators of the full family; all must vanish
    identically (in q, and in K when affine)."""
    family = toda_family(n, affine)
    checks = []
    for a in range(len(family)):
        for b in range(a + 1, len(family)):
            res = family[a].commutator(family[b])
            checks.append({
                "pair": (a + 1, b + 1),
                "ok": res.is_zero,
                "residual": None if res.is_zero else res.to_json(),
            })
    return {"ok": all(c["ok"] for c in checks), "n": n, "affine": affine,
            "checks": checks}
