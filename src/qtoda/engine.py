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
simultaneous-shift quotient gives the commuting family.  Both are folded
into the reduction: the gauge multiplies T_(front+back) by
q^(-rho . (front + back)), so a word's power of q from the rho diagonal
and the gauge together is q^(rho . (back - front)), one integer doubled
exponent; the quotient files the word under the canonical representative
of its shift.  A word's scalar is its coefficient times a factor
(normal-ordering power, character values, that q power).  The letter
data is computed once per distinct letters, the factor once per letters
and exponent, and the product once per distinct (coefficient, factor)
pair, so a build multiplies once per coefficient class, not per word;
in a gauged build the exponent is 2 rho . (sum of the raising roots),
fixed by the letters.
The raw reduction skips both steps.  Each shift's terms are summed in
place, so the operator is wrapped once, without a second pass over its
terms; the zero-sum check on each word's root sum is what keeps the
quotient coefficients on the sl torus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import LaurentQK
from .torus import (
    TorusPoly, TorusRat, add_terms, com_quotient_canonicalize, cyclic_root,
    dot, vadd,
)
from .diffop import GL, SL_QUOTIENT, DiffOp, DiffOpError
from .qrep import (
    Orientation, QRepError, build_orientation, fundamental_rep,
    qp_normal_order, rho_pairing2,
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

    The lowering block is threaded once per middle state, its paths kept
    by end state; a word's coefficient c^L q^(e/2) is built once per
    (letter count L, doubled exponent e).
    """
    n = rep.n
    order = cfg.orientation.order
    c = LaurentQK.q(1) - LaurentQK.q(-1)
    e_z = {i: -rep.z_degree[i] for i in rep.nodes}   # raising block moves
    f_z = {i: rep.z_degree[i] for i in rep.nodes}    # lowering block moves
    lowering = {}   # mid -> end -> [(lowering letters, z degree)]
    roots = {}      # lowering letters -> sum of their roots
    coeffs = {}     # (letter count, doubled q exponent) -> coefficient
    words = []
    for start in rep.basis:
        post = rep.weight(start)
        # raising block: module actions are the lowering maps f_i
        for mid, e_nodes, z_e in _block_paths(
                rep, order, rep.f_action, e_z, start):
            pre = rep.weight(mid)
            level = -2 * n * z_e if cfg.affine else 0
            paths = lowering.get(mid)
            if paths is None:
                # lowering block: module actions are the raising maps e_i
                paths = lowering[mid] = {}
                for end, f_nodes, z_f in _block_paths(
                        rep, order, rep.e_action, f_z, mid):
                    paths.setdefault(end, []).append((f_nodes, z_f))
            for f_nodes, z_f in paths.get(start, ()):
                if cfg.affine and z_e + z_f != 0:
                    continue
                # normalize to the Cartan-prefix form: moving the front
                # kernel factor left past the lowering letters collects
                # q^(pre . sum of lowering roots)
                lam = roots.get(f_nodes)
                if lam is None:
                    lam = roots[f_nodes] = _root_sum(cfg.dynkin, f_nodes)
                key = (len(e_nodes) + len(f_nodes), level + 2 * dot(pre, lam))
                coeff = coeffs.get(key)
                if coeff is None:
                    coeff = coeffs[key] = c ** key[0] * LaurentQK.q_half(
                        key[1])
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

def _letter_data(w, cfg, symbolic_beta, raw):
    """(part key, root-sum exponent, scalar) of a word's letters: the
    normal-ordering q power, times the product of the character values
    beta_i unless they stay symbolic."""
    scal_e, sorted_e = qp_normal_order(w.e_nodes, cfg.orientation)
    # lowering word: plain-algebra element x_{k1}...x_{kn}, sorted
    # descending to pair with the ascending raising word
    scal_f, sorted_f = qp_normal_order(w.f_nodes, cfg.orientation,
                                       descending=True)
    letters = tuple(sorted(sorted_e))
    if letters != tuple(sorted(sorted_f)):
        raise EngineInvariantError("letter multisets differ in %r" % (w,))
    lam = _root_sum(cfg.dynkin, w.f_nodes)
    if not raw and sum(lam):
        raise DiffOpError(
            "exponent %s is not a function on the sl torus" % (lam,))
    scalar = scal_e * scal_f
    if symbolic_beta:
        return letters, lam, scalar
    for i in sorted_e:
        scalar = scalar * cfg.beta[i]
    return None, lam, scalar


def whittaker_reduce(words, cfg, symbolic_beta=False, raw=True):
    """Map trace words to a difference operator.

    With symbolic_beta=True the character values are left unevaluated and
    the result is a dict mapping each matched letter set to its operator
    part, exhibiting the commutative-subalgebra structure.

    Every word adds one scalar at (shift, root-sum exponent): its
    coefficient times a factor fixed by its letters and one q power.  The
    back weight contributes q^(2 rho . post).  raw=False conjugates by
    e^(rho . z), which multiplies the coefficient of T_(pre + post) by
    q^(-rho . (pre + post)), so the word's power is q^(rho . (post -
    pre)), an integer doubled exponent either way; it also files each
    word under the canonical simultaneous-shift representative of its
    shift and builds sl-quotient operators, whose coefficients must have
    zero-sum exponents.  Each part becomes one operator at the end.
    """
    n = cfg.n
    mode = GL if raw else SL_QUOTIENT
    rho2 = {}      # weight -> 2 rho . weight
    letters = {}   # (raising, lowering letters)
    #                -> (part key, root-sum exponent, scalar)
    factors = {}   # (those letters, doubled q exponent x)
    #                -> (part key, root-sum exponent, scalar q^(x/2))
    products = {}  # ids of (coefficient, factor) -> (coefficient,
    #                product); factors and this dict keep the ids valid
    parts = {}     # letter set (None when evaluated) -> shift -> exp -> scalar
    for w in words:
        if w.z_degree != 0:
            raise EngineInvariantError(
                "nonzero loop degree survived: %r" % (w,))
        pre, post = w.pre, w.post
        for v in (pre, post):
            if v not in rho2:
                rho2[v] = rho_pairing2(n, v)
        x = 2 * rho2[post] if raw else rho2[post] - rho2[pre]
        pair = w.e_nodes, w.f_nodes
        data = factors.get((pair, x))
        if data is None:
            if pair not in letters:
                letters[pair] = _letter_data(w, cfg, symbolic_beta, raw)
            key, lam, scalar = letters[pair]
            data = factors[pair, x] = key, lam, scalar * LaurentQK.q_half(x)
        key, lam, factor = data
        c = w.coeff
        held = products.get((id(c), id(factor)))
        if held is None:
            held = products[id(c), id(factor)] = c, c * factor
        mu = vadd(pre, post)
        if not raw:
            mu = com_quotient_canonicalize(mu)
        shifts = parts.setdefault(key, {})
        add_terms(shifts.setdefault(mu, {}), ((lam, held[1]),))
    zero = DiffOp.zero(n, mode)
    ops = {key: zero._wrap({mu: TorusRat(TorusPoly._of(n, poly))
                            for mu, poly in shifts.items() if poly})
           for key, shifts in parts.items()}
    return ops if symbolic_beta else ops.get(None, zero)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def build_toda_operator(n, k, affine=False, orientation=None, raw=False):
    """Full pipeline: representation data, trace expansion, reduction with
    the Weyl-vector conjugation and the simultaneous-shift quotient folded
    into each word; raw=True skips both."""
    if n < 2 or not 1 <= k <= n - 1:
        raise QRepError("invalid rank/exterior power (N=%s, k=%s)" % (n, k))
    cfg = EngineConfig(n=n, k=k, affine=affine, orientation=orientation)
    rep = fundamental_rep(n, k, affine)
    return whittaker_reduce(expand_central_words(rep, cfg), cfg, raw=raw)


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
