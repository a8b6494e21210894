"""Classical catalog and degeneration limits on the differential side.

Houses the classical Toda Hamiltonians (plain and with the coupling K on
the lowest root), differential operators with torus-polynomial
coefficients, truncated hbar expansions of difference operators (shift
operators become exponentials of derivatives), and the steepest-growth
limits of the trigonometric and elliptic inverse-sinh-squared models.

The hbar jet of a difference operator is accumulated term by term in
integers: each distinct scalar is expanded once per call into its
series scaled by 2^k k! at hbar^k, every term adds its scaled values
into one nested dict, and each entry is divided exactly once at the end.

A differential operator takes its sums, differences, negation and
scaling from ``torus.TermSum``, as torus polynomials and difference
operators do.  What it builds itself (those results, ``sl_reduce`` and
the jet coefficients) is wrapped without a second check; its
constructor checks outside input only.

Type A constants live here: the dual Coxeter number equals N, and the
lowest root -theta = e_N - e_1 is the cyclic root alpha_N.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

from .scalars import HbarJet, LaurentQK, jet_divide, jet_expand
from .torus import TermSum, TorusPoly, add_terms, cyclic_root
from .diffop import ROOT_WEIGHT, SL_QUOTIENT
from .qrep import weyl_vector


class LimitError(ArithmeticError):
    pass


def dual_coxeter(n):
    return n


class DifferentialOp(TermSum):
    """Finite sum of terms coefficient * d^gamma with torus-polynomial
    coefficients; gamma is a derivative multi-index."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = add_terms({}, self._checked(terms)) if terms else {}

    def _checked(self, terms):
        for gamma, coeff in terms.items():
            gamma = tuple(gamma)
            if len(gamma) != self.n or any(g < 0 for g in gamma):
                raise LimitError("bad derivative index %s" % (gamma,))
            if not isinstance(coeff, TorusPoly):
                coeff = TorusPoly.constant(self.n, coeff)
            yield gamma, coeff

    @staticmethod
    def zero(n):
        return DifferentialOp(n, {})

    # -- linear structure (the rest is TermSum's) -------------------------

    def _wrap(self, terms):
        out = DifferentialOp.__new__(DifferentialOp)
        out.n, out.terms = self.n, terms
        return out

    def _check(self, other):
        if other.n != self.n:
            raise LimitError("rank mismatch")

    def _coerce(self, other):
        if isinstance(other, DifferentialOp):
            return other
        if isinstance(other, (int, LaurentQK)):
            return DifferentialOp(self.n, {(0,) * self.n: other})
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, DifferentialOp):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms)))

    def sl_reduce(self):
        """Eliminate the last derivative: d_N -> -(d_1 + ... + d_(N-1)),
        expanded multinomially, then recanonicalized."""
        return self._wrap(add_terms({}, self._sl_terms()))

    def _sl_terms(self):
        n = self.n
        for gamma, coeff in self.terms.items():
            m = gamma[-1]
            if m == 0:
                yield gamma, coeff
                continue
            sign = -1 if m % 2 else 1
            for combo in itertools.combinations_with_replacement(
                    range(n - 1), m):
                g = list(gamma[:-1]) + [0]
                for j in combo:
                    g[j] += 1
                yield tuple(g), coeff * (sign * _multinomial(combo, m))

    def apply_to_monomial(self, lam):
        """The scalar-valued symbol of the operator on e^(lam . z):
        sum_gamma coeff * lam^gamma as a torus polynomial times the
        monomial; returns the full torus polynomial."""
        n = self.n
        out = TorusPoly.zero(n)
        for gamma, coeff in self.terms.items():
            mult = 1
            for lj, gj in zip(lam, gamma):
                mult *= lj ** gj
            if mult:
                out = out + coeff * LaurentQK.rational(mult)
        return out.exp_shift(lam)

    def __repr__(self):
        return "DifferentialOp(N=%d, %s)" % (self.n, self.text())

    def text(self):
        if not self.terms:
            return "0"
        return "  +  ".join("(%s) D%s" % (self.terms[g].text(), list(g))
                            for g in sorted(self.terms))

    def to_json(self):
        return {"N": self.n,
                "terms": [{"deriv": list(g), "coeff": self.terms[g].to_json()}
                          for g in sorted(self.terms)]}

    @staticmethod
    def from_json(data):
        n = data["N"]
        return DifferentialOp(
            n, {tuple(rec["deriv"]): TorusPoly.from_json(n, rec["coeff"])
                for rec in data["terms"]})


def _multinomial(combo, m):
    counts = {}
    for j in combo:
        counts[j] = counts.get(j, 0) + 1
    out = factorial(m)
    for v in counts.values():
        out //= factorial(v)
    return out


# ---------------------------------------------------------------------------
# Classical catalog
# ---------------------------------------------------------------------------

def _half_laplacian(n):
    """-(1/2) sum_j d_j^2 as a derivative index -> coefficient dict."""
    return {tuple(2 * (i == j) for i in range(n)): Fraction(-1, 2)
            for j in range(n)}


def classical_toda(n):
    """-(1/2) Laplacian + sum of simple-root exponentials, in Z^N
    coordinates (sl reduction applied)."""
    terms = _half_laplacian(n)
    terms[(0,) * n] = TorusPoly(n, {cyclic_root(n, i): 1
                                    for i in range(1, n)})
    return DifferentialOp(n, terms).sl_reduce()


def affine_classical_toda(n):
    """The classical Hamiltonian with the extra K e^(-theta . z) term on
    the lowest weight direction, -theta = alpha_N; K stays symbolic."""
    extra = DifferentialOp(n, {(0,) * n: TorusPoly.monomial(
        n, cyclic_root(n, n), LaurentQK.k(1))})
    return classical_toda(n) + extra.sl_reduce()


# ---------------------------------------------------------------------------
# Operator-valued hbar jets
# ---------------------------------------------------------------------------

def difference_op_jet(op, order):
    """Expand a difference operator at q = e^hbar: every shift T_mu
    becomes the truncated exponential of hbar * (mu . d), and every scalar
    is jet-expanded; coefficients must be polynomial.  Returns the
    DifferentialOp coefficients of hbar^0, ..., hbar^order.

    A term c q^(a/2) K^b e^(lam . z) T_mu adds
    c (a/2)^(k-m) / (k-m)! * (mu . d)^m / m! to hbar^k.  Times 2^k k!
    that is c a^(k-m) 2^m C(k, m) (mu . d)^m, an integer multiple of the
    multinomial expansion whenever c is an integer.  So each distinct
    scalar is expanded once per call into these scaled series, each term
    adds its scaled values into one nested dict
    {order: {gamma: {lam: {K exponent: value}}}}, and every entry is
    divided exactly by 2^k k! once at the end.  Entries that cancel are
    dropped, and each scalar, polynomial and operator is wrapped once.
    """
    n = op.n
    series = {}    # scalar -> its scaled series; lives for this call only
    acc = [{} for _ in range(order + 1)]
    for mu, f in op.terms.items():
        dir_pows = _directional_powers(n, mu, order)
        for lam, scal in f.as_poly().terms.items():
            parts = series.get(scal)
            if parts is None:
                parts = series[scal] = _scaled_series(scal, order)
            for k, m, values in parts:
                by_gamma = acc[k]
                for gamma, mult in dir_pows[m].items():
                    by_lam = by_gamma.get(gamma)
                    if by_lam is None:
                        by_lam = by_gamma[gamma] = {}
                    cell = by_lam.get(lam)
                    if cell is None:
                        cell = by_lam[lam] = {}
                    for b, v in values:
                        cell[b] = cell.get(b, 0) + v * mult
    zero = DifferentialOp.zero(n)
    return [zero._wrap(_divided(n, by_gamma, 2 ** k * factorial(k)))
            for k, by_gamma in enumerate(acc)]


def _scaled_series(scal, order):
    """(k, m, ((b, value), ...)) for m <= k <= order: the K^b parts of
    2^k k! / m! times the hbar^(k-m) coefficient of the scalar at
    q = e^hbar, that is sum c a^(k-m) 2^m C(k, m) over its terms
    c q^(a/2) K^b; parts that vanish are left out."""
    out = []
    for k in range(order + 1):
        for m in range(k + 1):
            scale = comb(k, m) << m
            values = {}
            for (a, b), c in scal.terms.items():
                values[b] = values.get(b, 0) + c * a ** (k - m) * scale
            values = tuple((b, v) for b, v in values.items() if v)
            if values:
                out.append((k, m, values))
    return out


def _divided(n, by_gamma, scale):
    """The accumulated {gamma: {lam: {b: value}}} divided exactly by
    scale, as clean DifferentialOp terms: zeros dropped, integral values
    stored as int."""
    terms = {}
    for gamma, by_lam in by_gamma.items():
        poly = {}
        for lam, cell in by_lam.items():
            scalar = {}
            for b, v in cell.items():
                if v:
                    v = Fraction(v, scale)
                    scalar[(0, b)] = v.numerator if v.denominator == 1 else v
            if scalar:
                poly[lam] = LaurentQK._wrap(scalar)
        if poly:
            terms[gamma] = TorusPoly._of(n, poly)
    return terms


def _directional_powers(n, mu, order):
    """(mu . d)^m expanded into derivative multi-indices, m = 0..order.

    Each multi-index of degree m is made once, by adding a unit at or
    after the last position raised in one of degree m - 1; its
    multiplicity m! / prod(gamma_j!) * prod(mu_j^gamma_j) is that one's
    times m * mu_j / gamma_j, an exact integer quotient."""
    support = [j for j in range(n) if mu[j]]
    level = [((0,) * n, 0, 1)]    # (gamma, first support slot, mult)
    out = [{(0,) * n: 1}]
    for m in range(1, order + 1):
        nxt = []
        for gamma, first, mult in level:
            for i in range(first, len(support)):
                j = support[i]
                g = list(gamma)
                g[j] += 1
                nxt.append((tuple(g), i, mult * m * mu[j] // g[j]))
        out.append({gamma: mult for gamma, _, mult in nxt})
        level = nxt
    return out


def quasiclassical_limit(op, dim_v):
    """The hbar -> 0 limit of (op - dim_v) / (q - q^(-1))^2.

    The constant term must cancel exactly, the hbar^(-1) part must vanish
    after sl reduction (it is proportional to the total derivative), and
    the hbar^0 part is returned sl-reduced.  Those two quotient orders
    need the operator jet to order 2 and hbar^2 / (q - q^(-1))^2 to
    order 1.
    """
    if op.mode != SL_QUOTIENT:
        raise LimitError("quasiclassical limit expects a quotient-mode input")
    jet = difference_op_jet(op, 2)
    const = jet[0] - dim_v
    if not const.is_zero:
        raise LimitError("constant term %s does not cancel the dimension"
                         % const.text())
    # (q - q^(-1))^2 = 4 hbar^2 + O(hbar^4); invert it divided by hbar^2
    c2 = jet_expand(-ROOT_WEIGHT, 3)
    inv = jet_divide(HbarJet.constant(1, 1), HbarJet(1, c2.coeffs[2:])).coeffs
    residue = (jet[1] * inv[0]).sl_reduce()
    if not residue.is_zero:
        raise LimitError("hbar^(-1) part survives sl reduction: %s"
                         % residue.text())
    return (jet[1] * inv[1] + jet[2] * inv[0]).sl_reduce()


def classical_combination_fit(limit_op, target):
    """Express a quasiclassical limit as C * target + G with C a nonzero
    scalar and G a constant.

    Returns (C, G) if that matches exactly, else None.  C is fitted on the
    leading derivative part, G on the constants.
    """
    const_key = (0,) * limit_op.n
    ratio = None
    for gamma, coeff in target.terms.items():
        if gamma == const_key:
            continue
        got = limit_op.terms.get(gamma)
        if got is None:
            return None
        for lam, c in coeff.terms.items():
            g = got.terms.get(lam)
            if g is None:
                return None
            r = _scalar_ratio(g, c)
            if r is None or (ratio is not None and r != ratio):
                return None
            ratio = r
    if ratio is None:
        return None
    diff = limit_op - target * ratio
    # remainder must be a plain constant
    rem = {g: c for g, c in diff.terms.items() if not c.is_zero}
    if not rem:
        return ratio, LaurentQK.zero()
    if set(rem) == {const_key}:
        const = rem[const_key].terms.get(const_key)
        if const is not None and len(rem[const_key].terms) == 1:
            return ratio, const
    return None


def _scalar_ratio(a, b):
    """a / b for scalars when b is a monomial; None otherwise."""
    if not b.is_monomial():
        return None
    return a * b.monomial_inverse()


# ---------------------------------------------------------------------------
# Inverse-sinh-squared models and their steepest-growth limits
# ---------------------------------------------------------------------------

class SinhTerm:
    """One potential term  prefactor(e^P) / sinh^2(-(w . z)/2 + lam*P
    + kappa*ln K)  of the rescaled interaction.

    ``w`` is the doubled coordinate form (so surviving exponentials have
    integral torus exponents), ``lam`` the escape rate in P, ``kappa`` the
    ln K coefficient; the prefactor is a polynomial in e^P stored as a
    degree -> rational dict.
    """

    __slots__ = ("w", "lam", "kappa2", "prefactor")

    def __init__(self, w, lam, kappa2, prefactor):
        if lam == 0:
            raise LimitError("argument does not escape: zero P rate")
        self.w = tuple(w)
        self.lam = lam
        self.kappa2 = kappa2      # doubled ln K coefficient (2*kappa)
        self.prefactor = dict(prefactor)

    def net_degrees(self, expansion_orders=(1, 2)):
        """Net e^P degrees of prefactor part p times lattice term r of the
        large-argument expansion sinh^(-2)(v) ~ 4 sum_r r e^(-2 r |v|)."""
        return [p - 2 * r * abs(self.lam)
                for p in self.prefactor for r in expansion_orders]

    def survivor_degree(self):
        return max(self.prefactor) - 2 * abs(self.lam)

    def limit_contribution(self, n):
        """The P -> +infinity limit of the term, when the leading
        expansion order exactly cancels the top prefactor degree."""
        top = max(self.prefactor)
        if top - 2 * abs(self.lam) != 0:
            raise LimitError("term does not survive")
        coeff = self.prefactor[top] * 4
        sign = 1 if self.lam > 0 else -1
        # e^(-2 sign v): the coordinate part contributes e^(sign * w . z),
        # the ln K part K^(-sign * 2 kappa)
        exp = tuple(sign * x for x in self.w)
        kpow = -sign * self.kappa2
        return TorusPoly.monomial(
            n, exp, LaurentQK.monomial(coeff, k=kpow))


def cm_limit(n, elliptic=False, window=3):
    """Steepest-growth limit of the inverse-sinh-squared model after the
    coupling substitution k = e^P / 2 and the drift h = -x/2 + P rho.

    Trigonometric mode: one term per positive root, escape rate
    (root . rho); survivors are exactly the simple roots and the limit is
    the classical Toda operator.  Elliptic mode: one term per positive
    root and lattice translate n, rate (root . rho) + n * N with ln K
    coefficient -n/2; the extra survivor is the maximal root at n = -1,
    contributing K times the lowest-root exponential.  Every enumerated
    non-survivor must have strictly negative net degree and the tail
    beyond the enumeration window is certified by monotonicity.

    Returns (DifferentialOp, certificate list).
    """
    rho = weyl_vector(n)
    prefactor = {2: Fraction(1, 4), 1: Fraction(-1, 2)}   # e^P(e^P - 2)/4
    terms = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            root = [0] * n
            root[i - 1], root[j - 1] = 1, -1
            rate = int(sum(r * x for r, x in zip(rho, root)))
            shifts = range(-window, window + 1) if elliptic else (0,)
            for m in shifts:
                lam = rate + m * dual_coxeter(n)
                if lam == 0:
                    raise LimitError("zero escape rate at root %s, n=%d"
                                     % (root, m))
                terms.append(SinhTerm(root, lam, -m, prefactor))
    certificates = []
    potential = TorusPoly.zero(n)
    for t in terms:
        deg = t.survivor_degree()
        degs = t.net_degrees()
        if deg == 0:
            # exactly one expansion piece balances the prefactor; all
            # subleading pieces must still decay
            if degs.count(0) != 1 or any(d > 0 for d in degs):
                raise LimitError("ambiguous survivor at %s" % (t.w,))
            potential = potential + t.limit_contribution(n)
            certificates.append({"w": t.w, "lam": t.lam, "survives": True,
                                 "subleading": sorted(d for d in degs if d)})
        else:
            if deg > 0 or any(d >= 0 for d in degs):
                raise LimitError("divergent term at %s" % (t.w,))
            certificates.append({"w": t.w, "lam": t.lam, "survives": False,
                                 "net_degree": deg})
    if elliptic:
        # tail certificate: |rate + m N| >= 2 for every |m| > window,
        # since |lam| grows by N per lattice step and N >= 2
        for i in range(1, n):
            if abs(i - (window + 1) * n) < 2 or \
                    abs(i + (window + 1) * n) < 2:
                raise LimitError(
                    "tail certificate fails beyond window %d" % window)
    terms = _half_laplacian(n)
    terms[(0,) * n] = potential
    return DifferentialOp(n, terms).sl_reduce(), certificates
