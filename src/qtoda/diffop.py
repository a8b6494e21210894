"""The noncommutative algebra of q-difference operators on the torus.

An operator is a finite sum  sum_mu f_mu * T_mu  with torus-rational
coefficients f_mu, where T_mu shifts z -> z + hbar*mu.  Composition follows

    (f T_mu)(g T_nu) = f * sigma_mu(g) * T_(mu+nu),

sigma_mu being the coefficient substitution z -> z + hbar*mu.  Everything
is exact, values are immutable, and quotient mode works over functions
invariant under the simultaneous shift of all coordinates (shift keys are
then canonicalized modulo (1,...,1)).

Every engine operator is a sum of monomials w e^(lam . z) T_mu whose
scalar is exactly a weight w(j, k) = ROOT_WEIGHT^j K^k, one factor
ROOT_WEIGHT = -(q - q^-1)^2 per cyclic root exponential.  Composition
decodes such operands into integer lattice points (mu, lam, j, k) and
packs each vector v as the integer sum_i v_i B^i.  The radix
B = 2 (a + b) + 1 comes from the operands of each call, a and b being
the largest |entry| of the left and the right operand's points, so that
every entry of a sum of two points is a balanced digit and one integer
addition gives a pair's packed output point.  A product counts, per
packed output shift, how often each exponent, weight and q power
q^(lam2 . mu1) is met (the q power once per pair of groups), and turns
each distinct count table into one scalar.  A commutator counts a b with
sign +1 and b a with sign -1 in one integer table, so that pairings that
cancel are dropped before anything is unpacked or any scalar is built;
for a commuting family nothing is left.  Any other coefficient
is multiplied exactly in TorusRat, and its commutator is the difference
of the two products.  A difference x - y merges y's terms with a minus
sign into a copy of x at every layer, so equal products cancel without
a negated copy.

The module also houses two transformations used by the verification
suites: the generator automorphism T_i -> T_i,
e^(z_i - z_(i+1)) -> e^(z_i - z_(i+1)) T_i T_(i+1)^(-1), applied monomial
by monomial to coefficients in the root exponentials, and gauge
conjugation by a product of factors psi with psi(x + 2 hbar) =
psi(x) f(x)^(-1), f a square-root symbol.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

from .scalars import LaurentQK
from .torus import (
    TermSum, TorusPoly, TorusRat,
    add_terms, check_vector, com_quotient_canonicalize, cyclic_root, dot,
    vadd,
)

GL = "gl"
SL_QUOTIENT = "sl-quotient"

#: -(q - q^-1)^2, the scalar of each cyclic root exponential in an engine
#: operator (with an extra K on the affine wrap root)
ROOT_WEIGHT = -(LaurentQK.q(1) - LaurentQK.q(-1)) ** 2
_WEIGHTS = {}   # (j, k, p) -> terms of q^p ROOT_WEIGHT^j K^k; read only


def _weight(j, k, p=0):
    w = _WEIGHTS.get((j, k, p))
    if w is None:
        w = _WEIGHTS[j, k, p] = (
            ROOT_WEIGHT ** j * LaurentQK.monomial(1, q2=2 * p, k=k)).terms
    return w


class _Radix:
    """Packs integer vectors as sum_i v_i B^i and reads back the balanced
    digits; B is odd and |digit| <= B // 2 = half (see DiffOp._counted)."""

    def __init__(self, half, size):
        self.half, self.radix = half, 2 * half + 1
        self.powers = [self.radix ** i for i in range(size)]

    def pack(self, v):
        return sum(map(mul, v, self.powers))

    def unpack(self, x, size):
        half, radix, digits = self.half, self.radix, []
        for _ in range(size):
            d = (x + half) % radix - half
            digits.append(d)
            x = (x - d) // radix
        return digits


def _product_counts(n, left, right, radix):
    """a b on the lattice (see DiffOp._counted).  Left points are grouped
    by shift and right points by (lam2, j2, k2), so that q^(lam2 . mu1)
    is paired once per pair of groups, where each packed (lam, j, k) and
    q power met gets an interned id.  A pair adds 1 to its id in the table
    of its packed output shift, whose tuple is built when first met."""
    pack, lefts, rights = radix.pack, {}, {}
    for mu, lam, j, k in left:
        lefts.setdefault(mu, []).append(pack(lam + (j, k)))
    for mu, lam, j, k in right:
        key = lam + (j, k)
        rights.setdefault((key, pack(key)), []).append((pack(mu), mu))
    ids, tables, out = {}, {}, {}
    for mu1, packed in lefts.items():
        s1 = pack(mu1)
        for (lam2, l2), mus in rights.items():
            p = sum(map(mul, lam2, mu1))
            for l1 in packed:
                i = ids.setdefault((l1 + l2, p), len(ids))
                for s2, mu2 in mus:
                    table = tables.get(s1 + s2)
                    if table is None:
                        tables[s1 + s2] = out[tuple(map(add, mu1, mu2))] = \
                            {i: 1}
                    else:
                        table[i] = table.get(i, 0) + 1
    keys = []   # in id order, the order in which ids were interned
    for l, p in ids:
        *lam, j, k = radix.unpack(l, n + 2)
        keys.append((tuple(lam), (j, k, p)))
    return out, keys


def _commutator_counts(n, left, right, radix):
    """a b - b a on the lattice (see DiffOp._counted).  Both products pair
    the same points to the same point (mu, lam, j, k), so the pairs are
    counted first, +1 at (point, lam2 . mu1) and -1 at (point, lam1 . mu2),
    each under the one integer packed point * step + top + q power; a pair
    whose two pairings agree cancels on the spot, and only the counts that
    stay nonzero are unpacked.  lam1 . mu2 is read from a row per right
    shift, one entry per distinct left exponent."""
    pack, top = radix.pack, n * radix.half ** 2   # |lam . mu| <= top
    step, lams, lefts, rights, rows = 2 * top + 1, {}, {}, {}, {}
    for mu, lam, j, k in left:
        lefts.setdefault(mu, []).append((lams.setdefault(lam, len(lams)),
                                         pack(mu + lam + (j, k)) * step + top))
    for mu, lam, j, k in right:
        if mu not in rows:
            rows[mu] = [sum(map(mul, lam1, mu)) for lam1 in lams]
        rights.setdefault(lam, []).append(
            (rows[mu], pack(mu + lam + (j, k)) * step))
    counts = {}
    for mu1, points in lefts.items():
        for lam2, mus in rights.items():
            p = sum(map(mul, lam2, mu1))
            for row, v2 in mus:
                for i1, v1 in points:
                    r = row[i1]
                    if p != r:
                        v = v1 + v2
                        counts[v + p] = counts.get(v + p, 0) + 1
                        counts[v + r] = counts.get(v + r, 0) - 1
    tables, keys = {}, []
    for v, count in counts.items():
        if count:
            v, p = divmod(v, step)
            x = radix.unpack(v, 2 * n + 2)
            tables.setdefault(tuple(x[:n]), {})[len(keys)] = count
            keys.append((tuple(x[n:2 * n]), (x[-2], x[-1], p - top)))
    return tables, keys


class DiffOpError(ValueError):
    pass


class UnresolvedFactorError(DiffOpError):
    """A gauge conjugation left unmatched formal factor symbols."""


class DiffOp(TermSum):
    __slots__ = ("n", "mode", "terms")

    def __init__(self, n, terms=None, mode=GL):
        if mode not in (GL, SL_QUOTIENT):
            raise DiffOpError("unknown mode %r" % mode)
        self.n = n
        self.mode = mode
        self.terms = add_terms({}, self._checked(terms)) if terms else {}

    def _checked(self, terms):
        n, quotient = self.n, self.mode == SL_QUOTIENT
        for mu, f in terms.items():
            mu = check_vector(mu, n)
            if quotient:
                mu = com_quotient_canonicalize(mu)
            if not isinstance(f, TorusRat):
                f = TorusRat(f) if isinstance(f, TorusPoly) else \
                    TorusRat(TorusPoly.constant(n, f))
            if f.is_zero:
                continue
            if quotient and not f.sl_balanced():
                raise DiffOpError(
                    "coefficient of T%s does not descend to the "
                    "simultaneous-shift quotient" % (mu,))
            yield mu, f

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(n, mode=GL):
        return DiffOp(n, {}, mode)

    @staticmethod
    def identity(n, mode=GL):
        return DiffOp(n, {(0,) * n: TorusRat.one(n)}, mode)

    @staticmethod
    def shift(n, mu, coeff=None, mode=GL):
        if coeff is None:
            coeff = TorusRat.one(n)
        return DiffOp(n, {tuple(mu): coeff}, mode)

    # -- linear structure (the rest is TermSum's) -------------------------

    def _check(self, other):
        if self.n != other.n or self.mode != other.mode:
            raise DiffOpError("operators live in different algebras")

    def __mul__(self, other):
        if isinstance(other, (int, LaurentQK)):
            return self._scaled(other)
        other = self._coerce(other)
        return other if other is NotImplemented else self.compose(other)

    def __rmul__(self, other):
        # a scalar or a function on the left multiplies every coefficient
        if isinstance(other, (int, LaurentQK, TorusRat, TorusPoly)):
            return self._scaled(other)
        return NotImplemented

    def _coerce(self, other):
        """other as an operator of this algebra: a scalar or a function is
        its multiple of T_0; NotImplemented for anything else."""
        if isinstance(other, DiffOp):
            return other
        if isinstance(other, (int, LaurentQK, TorusPoly, TorusRat)):
            return DiffOp(self.n, {(0,) * self.n: other}, self.mode)
        return NotImplemented

    def _operand(self, other):
        op = self._coerce(other)
        if op is NotImplemented:
            raise TypeError("cannot coerce %r" % (other,))
        self._check(op)
        return op

    def _wrap(self, terms):
        out = DiffOp.__new__(DiffOp)
        out.n, out.mode, out.terms = self.n, self.mode, terms
        return out

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.n != other.n or self.mode != other.mode:
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(f == other.terms[mu] for mu, f in self.terms.items())

    def __hash__(self):
        return hash((self.n, self.mode, frozenset(self.terms)))

    # -- algebra ----------------------------------------------------------

    def compose(self, other):
        """Operator product, exact and associative:
        (f T_mu)(g T_nu) = f sigma_mu(g) T_(mu+nu).

        Operands of unit-weight monomials are counted on the lattice (see
        _counted); otherwise every pair of terms is multiplied exactly as
        f * sigma_mu(g) in TorusRat.
        """
        other = self._operand(other)
        out = self._counted(other, _product_counts)
        if out is not None:
            return out
        quotient = self.mode == SL_QUOTIENT
        terms = {}
        for mu, f in self.terms.items():
            for nu, g in other.terms.items():
                key = vadd(mu, nu)
                if quotient:
                    key = com_quotient_canonicalize(key)
                add_terms(terms, ((key, f * g.shift_substitute(mu)),))
        return self._wrap(terms)

    def commutator(self, other):
        """[self, other] = self other - other self.  Unit-weight operands
        count both products in one signed table (see _counted), so that
        equal pairings cancel before any scalar is built; otherwise the
        two exact products are subtracted."""
        other = self._operand(other)
        out = self._counted(other, _commutator_counts)
        if out is not None:
            return out
        return self.compose(other) - other.compose(self)

    def _counted(self, other, tally):
        """A product of self and other counted on the integer lattice, or
        None if some coefficient does not decode.

        A coefficient monomial c e^(lam . z) of T_mu whose scalar c is
        exactly a weight w(j, k) = ROOT_WEIGHT^j K^k, j >= 0, decodes to
        the point (mu, lam, j, k).  A pair of points adds componentwise and
        picks up q^(lam2 . mu1).  Vectors are packed as sum_i v_i B^i with
        the radix B = 2 (a + b) + 1 of this call, a and b the largest
        |entry| of self's and other's points: an entry of the sum of a
        left and a right point is at most a + b = B // 2 in absolute value,
        a balanced digit, so the packed sum is the sum of the packed
        points, and it unpacks exactly.  ``tally(n, left, right, radix)``
        returns the counts of the result, ({mu: {id: count}}, keys) with
        keys[id] = (lam, (j, k, p)) standing for q^p w(j, k) e^(lam . z).
        Each distinct count table of a shift becomes one coefficient, and
        each distinct table of an exponent one scalar, shared within the
        call; zero terms are dropped.
        """
        operands = []
        for op in (self, other):
            points = []
            for mu, f in op.terms.items():
                if not f.is_polynomial():
                    return None
                for lam, c in f.num.terms.items():
                    q2, k = max(c.terms)
                    if q2 < 0 or q2 % 4 or _weight(q2 // 4, k) != c.terms:
                        return None
                    points.append((mu, lam, q2 // 4, k))
            operands.append(points)
        n, half = self.n, sum(max((max(map(abs, mu + lam + (j, k)))
                                   for mu, lam, j, k in points), default=0)
                              for points in operands)
        # quotient shifts end in 0, so their sums are canonical already
        tables, keys = tally(n, *operands, _Radix(half, 2 * n + 2))
        terms, coeffs, scalars = {}, {}, {}
        for mu, table in tables.items():
            key = frozenset(table.items())
            f = coeffs.get(key)
            if f is None:
                slots, poly = {}, {}
                for i, count in table.items():
                    lam, w = keys[i]
                    slots.setdefault(lam, {})[w] = count
                for lam, counts in slots.items():
                    counts = frozenset(counts.items())
                    c = scalars.get(counts)
                    if c is None:
                        acc = {}
                        for w, count in counts:
                            for t, x in _weight(*w).items():
                                acc[t] = acc.get(t, 0) + count * x
                        c = scalars[counts] = LaurentQK._wrap(
                            {t: x for t, x in acc.items() if x})
                    if c:
                        poly[lam] = c
                f = coeffs[key] = TorusRat(TorusPoly._of(n, poly))
            if f.num.terms:
                terms[mu] = f
        return self._wrap(terms)

    def gauge_monomial(self, lam):
        """Conjugate by the monomial e^(lam . z): the T_mu coefficient is
        multiplied by q^(-lam . mu).  The pairing must land in (1/2)Z."""
        lam = tuple(Fraction(x) for x in lam)
        if len(lam) != self.n:
            raise DiffOpError("gauge vector length mismatch")
        if self.mode == SL_QUOTIENT and sum(lam) != 0:
            raise DiffOpError(
                "gauge vector must have zero sum on the quotient")
        terms = {}
        for mu, f in self.terms.items():
            p = -2 * sum(l * m for l, m in zip(lam, mu))
            if p.denominator != 1:
                raise DiffOpError(
                    "gauge pairing outside (1/2)Z for %s" % (mu,))
            terms[mu] = f * LaurentQK.q_half(int(p))
        return self._wrap(terms)

    def quotient_reduce(self):
        """Pass to the simultaneous-shift quotient.  Requires every
        coefficient exponent to have zero sum."""
        for mu, f in self.terms.items():
            if not (f.num.is_sl() and f.den.is_sl()):
                raise DiffOpError(
                    "coefficient of T%s is not a function on the sl torus"
                    % (mu,))
        return DiffOp(self.n, self.terms, SL_QUOTIENT)

    def scalar_map(self, fn):
        """Apply a scalar-ring map to every coefficient (e.g. K -> value)."""
        terms = {}
        for mu, f in self.terms.items():
            den = f.den.map_coeffs(fn)
            if den.is_zero:
                raise ZeroDivisionError("denominator vanished under map")
            g = TorusRat(f.num.map_coeffs(fn), den)
            if not g.is_zero:
                terms[mu] = g
        return self._wrap(terms)

    def substitute_k(self, value):
        return self.scalar_map(lambda c: c.substitute_k(value))

    # -- rendering ---------------------------------------------------------

    def __repr__(self):
        return "DiffOp(N=%d, %s)" % (self.n, self.text())

    def text(self):
        if not self.terms:
            return "0"
        lines = []
        for mu in sorted(self.terms):
            lines.append("(%s) T%s" % (self.terms[mu].text(), list(mu)))
        return "  +  ".join(lines)

    def to_json(self):
        """Within one call each distinct scalar object, and each distinct
        denominator (most are the shared unit), is rendered once and its
        JSON form reused; every call returns fresh structures."""
        forms = {}   # id of a scalar or a denominator -> its JSON form
        terms = []
        for mu in sorted(self.terms):
            f = self.terms[mu]
            den = forms.get(id(f.den))
            if den is None:
                den = forms[id(f.den)] = f.den.to_json(forms)
            terms.append({"shift": list(mu), "num": f.num.to_json(forms),
                          "den": den})
        return {"N": self.n, "mode": self.mode, "terms": terms}

    @staticmethod
    def from_json(data):
        n = data["N"]
        terms = {}
        for rec in data["terms"]:
            f = TorusRat(TorusPoly.from_json(n, rec["num"]),
                         TorusPoly.from_json(n, rec["den"]))
            terms[tuple(rec["shift"])] = f
        return DiffOp(n, terms, data["mode"])


# ---------------------------------------------------------------------------
# The root-exponential generator automorphism
# ---------------------------------------------------------------------------
#
# The map fixes every T_i and sends the cyclic root exponential
# E_i = e^(z_i - z_(i+1)) to E_i T_i T_(i+1)^(-1).  Because the N cyclic
# root exponentials multiply to 1 while their images pick up a net q power,
# the image of a coefficient monomial depends on the winding vector m with
# which it is written as E^m.  Every monomial is read with the
# minimum-entry-zero winding, so the map is multiplicative only on products
# whose windings add.

def _min_zero_lift(lam):
    """Winding vector m with sum_i m_i alpha_i = lam (cyclic roots) and
    min(m) = 0: partial sums of lam, shifted."""
    if sum(lam) != 0:
        raise DiffOpError(
            "coefficient exponent %s is not in the root lattice" % (lam,))
    m = []
    acc = 0
    for x in lam[:-1]:
        acc += x
        m.append(acc)
    m.append(0)
    lo = min(m)
    return tuple(x - lo for x in m)


def sect6_automorphism(op):
    """Image of an operator under T_i -> T_i,
    E_i -> E_i T_i T_(i+1)^(-1) (cyclic indices), in the same mode.

    The coefficients must be Laurent polynomials in the root
    exponentials.  A monomial e^(lam . z) is E^m with m the
    minimum-entry-zero winding of lam; multiplying the images of the
    generators in ascending generator order yields

        c e^(lam . z) T_mu -> c q^(s(m)) e^(lam . z) T_(mu + lam),

    with s(m) = sum_i m_i (m_i - 1)
             + sum_(i<j) m_i m_j (alpha_j . (e_i - e_(i+1))).
    """
    n = op.n
    roots = [cyclic_root(n, i) for i in range(1, n + 1)]

    def q_power(m):
        out = 0
        for i, mi in enumerate(m):
            out += mi * (mi - 1)
            for j in range(i + 1, n):
                if m[j]:
                    out += mi * m[j] * dot(roots[j], roots[i])
        return out

    # output shift -> {exponent: scalar}; distinct (mu, lam) pairs land on
    # distinct (mu + lam, lam) slots, so nothing is added or cancelled
    images = {}
    for mu, f in op.terms.items():
        if not f.is_polynomial():
            raise DiffOpError("cannot lift a non-polynomial coefficient")
        for lam, c in f.num.terms.items():
            p = q_power(_min_zero_lift(lam))
            images.setdefault(vadd(mu, lam), {})[lam] = \
                c * LaurentQK.q(p) if p else c
    return DiffOp(n, {nu: TorusPoly._of(n, acc)
                      for nu, acc in images.items()}, op.mode)


# ---------------------------------------------------------------------------
# Gauge conjugation by a product of square-root factors
# ---------------------------------------------------------------------------
#
# Each factor psi(form . z) obeys psi(x + 2 hbar) = psi(x) f(x)^(-1), with
# the square-root symbol f(x)^2 = 1 + g^2 e^x.  A coefficient is a dict
# (form, offset) -> e standing for the product of the symbols
# f(form . z + offset*hbar)^e; f(form . z + offset*hbar)^2 resolves to
# 1 + g^2 q^offset e^(form . z).  The resolved operators never contain the
# affine coupling K, so the scalar K slot carries g^2 there.

def conjugate_by_factor_product(ham, forms):
    """Exact gauge conjugation P^(-1) A P by P = prod psi(form . z).

    ``ham`` is an (n, mode, coefficients) triple, each coefficient a dict
    of square-root symbol exponents.  Moving P through T_mu moves the
    argument of psi(form . z) by t = (form . mu)/2 steps, which contributes
    f^(-1) at offsets 0, 2, ..., 2(t-1) for t > 0 and f at offsets
    2t, ..., -2 for t < 0.  The result is a resolved DiffOp; it is an
    error if any symbol is left with an odd exponent.
    """
    n, mode, coeffs = ham
    forms = [check_vector(form, n) for form in forms]
    terms = {}
    for mu, syms in coeffs.items():
        syms = dict(syms)
        for form in forms:
            move = dot(form, mu)
            if move % 2:
                raise DiffOpError(
                    "shift %s moves argument of psi by %d, not a multiple "
                    "of step 2" % (mu, move))
            e = -1 if move > 0 else 1
            for off in range(min(move, 0), max(move, 0), 2):
                syms[form, off] = syms.get((form, off), 0) + e
        terms[mu] = _resolve_symbols(n, syms)
    return DiffOp(n, terms, mode)


def _resolve_symbols(n, syms):
    """Substitute f(...)^2 = 1 + g^2 q^offset e^(form.z), g^2 in the K
    slot, in sorted symbol order; error if any symbol is left with an odd
    exponent."""
    out = TorusRat.one(n)
    for (form, off), e in sorted(syms.items()):
        if not e:
            continue
        if e % 2:
            raise UnresolvedFactorError(
                "unmatched factor symbol f(%s . z %+d hbar)^%d"
                % (list(form), off, e))
        sq = TorusRat(
            TorusPoly.one(n)
            + TorusPoly.monomial(
                n, form, LaurentQK.monomial(1, q2=2 * off, k=1)))
        if e < 0:
            sq = sq.inverse()
        for _ in range(abs(e) // 2):
            out = out * sq
    return out
