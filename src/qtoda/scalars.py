"""Exact scalar arithmetic: Laurent polynomials in q and K over the rationals.

The scalar ring of the whole package.  A scalar is a finite sum of terms

    c * q^(a/2) * K^b

with rational c, stored under the exponent key (a, b).  A coefficient is
an ``int`` when integral (every constructor ensures this) and a
``fractions.Fraction`` otherwise, so the integral coefficients the engine
produces never pay for ``Fraction`` arithmetic.  Sums and products of
``Fraction`` coefficients may leave an integral ``Fraction``; it
compares, hashes and serialises exactly like the ``int``.  The q exponent
is stored doubled so that half-integer powers (which arise from
conjugation by the Weyl-vector monomial) stay in integer arithmetic.  The
degeneration checks that never involve the affine coupling let the K slot
carry another symbol: the relativistic coupling g^2, or the
symmetric-function parameter t = q^(2k).

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

_ZKEY = (0, 0)   # exponent key of the constant term: (doubled q, K)


class IllPosedLimitError(ArithmeticError):
    """Raised when a truncated series quotient does not exist at the
    requested window."""


def _as_fraction(x):
    """The exact rational value of x: an int when integral, else a
    Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, LaurentQK):
        raise TypeError("expected a rational, got a LaurentQK")
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class LaurentQK:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                c = _as_fraction(c)
                if c:
                    key = tuple(key)
                    if len(key) != 2:
                        raise ValueError(
                            "exponent key must be a (q2, K) pair")
                    prev = clean.get(key)
                    if prev is None:
                        clean[key] = c
                    else:
                        s = prev + c
                        if s:
                            clean[key] = s
                        else:
                            del clean[key]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return LaurentQK()

    @staticmethod
    def one():
        return LaurentQK({_ZKEY: 1})

    @staticmethod
    def rational(x):
        return LaurentQK({_ZKEY: _as_fraction(x)})

    @staticmethod
    def monomial(coeff=1, q2=0, k=0):
        return LaurentQK({(q2, k): _as_fraction(coeff)})

    @staticmethod
    def _wrap(terms):
        """A scalar on a dict that is already clean: (q2, K) exponent
        keys and nonzero rational values; no copy, no checks."""
        out = LaurentQK.__new__(LaurentQK)
        out.terms = terms
        return out

    @staticmethod
    def q(n=1):
        """q^n for integer n."""
        return LaurentQK.monomial(1, q2=2 * n)

    @staticmethod
    def q_half(n2):
        """q^(n2/2); the argument is the doubled exponent."""
        return LaurentQK.monomial(1, q2=n2)

    @staticmethod
    def k(n=1):
        return LaurentQK.monomial(1, k=n)

    # -- ring structure ------------------------------------------------

    def _merged(self, other, op):
        """other's terms merged into a copy of self's with op (add, or sub
        for a difference); keys whose result is zero are dropped."""
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = op(terms.get(key, 0), c)
            if s:
                terms[key] = s
            else:
                del terms[key]
        return LaurentQK._wrap(terms)

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented or not self.terms:
            return other
        if not other.terms:
            return self
        return self._merged(other, add)

    __radd__ = __add__

    def __neg__(self):
        out = LaurentQK.__new__(LaurentQK)
        out.terms = {key: -c for key, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        if self.terms == other.terms:
            return ZERO
        return self._merged(other, sub)

    def __rsub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return other - self

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        if not self.terms or not other.terms:
            return LaurentQK()
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = (k1[0] + k2[0], k1[1] + k2[1])
                s = terms.get(key, 0) + c1 * c2
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
        out = LaurentQK.__new__(LaurentQK)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer power expected")
        if n < 0:
            inv = self.monomial_inverse()
            return inv ** (-n)
        out = LaurentQK.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return self.terms == other.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        # a constant equals, so hashes like, its rational value
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1 and _ZKEY in terms:
            return hash(terms[_ZKEY])
        return hash(frozenset(terms.items()))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_one(self):
        return self.terms == {_ZKEY: 1}

    # -- structure helpers ----------------------------------------------

    def is_monomial(self):
        return len(self.terms) == 1

    def monomial_inverse(self):
        """Inverse of a single-term scalar; error otherwise."""
        if len(self.terms) != 1:
            raise ZeroDivisionError("only monomial scalars are invertible")
        ((q2, k), c), = self.terms.items()
        return LaurentQK({(-q2, -k): Fraction(1, c)})

    def leading_unit(self):
        """The leading term (largest exponent key lexicographically) as an
        invertible monomial scalar."""
        if not self.terms:
            raise ZeroDivisionError("zero scalar has no leading unit")
        key = max(self.terms)
        return LaurentQK({key: self.terms[key]})

    def bar(self):
        """The involution q -> q^-1 (K untouched)."""
        return LaurentQK({(-q2, k): c for (q2, k), c in self.terms.items()})

    def rational_value(self):
        if not self.terms:
            return Fraction(0)
        if self.terms.keys() == {_ZKEY}:
            return Fraction(self.terms[_ZKEY])
        raise ValueError("scalar is not a plain rational: %s" % self)

    def substitute_k(self, value):
        """Evaluate K at an exact rational value (K -> value)."""
        value = Fraction(value)
        terms = {}
        for (q2, b), c in self.terms.items():
            if value == 0:
                if b < 0:
                    raise ZeroDivisionError("negative K power at K=0")
                if b > 0:
                    continue
                scaled = c
            else:
                scaled = c * value ** b
            nk = (q2, 0)
            s = terms.get(nk, 0) + scaled
            if s:
                terms[nk] = s
            else:
                terms.pop(nk, None)
        return LaurentQK(terms)

    # -- rendering -------------------------------------------------------

    def __repr__(self):
        return "LaurentQK(%s)" % self.text()

    def text(self):
        """Canonical text form, terms sorted by descending exponent key."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            factors = []
            q2, kk = key
            if q2:
                factors.append("q^%s" % _half_str(q2))
            if kk:
                factors.append("K^%d" % kk)
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def to_json(self):
        """JSON form: list of [q2, K, numerator, denominator]."""
        return [[k[0], k[1], c.numerator, c.denominator]
                for k, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(data):
        terms = {}
        for q2, kk, num, den in data:
            terms[(q2, kk)] = Fraction(num, den)
        return LaurentQK(terms)


def _half_str(n2):
    if n2 % 2 == 0:
        return str(n2 // 2)
    return "(%d/2)" % n2


def _operand(x):
    """x as a LaurentQK if it is one or an exact rational, else
    NotImplemented, so that the other operand's reflected method runs."""
    if isinstance(x, LaurentQK):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentQK.rational(x)
    return NotImplemented


def _promote(x):
    out = _operand(x)
    if out is NotImplemented:
        raise TypeError("cannot promote %r to LaurentQK" % (x,))
    return out


def as_scalar(x):
    """x itself if it is a LaurentQK, else the constant scalar of its exact
    rational value."""
    return x if isinstance(x, LaurentQK) else LaurentQK.rational(x)


ZERO = LaurentQK.zero()
ONE = LaurentQK.one()


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

def q_integer(a, d=1):
    """The balanced q-integer [a] in base q^d:
    (q^(da) - q^(-da)) / (q^d - q^(-d)).

    Defined for every integer a; [0] = 0 and [-a] = -[a].
    """
    if d not in (1, 2, 3):
        raise ValueError("symmetrizer d must be 1, 2 or 3")
    if a == 0:
        return LaurentQK.zero()
    sign = 1 if a > 0 else -1
    m = abs(a)
    terms = {}
    for j in range(m):
        terms[(2 * d * (m - 1 - 2 * j), 0)] = sign
    return LaurentQK(terms)


def q_binomial(n, k, d=1):
    """Gaussian binomial coefficient in base q^d, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return LaurentQK.zero()
    if k == 0 or k == n:
        return LaurentQK.one()
    key = (n, k, d)
    cached = _QBIN_CACHE.get(key)
    if cached is not None:
        return cached
    # Pascal recurrence for the balanced convention:
    # [n,k] = q^(dk) [n-1,k] + q^(-d(n-k)) [n-1,k-1]
    val = (LaurentQK.q_half(2 * d * k) * q_binomial(n - 1, k, d)
           + LaurentQK.q_half(-2 * d * (n - k)) * q_binomial(n - 1, k - 1, d))
    _QBIN_CACHE[key] = val
    return val


_QBIN_CACHE = {}


def serre_scalar_sum(a_ij, b_ij, sign, d=1):
    """The scalar shadow of the quantum Serre relation:

        sum_{k=0}^{1-a_ij} (-1)^k [1-a_ij, k]_{q^d} q^(sign * k * b_ij).

    Vanishes identically by the q-binomial theorem whenever b_ij = d*a_ij.
    """
    if a_ij > 0:
        raise ValueError("off-diagonal Cartan entry must be non-positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    total = LaurentQK.zero()
    top = 1 - a_ij
    for k in range(top + 1):
        term = q_binomial(top, k, d) * LaurentQK.q_half(2 * sign * k * b_ij)
        total = total + (term if k % 2 == 0 else -term)
    return total


# ---------------------------------------------------------------------------
# Truncated hbar expansions (q = e^hbar)
# ---------------------------------------------------------------------------

class HbarJet:
    """Truncated power series in hbar with K-Laurent coefficients.

    ``coeffs[n]`` is the coefficient of hbar^n, n = 0..order.  A possible
    hbar^(-1) term produced by series division is kept separately in
    ``pole``; ``has_pole`` records whether one was encountered.
    """

    __slots__ = ("order", "coeffs", "pole")

    def __init__(self, order, coeffs, pole=None):
        if order < 0:
            raise ValueError("order must be non-negative")
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need order+1 coefficients")
        for c in coeffs:
            _check_qfree(c)
        self.order = order
        self.coeffs = coeffs
        self.pole = pole if (pole is not None and not pole.is_zero) else None

    @property
    def has_pole(self):
        return self.pole is not None

    @staticmethod
    def constant(value, order):
        coeffs = [LaurentQK.zero() for _ in range(order + 1)]
        coeffs[0] = _promote(value)
        return HbarJet(order, coeffs)

    def __add__(self, other):
        if not isinstance(other, HbarJet):
            other = HbarJet.constant(other, self.order)
        m = min(self.order, other.order)
        coeffs = [self.coeffs[n] + other.coeffs[n] for n in range(m + 1)]
        pole = (self.pole or ZERO) + (other.pole or ZERO)
        return HbarJet(m, coeffs, pole if not pole.is_zero else None)

    def __neg__(self):
        return HbarJet(self.order, [-c for c in self.coeffs],
                       -(self.pole) if self.pole is not None else None)

    def __sub__(self, other):
        if not isinstance(other, HbarJet):
            other = HbarJet.constant(other, self.order)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentQK)):
            s = _promote(other)
            return HbarJet(self.order, [c * s for c in self.coeffs],
                           self.pole * s if self.pole is not None else None)
        if self.has_pole or other.has_pole:
            raise IllPosedLimitError("product of jets with pole terms")
        m = min(self.order, other.order)
        coeffs = []
        for n in range(m + 1):
            acc = LaurentQK.zero()
            for i in range(n + 1):
                acc = acc + self.coeffs[i] * other.coeffs[n - i]
            coeffs.append(acc)
        return HbarJet(m, coeffs)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, HbarJet):
            return NotImplemented
        return (self.order == other.order and self.coeffs == other.coeffs
                and (self.pole or ZERO) == (other.pole or ZERO))

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def valuation(self):
        """Lowest hbar order with nonzero coefficient, or None if zero."""
        if self.pole is not None:
            return -1
        for n, c in enumerate(self.coeffs):
            if not c.is_zero:
                return n
        return None

    def __repr__(self):
        parts = []
        if self.pole is not None:
            parts.append("(%s)*h^-1" % self.pole.text())
        for n, c in enumerate(self.coeffs):
            if not c.is_zero:
                parts.append("(%s)*h^%d" % (c.text(), n))
        return "HbarJet[%s; order %d]" % (" + ".join(parts) or "0", self.order)


def _check_qfree(c):
    for key in c.terms:
        if key[0] != 0:
            raise ValueError("jet coefficients must be K-Laurent only")


def jet_expand(s, order):
    """Expand a scalar at q = e^hbar into a truncated hbar series.

    K survives symbolically inside the coefficients.
    """
    coeffs = [LaurentQK.zero() for _ in range(order + 1)]
    for (q2, kk), c in s.terms.items():
        a = Fraction(q2, 2)
        power = Fraction(1)
        fact = 1
        for n in range(order + 1):
            if n > 0:
                power *= a
                fact *= n
            contrib = c * power / fact
            if contrib:
                coeffs[n] = coeffs[n] + LaurentQK.monomial(contrib, k=kk)
    return HbarJet(order, coeffs)


def jet_divide(a, b):
    """Truncated series quotient a / b.

    The quotient is computed from order val(a) - val(b); if that is -1 the
    hbar^(-1) part is stored in the pole slot, and anything below -1 is an
    ill-posed limit.  The leading coefficient of b must be an invertible
    monomial in K.
    """
    if a.has_pole or b.has_pole:
        raise IllPosedLimitError("cannot divide jets that already have poles")
    vb = b.valuation()
    if vb is None:
        raise ZeroDivisionError("division by the zero jet")
    va = a.valuation()
    if va is None:
        return HbarJet.constant(0, max(a.order - vb, 0))
    if va - vb < -1:
        raise IllPosedLimitError(
            "quotient valuation %d is below the hbar^-1 window" % (va - vb))
    lead = b.coeffs[vb]
    if not lead.is_monomial():
        raise IllPosedLimitError("leading jet coefficient is not invertible")
    lead_inv = lead.monomial_inverse()
    # shifted series: a = hbar^va * A, b = hbar^vb * B with B a unit
    m = min(a.order - va, b.order - vb)
    if m < 0:
        raise IllPosedLimitError("not enough jet orders to divide")
    A = [a.coeffs[va + n] for n in range(m + 1)]
    B = [b.coeffs[vb + n] for n in range(m + 1)]
    Q = []
    for n in range(m + 1):
        acc = A[n]
        for i in range(n):
            acc = acc - Q[i] * B[n - i]
        Q.append(acc * lead_inv)
    shift = va - vb
    out_order = m + shift
    if shift == -1:
        pole = Q[0]
        coeffs = Q[1:]
        return HbarJet(out_order, coeffs, pole)
    coeffs = [LaurentQK.zero()] * shift + Q
    return HbarJet(out_order, coeffs)
