"""Functions on the formal torus: exponent lattices and Laurent sums.

A torus polynomial is a finite sum  sum_lam c_lam * e^(lam . z)  with
lam in Z^N and scalar coefficients; a torus rational is a quotient of two
such polynomials.  The difference-operator shift z -> z + hbar*mu acts on
a monomial by multiplication with q^(lam . mu), which is the only way the
coordinates ever enter.

In sl mode every stored exponent vector must sum to zero, so the
simultaneous-shift quotient (identifying mu with mu + (1,...,1)) never
changes a coefficient.

Values are immutable after construction and safe to share between
threads; every operation returns a fresh object.

``TermSum`` is the linear structure that a torus polynomial shares with
the difference operators (``diffop.DiffOp``) and the differential
operators (``limits.DifferentialOp``): a dict of nonzero terms, added and
subtracted by one merge (``add_terms``), negated, scaled and tested for
zero in one place.  Each of the three types supplies only how a clean
dict becomes one of its values, how another operand lifts to it, and
its rank (and mode) check.
"""

from __future__ import annotations

from operator import add, mul, sub

from .scalars import LaurentQK, as_scalar

ONE = LaurentQK.one()


class TorusError(ValueError):
    pass


def check_vector(v, n):
    v = tuple(v)
    if len(v) != n:
        raise TorusError("vector length %d does not match N=%d" % (len(v), n))
    if not all(isinstance(e, int) for e in v):
        raise TorusError("lattice vectors must have integer entries")
    return v


def dot(a, b):
    return sum(map(mul, a, b))


def vadd(a, b):
    return tuple(map(add, a, b))


def vneg(a):
    return tuple(-x for x in a)


def cyclic_root(n, i):
    """Simple root alpha_i = e_i - e_(i+1) with indices cyclic mod n
    (i = n, equivalently 0, gives e_n - e_1)."""
    i = ((i - 1) % n) + 1
    v = [0] * n
    v[i - 1] += 1
    v[i % n] -= 1
    return tuple(v)


def root_form(m):
    """The exponent vector sum_i m_i alpha_i of the cyclic simple roots:
    entry j is m_j - m_(j-1), indices cyclic."""
    return tuple(m[j] - m[j - 1] for j in range(len(m)))


def add_terms(terms, pairs, op=add):
    """Merge (key, value) pairs into the dict ``terms`` in place with op
    (add, or sub to subtract the values), dropping every key whose result
    is zero; returns ``terms``."""
    for key, value in pairs:
        prev = terms.get(key)
        if prev is not None:
            value = op(prev, value)
        elif op is sub:
            value = -value
        if not value.is_zero:
            terms[key] = value
        elif prev is not None:
            del terms[key]
    return terms


class TermSum:
    """A finite sum of terms: ``terms`` maps keys to nonzero coefficients.

    A subclass supplies ``_wrap(terms)``, a value of its own rank (and
    mode) on a dict that is already clean; ``_coerce(other)``, the other
    operand lifted to its type, or NotImplemented; and ``_check(other)``,
    which raises unless a lifted operand has the same rank (and mode).
    """

    __slots__ = ()

    def _merged(self, other, op):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check(other)
        return self._wrap(
            add_terms(dict(self.terms), other.terms.items(), op))

    def __add__(self, other):
        return self._merged(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._merged(other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def __neg__(self):
        return self._wrap({key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, LaurentQK)):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def _scaled(self, s):
        """Every coefficient times s; products that vanish are dropped."""
        terms = {}
        for key, c in self.terms.items():
            p = c * s
            if not p.is_zero:
                terms[key] = p
        return self._wrap(terms)

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms


def com_quotient_canonicalize(mu):
    """Canonical representative of a shift modulo Z*(1,...,1): subtract the
    last entry, so canonical vectors end in 0."""
    last = mu[-1]
    if last == 0:
        return tuple(mu)
    return tuple(e - last for e in mu)


_UNITS = {}   # rank -> the shared unit denominator; read only


def _unit(n):
    """The constant polynomial 1 of rank n, one shared immutable instance
    per rank: the denominator of every polynomial TorusRat."""
    one = _UNITS.get(n)
    if one is None:
        one = _UNITS[n] = TorusPoly.one(n)
    return one


class TorusPoly(TermSum):
    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None, sl=False):
        self.n = n
        self.terms = add_terms({}, self._checked(terms, sl)) if terms else {}

    def _checked(self, terms, sl):
        for exp, c in terms.items():
            exp = check_vector(exp, self.n)
            if sl and sum(exp) != 0:
                raise TorusError("sl mode requires zero-sum exponents")
            yield exp, as_scalar(c)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(n):
        return TorusPoly._of(n, {})

    @staticmethod
    def one(n):
        return TorusPoly._of(n, {(0,) * n: ONE})

    @staticmethod
    def constant(n, scalar):
        return TorusPoly(n, {(0,) * n: scalar})

    @staticmethod
    def monomial(n, exp, coeff=ONE):
        return TorusPoly(n, {tuple(exp): coeff})

    @staticmethod
    def _of(n, terms):
        """A polynomial of rank n on a dict that is already clean: checked
        exponent keys and nonzero LaurentQK values; no copy, no checks."""
        out = TorusPoly.__new__(TorusPoly)
        out.n, out.terms = n, terms
        return out

    def _wrap(self, terms):
        return TorusPoly._of(self.n, terms)

    # -- ring ops --------------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise TorusError("mixed torus ranks %d and %d" % (self.n, other.n))

    def __mul__(self, other):
        if isinstance(other, (int, LaurentQK)):
            return self._scaled(as_scalar(other))
        if not isinstance(other, TorusPoly):
            return NotImplemented
        self._check(other)
        return self._wrap(add_terms(
            {}, ((vadd(e1, e2), c1 * c2)
                 for e1, c1 in self.terms.items()
                 for e2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, TorusPoly):
            return other
        if isinstance(other, (int, LaurentQK)):
            return TorusPoly.constant(self.n, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, LaurentQK)):
            other = self._coerce(other)
        if not isinstance(other, TorusPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        # a constant equals, so hashes like, its scalar
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1 and (0,) * self.n in terms:
            return hash(terms[(0,) * self.n])
        return hash((self.n, frozenset(terms.items())))

    # -- torus structure ----------------------------------------------

    def shift_substitute(self, mu):
        """z -> z + hbar*mu: each monomial e^(lam.z) picks up q^(lam.mu)."""
        mu = check_vector(mu, self.n)
        terms = {}
        for e, c in self.terms.items():
            p = dot(e, mu)
            terms[e] = c * LaurentQK.q(p) if p else c
        return self._wrap(terms)

    def monomial_content(self):
        """Componentwise minimum of the exponent vectors (zero poly: origin)."""
        if not self.terms:
            return (0,) * self.n
        cols = zip(*self.terms.keys())
        return tuple(min(col) for col in cols)

    def exp_shift(self, delta):
        """Multiply by the monomial e^(delta . z)."""
        delta = check_vector(delta, self.n)
        return self._wrap({vadd(e, delta): c for e, c in self.terms.items()})

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading monomial."""
        if not self.terms:
            raise TorusError("zero polynomial has no leading term")
        key = max(self.terms, key=lambda e: (sum(e), e))
        return key, self.terms[key]

    def map_coeffs(self, fn):
        """Termwise scalar map; drops terms whose image vanishes."""
        terms = {}
        for e, c in self.terms.items():
            c2 = fn(c)
            if not c2.is_zero:
                terms[e] = c2
        return self._wrap(terms)

    def is_sl(self):
        return all(sum(e) == 0 for e in self.terms)

    # -- rendering -------------------------------------------------------

    def __repr__(self):
        return "TorusPoly(%s)" % self.text()

    def text(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "e[%s]" % ",".join(str(x) for x in e) if any(e) else ""
            ct = c.text()
            if mono and ct == "1":
                parts.append(mono)
            elif mono:
                parts.append("(%s)*%s" % (ct, mono))
            else:
                parts.append("(%s)" % ct)
        return " + ".join(parts)

    def to_json(self):
        return [{"exp": list(e), "coeff": c.to_json()}
                for e, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(n, data):
        return TorusPoly(
            n, {tuple(d["exp"]): LaurentQK.from_json(d["coeff"]) for d in data})


class TorusRat:
    """Quotient of torus polynomials, normalized by clearing the common
    monomial content and scaling the denominator's graded-lex leading
    coefficient's leading unit to 1.

    Equality is decided by exact cross multiplication, so representatives
    with uncancelled common factors still compare correctly.  That is why
    the type is unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            # a polynomial over 1 is already normalized
            self.num, self.den = num, _unit(num.n)
            return
        if num.n != den.n:
            raise TorusError("numerator and denominator rank mismatch")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        num, den = _normalize(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def zero(n):
        return TorusRat(TorusPoly.zero(n))

    @staticmethod
    def one(n):
        return TorusRat(TorusPoly.one(n))

    @staticmethod
    def monomial(n, exp, coeff=ONE):
        return TorusRat(TorusPoly.monomial(n, exp, coeff))

    @property
    def n(self):
        return self.num.n

    @property
    def is_zero(self):
        return self.num.is_zero

    def is_polynomial(self):
        terms = self.den.terms
        if len(terms) != 1:
            return False
        c = terms.get((0,) * self.num.n)
        return c is not None and c.terms == ONE.terms

    def as_poly(self):
        if not self.is_polynomial():
            raise TorusError("not a polynomial: %s" % self.text())
        return self.num

    def _merged(self, other, op):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        den = self.den
        if den is other.den or den == other.den:
            if self.is_polynomial():
                return TorusRat(op(self.num, other.num))
            return TorusRat(op(self.num, other.num), den)
        return TorusRat(op(self.num * other.den, other.num * den),
                        den * other.den)

    def __add__(self, other):
        return self._merged(other, add)

    __radd__ = __add__

    def __neg__(self):
        out = TorusRat.__new__(TorusRat)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        return self._merged(other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        if isinstance(other, (int, LaurentQK)):
            return TorusRat(self.num * other, self.den)
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return TorusRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return TorusRat(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self * other.inverse()

    def _coerce(self, other):
        if isinstance(other, TorusRat):
            return other
        if isinstance(other, TorusPoly):
            return TorusRat(other)
        if isinstance(other, (int, LaurentQK)):
            return TorusRat(TorusPoly.constant(self.n, other))
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self.n == other.n and \
            self.num * other.den == other.num * self.den

    __hash__ = None

    def shift_substitute(self, mu):
        out = TorusRat.__new__(TorusRat)
        out.num = self.num.shift_substitute(mu)
        out.den = self.den.shift_substitute(mu)
        return out

    def map_coeffs(self, fn):
        """Apply a multiplicative scalar map to numerator and denominator."""
        return TorusRat(self.num.map_coeffs(fn), self.den.map_coeffs(fn))

    def sl_balanced(self):
        """True when the ratio descends to the sl torus: numerator and
        denominator each homogeneous in total exponent, of equal weight."""
        if self.num.is_zero:
            return True
        wn = {sum(e) for e in self.num.terms}
        wd = {sum(e) for e in self.den.terms}
        return len(wn) == 1 and wn == wd

    def __repr__(self):
        return "TorusRat(%s)" % self.text()

    def text(self):
        if self.is_polynomial():
            return self.num.text()
        return "(%s) / (%s)" % (self.num.text(), self.den.text())

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(n, data):
        return TorusRat(TorusPoly.from_json(n, data["num"]),
                        TorusPoly.from_json(n, data["den"]))


def _normalize(num, den):
    if num.is_zero:
        return num, _unit(num.n)
    shift = vneg(den.monomial_content())
    if any(shift):
        num = num.exp_shift(shift)
        den = den.exp_shift(shift)
    _, lead = den.leading()
    unit = lead.leading_unit()
    if not unit.is_one:
        inv = unit.monomial_inverse()
        num = num.map_coeffs(lambda c: c * inv)
        den = den.map_coeffs(lambda c: c * inv)
    return num, den
