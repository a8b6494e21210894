"""Difference-operator degenerations and the relativistic catalog.

Three families of checks live here:

  * the symmetric-function difference operator with coefficients
    prod_(j!=i) (t e^(w_i) - e^(w_j)) / (e^(w_i) - e^(w_j)), its
    monomial conjugation, the drift substitution w_i = z_i + 2 hbar i P,
    and the exact P -> infinity limit recovering the q-Toda form.  With
    u = e^(2 hbar P) = t the limit only needs the top u-degree parts of
    each coefficient's numerator and denominator.  The u-grading is
    multiplicative and the coefficient ring is an integral domain, so
    those are the products of the top parts of the factors, and the
    limit never forms the rational product;

  * exact transcriptions of the first-operator forms in shift-invariant
    coordinates, their image under the generator automorphism, and the
    K = 0 degenerations.  The drift limit, the simplified forms and the
    resolved relativistic form all have the single-shift shape
    sum_i (1 + s_i e^(z_i - z_(i+1))) T_i^(+-2) and share one builder;

  * the square-root-coefficient relativistic Hamiltonian and its gauge
    conjugation by a product of one-step factors, run under both shift
    direction conventions, together with the parameter matchings onto the
    transcriptions (fractional K powers are scoped to that one check).
    A direction resolves only if its operator equals the resolved form at
    one offset, compared whole.

None of the Macdonald or relativistic objects contains the affine coupling
K, so their scalars carry the extra symbol, t or g^2, in the K slot.
"""

from __future__ import annotations

from .scalars import LaurentQK
from .torus import (
    TorusPoly, TorusRat, add_terms, com_quotient_canonicalize, cyclic_root,
    dot,
)
from .diffop import (
    GL, ROOT_WEIGHT, SL_QUOTIENT, DiffOp, UnresolvedFactorError,
    conjugate_by_factor_product,
)


class DegenerationError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# Macdonald-type operator and its q-Toda limit
# ---------------------------------------------------------------------------

def _macdonald_factors(n):
    """Yield (i, mu, pairs) for i = 1..N, with T^mu = T_i^2: the
    (numerator, denominator) factor pairs
    (t e^(w_i) - e^(w_j), e^(w_i) - e^(w_j)), j != i, of the T_i^2
    coefficient, with the symbolic parameter t = q^(2k) in the K slot."""
    if n < 2:
        raise DegenerationError("need N >= 2")
    t = LaurentQK.k(1)
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    e = [TorusPoly.monomial(n, v) for v in units]
    te = [TorusPoly.monomial(n, v, t) for v in units]
    for i in range(n):
        yield i + 1, tuple(2 * x for x in units[i]), \
            [(te[i] - e[j], e[i] - e[j]) for j in range(n) if j != i]


def macdonald_operator(n):
    """sum_i prod_(j != i) (t e^(w_i) - e^(w_j))/(e^(w_i) - e^(w_j)) T_i^2
    with the symbolic parameter t = q^(2k) carried in the K slot."""
    op = DiffOp.zero(n, GL)
    for _, mu, pairs in _macdonald_factors(n):
        coeff = TorusRat.one(n)
        for num, den in pairs:
            coeff = coeff * TorusRat(num, den)
        op = op + DiffOp(n, {mu: coeff}, GL)
    return op


def _index_weight(lam):
    """sum_j j * lam_j: the weight of e^(lam . z) under z_j -> z_j + j*c."""
    return sum(j * x for j, x in enumerate(lam, start=1))


def _top_drift_part(poly):
    """(degree, part) of the top u-degree of a w-coordinate polynomial
    under e^(w_j) -> u^j e^(z_j) and t -> u: the t power (K slot) of each
    scalar term joins the u degree and leaves the part.  A term's degree
    and exponent fix its t power, so no degree cancels."""
    parts = {}
    for lam, c in poly.terms.items():
        wdeg = _index_weight(lam)
        for (q2, tk), frac in c.terms.items():
            add_terms(parts.setdefault(tk + wdeg, {}),
                      ((lam, LaurentQK.monomial(frac, q2=q2)),))
    top = max(parts)
    return top, TorusPoly(poly.n, parts[top])


def macdonald_toda_limit(n):
    """Conjugate the symmetric-function operator by the drift monomial
    (each T_i^2 coefficient gains u^(-(i-1))), substitute
    e^(w_j) = u^j e^(z_j) and t = u, and take u -> infinity exactly: the
    top u-parts of numerator and denominator give the limit on a degree
    tie, a lower numerator degree gives no term, a higher one diverges.

    The top u-part of a product is the product of the top u-parts, and
    its degree the sum of theirs: the coefficients lie in the integral
    domain Z[q^(+-1), t^(+-1)][e^(+-w)], where no product of top parts
    vanishes.  So the limit is taken factor by factor over the pairs of
    ``_macdonald_factors``, at the cost of O(N^2) small products, and the
    whole rational coefficient of ``macdonald_operator`` is never formed.

    The limit is  T_N^2 + sum_(i<N) (1 - e^(z_i - z_(i+1))) T_i^2  in
    shift-invariant coordinates.
    """
    terms = {}
    for i, mu, pairs in _macdonald_factors(n):
        dn, dd = -(i - 1), 0
        num = den = TorusPoly.one(n)
        for f, g in pairs:
            df, pf = _top_drift_part(f)
            dg, pg = _top_drift_part(g)
            dn, num = dn + df, num * pf
            dd, den = dd + dg, den * pg
        if dn > dd:
            raise DegenerationError(
                "divergent coefficient: u-degree %d over %d" % (dn, dd))
        if dn == dd:
            terms[mu] = TorusRat(num, den)
    return DiffOp(n, terms, SL_QUOTIENT)


def macdonald_limit_closed_form(n):
    """Direct transcription of the limiting operator."""
    return _single_shift_form(n, {i: -1 for i in range(1, n)})


def rescale_root_exponentials(op, s):
    """The variable shift z_j -> z_j + j*c with e^(-c) = s: every
    coefficient monomial e^(lam . z) is scaled by s^(-sum_j j*lam_j).

    The parameter is the inverse exponential of the offset, so that the
    degenerations only ever need nonnegative powers of the non-invertible
    scalar (q - q^(-1))^2.  A negative power of a non-monomial unit is an
    error.
    """

    def power(w):
        if w >= 0:
            return s ** w
        return s.monomial_inverse() ** (-w)

    def scale_poly(poly):
        return TorusPoly(op.n, {lam: c * power(-_index_weight(lam))
                                for lam, c in poly.terms.items()})

    terms = {}
    for mu, f in op.terms.items():
        terms[mu] = TorusRat(scale_poly(f.num), scale_poly(f.den))
    return DiffOp(op.n, terms, op.mode)


# ---------------------------------------------------------------------------
# Transcribed first-operator forms in shift-invariant coordinates
# ---------------------------------------------------------------------------

def toda_z_form(n, affine=True):
    """sum T_i^2 - (q-q^(-1))^2 sum_i K^[i=N] e^(z_i-z_(i+1)) T_i T_(i+1),
    cyclic; identical to the engine output for the first fundamental."""
    terms = {}
    for j in range(n):
        mu = [0] * n
        mu[j] = 2
        terms[tuple(mu)] = TorusRat.one(n)
    op = DiffOp(n, terms, SL_QUOTIENT)
    top = n if affine else n - 1
    for i in range(1, top + 1):
        mu = [0] * n
        mu[i - 1] += 1
        mu[i % n] += 1
        scal = ROOT_WEIGHT * (LaurentQK.k(1) if (affine and i == n) else 1)
        op = op + DiffOp(n, {tuple(mu): TorusRat.monomial(
            n, cyclic_root(n, i), scal)}, SL_QUOTIENT)
    return op


def _single_shift_form(n, scalars, direction=1):
    """sum_i (1 + s_i e^(z_i - z_(i+1))) T_i^(2 direction) on the quotient,
    s_i = scalars[i]; an index missing from ``scalars`` has no
    exponential."""
    terms = {}
    for i in range(1, n + 1):
        mu = [0] * n
        mu[i - 1] = 2 * direction
        coeff = TorusPoly.one(n)
        if i in scalars:
            coeff = coeff + TorusPoly.monomial(n, cyclic_root(n, i),
                                               scalars[i])
        terms[tuple(mu)] = TorusRat(coeff)
    return DiffOp(n, terms, SL_QUOTIENT)


def toda_simplified_form(n, affine=True):
    """sum T_i^2 - (q-q^(-1))^2 sum_i K^[i=N] e^(z_i-z_(i+1)) T_i^2: the
    image of the z-form under the generator automorphism."""
    scalars = {i: ROOT_WEIGHT for i in range(1, n)}
    if affine:
        scalars[n] = ROOT_WEIGHT * LaurentQK.k(1)
    return _single_shift_form(n, scalars)


def relativistic_resolved_form(n, periodic, q_offset=0, tau_direction=1):
    """sum_i (1 + g^2 q^(q_offset) e^(z_i - z_(i+1))) T_i^2 with g^2
    symbolic in the K slot; the nonperiodic variant drops the i = N
    exponential.  ``tau_direction`` fixes the sign of the shifts."""
    top = n if periodic else n - 1
    g2 = LaurentQK.monomial(1, q2=2 * q_offset, k=1)
    return _single_shift_form(n, dict.fromkeys(range(1, top + 1), g2),
                              tau_direction)


def substitute_g2(op, value):
    """Replace g^2, carried in the K slot, by a scalar value."""

    def sub(c):
        out = LaurentQK.zero()
        for (q2, e), frac in c.terms.items():
            out = out + LaurentQK.monomial(frac, q2=q2) * value ** e
        return out

    return op.scalar_map(sub)


def relativistic_catalog(n):
    """The transcription catalog used by the verifier suites.

    The square-root entries are (rank, mode, coefficients) triples in
    factor-symbol form, built with the shift convention that the gauge
    check reports as resolving; everything else is a plain operator.
    """
    return {
        "first_operator_z_form": toda_z_form(n, affine=True),
        "simplified_affine": toda_simplified_form(n, affine=True),
        "simplified_finite": toda_simplified_form(n, affine=False),
        "relativistic_resolved_periodic": relativistic_resolved_form(n, True),
        "relativistic_resolved_nonperiodic":
            relativistic_resolved_form(n, False),
        "square_root_periodic": relativistic_hamiltonian(n, True, -1),
        "square_root_nonperiodic": relativistic_hamiltonian(n, False, -1),
    }


# ---------------------------------------------------------------------------
# The square-root relativistic Hamiltonian and its gauge conjugation
# ---------------------------------------------------------------------------

def relativistic_hamiltonian(n, periodic, tau_direction):
    """The nearest-neighbour square-root Hamiltonian
    sum_i f(z_(i-1) - z_i) T f(z_i - z_(i+1)) in factor-symbol form, with
    T the doubled shift in direction ``tau_direction``; boundary factors
    are dropped in the nonperiodic case.

    Returns the (n, mode, coefficients) triple consumed by the gauge
    conjugation: each coefficient maps (form, offset) to the exponent of
    f(form . z + offset*hbar), with the right factor already moved through
    the shift.
    """
    if tau_direction not in (1, -1):
        raise DegenerationError("shift direction must be +1 or -1")
    coeffs = {}
    for i in range(1, n + 1):
        mu = [0] * n
        mu[i - 1] = 2 * tau_direction
        coeff = {}
        if periodic or i > 1:
            coeff[cyclic_root(n, i - 1), 0] = 1
        if periodic or i < n:
            right = cyclic_root(n, i), dot(cyclic_root(n, i), mu)
            coeff[right] = coeff.get(right, 0) + 1
        key = tuple(mu)
        if key in coeffs:
            raise DegenerationError("shift collision at %s" % (key,))
        coeffs[key] = coeff
    return (n, SL_QUOTIENT, coeffs)


def relativistic_gauge_check(n, periodic=True):
    """Conjugate the square-root Hamiltonian by the product of one-step
    factors psi(z_i - z_(i+1)) under both shift direction conventions.

    Exactly one direction resolves all square-root symbols; the resolved
    operator must be  sum_i (1 + g^2 q^c e^(z_i - z_(i+1))) T_i^2  for a
    single integer c, i.e. the resolved transcription after the coupling
    rescaling g -> g q^(-c/2).  Returns a report recording the working
    direction, the offset c, and failure diagnostics for the other
    direction.
    """
    top = n if periodic else n - 1
    forms = [cyclic_root(n, i) for i in range(1, top + 1)]
    outcomes = {}
    for direction in (1, -1):
        ham = relativistic_hamiltonian(n, periodic, direction)
        try:
            resolved = conjugate_by_factor_product(ham, forms)
        except UnresolvedFactorError as exc:
            outcomes[direction] = {"ok": False, "error": str(exc)}
            continue
        offset = _uniform_offset(resolved, n, periodic, direction)
        outcomes[direction] = {
            "ok": offset is not None,
            "offset": offset,
            "operator": resolved,
        }
    working = [d for d, o in outcomes.items() if o["ok"]]
    report = {
        "ok": len(working) == 1,
        "periodic": periodic,
        "n": n,
        "outcomes": {d: {k: v for k, v in o.items() if k != "operator"}
                     for d, o in outcomes.items()},
    }
    if working:
        d = working[0]
        report["direction"] = d
        report["offset"] = outcomes[d]["offset"]
        report["operator"] = outcomes[d]["operator"]
    return report


def _uniform_offset(op, n, periodic, direction):
    """The c with op = sum (1 + g^2 q^c e^(root)) T_i^2, i.e. op equal to
    relativistic_resolved_form(n, periodic, c, direction), else None; c is
    read off the e^(z_1 - z_2) term of T_1^2."""
    mu = com_quotient_canonicalize((2 * direction,) + (0,) * (n - 1))
    f = op.terms.get(mu)
    c = None if f is None else f.num.terms.get(cyclic_root(n, 1))
    if c is None:
        return None
    offset = min(c.terms)[0] // 2
    if op != relativistic_resolved_form(n, periodic, offset, direction):
        return None
    return offset


def rescale_g(op, delta):
    """The coupling rescaling g -> g q^(delta/2): every power of g^2, carried
    in the K slot, picks up one factor q^(delta).  Removing a uniform
    offset c from coefficients (1 + g^2 q^c e^a) therefore uses
    delta = -c."""

    def sub(c):
        return LaurentQK({(q2 + 2 * delta * e, e): frac
                          for (q2, e), frac in c.terms.items()})

    return op.scalar_map(sub)


def periodic_matching_exponent(n):
    """Find the exponent t such that substituting g^2 = -(q-q^(-1))^2
    K^(t/N) into the resolved relativistic form, combined with the
    variable shift z_i -> z_i - (i/N) ln K, reproduces the simplified
    affine form exactly.  Returns (t, checked exponents).

    Every scalar of the comparison lies in K^(1/N) alone, so the K slot
    counts powers of K^(1/N) here: the target's K^b is written K^(bN).
    """

    def k_to_root(c):
        return LaurentQK({(q2, b * n): frac
                          for (q2, b), frac in c.terms.items()})

    target = toda_simplified_form(n, affine=True).scalar_map(k_to_root)
    target = rescale_root_exponentials(target, LaurentQK.k(1))
    tried = {}
    found = None
    for t in (1, 2):
        cand = substitute_g2(relativistic_resolved_form(n, True),
                             ROOT_WEIGHT * LaurentQK.k(t))
        ok = cand == target
        tried[t] = ok
        if ok and found is None:
            found = t
    return found, tried
