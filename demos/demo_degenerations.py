#!/usr/bin/env python3
"""Degenerations: how the q-Toda operators sit inside bigger families.

Three exact limits, no floating point and no truncation errors anywhere:

  1. the quasiclassical contraction (q -> 1) onto the classical Toda
     Hamiltonian, including the coupled affine version;
  2. the steepest-growth limit of the inverse-sinh-squared models
     (trigonometric and elliptic) onto the same classical operators;
  3. the drift limit of the symmetric-function difference operator onto
     the q-Toda form itself.
"""

from math import comb

from qtoda import (
    build_toda_operator, classical_toda, affine_classical_toda,
    classical_combination_fit, cm_limit, quasiclassical_limit,
    macdonald_operator, macdonald_toda_limit,
)

print("1. Quasiclassical contraction for affine sl(3):")
op = build_toda_operator(3, 1, affine=True)
lim = quasiclassical_limit(op, 3)
print("   limit :", lim.text())
print("   target:", (-1 * affine_classical_toda(3)).text())
print("   equal :", lim == -1 * affine_classical_toda(3))

print()
print("   The second fundamental contracts to a multiple of the classical")
print("   Hamiltonian plus a constant; the engine fits the constants:")
for n, k in ((3, 2), (4, 2)):
    lim = quasiclassical_limit(build_toda_operator(n, k), comb(n, k))
    c, g = classical_combination_fit(lim, classical_toda(n))
    print("   sl(%d), k=%d:  C = %s,  G = %s" % (n, k, c.text(), g.text()))

print()
print("2. Inverse-sinh-squared models, elliptic case for sl(3):")
ell, certs = cm_limit(3, elliptic=True)
print("   limit :", ell.text())
print("   equal to coupled classical Hamiltonian:",
      ell == affine_classical_toda(3))
survivors = [c for c in certs if c["survives"]]
print("   surviving (root, rate) pairs:",
      [(list(c["w"]), c["lam"]) for c in survivors])

print()
print("3. Drift limit of the symmetric-function operator for sl(3):")
# the parameter t rides in the K slot; the operator has no genuine K
print("   before:", macdonald_operator(3).text().replace("K^", "tk^"))
print()
print("   after :", macdonald_toda_limit(3).text())
