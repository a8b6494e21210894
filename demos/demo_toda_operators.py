#!/usr/bin/env python3
"""Build the q-deformed Toda operators and look at them.

Everything is exact: coefficients are Laurent polynomials in q (and in
the affine coupling K), shifts are lattice translations of the torus
variables.  Run this file directly; it prints the operators it builds.
"""

from qtoda import build_toda_operator, toda_family

print("=" * 72)
print("The first operator for sl(3): sum of squared shifts minus")
print("(q - q^-1)^2 times nearest-neighbour hopping terms.")
print("=" * 72)
op = build_toda_operator(3, 1)
print(op.text())

print()
print("The affine version adds the wrap-around hop weighted by K:")
print()
print(build_toda_operator(3, 1, affine=True).text())

print()
print("=" * 72)
print("Higher operators come from higher exterior powers.  For sl(4),")
print("the second fundamental produces a two-letter term whose torus")
print("coefficient couples two non-adjacent nodes at once:")
print("=" * 72)
op2 = build_toda_operator(4, 2)
print(op2.text())

print()
print("The whole family commutes, identically in q (and K):")
family = toda_family(4, affine=True)
for a in range(len(family)):
    for b in range(a + 1, len(family)):
        res = family[a].commutator(family[b])
        print("  [M_%d, M_%d] = %s" % (a + 1, b + 1, res.text()))

print()
print("Raw mode shows the operator before the Weyl-vector conjugation;")
print("the diagonal q powers are still visible on the squared shifts:")
print()
print(build_toda_operator(2, 1, raw=True).text())
