"""Exponent vectors in the cyclic root lattice, for building test
operators."""


def root_form(m):
    """The exponent vector sum_i m_i alpha_i of the cyclic simple roots:
    entry j is m_j - m_(j-1), indices cyclic."""
    return tuple(m[j] - m[j - 1] for j in range(len(m)))
