"""Shared helpers: independent brute-force oracles kept free of the library's
enumeration path, and the rational matrix arithmetic the library no longer
carries, kept as a reference for its integer paths."""

import itertools
from fractions import Fraction
from math import isqrt

import pytest

from latticeforge.errors import DegenerateForm
from latticeforge.linalg import Matrix


def fraction_inverse(m):
    """Exact inverse over the rationals by Gauss-Jordan elimination; a
    Matrix of Fractions."""
    n = m.nrows
    a = [[Fraction(x) for x in r] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, r in enumerate(m.rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise DegenerateForm("singular matrix")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return Matrix(tuple(tuple(r[n:]) for r in a))


def fraction_to_int(m):
    """Cast a matrix of integral rationals to ints; ValueError on any
    non-integral entry."""
    out = []
    for r in m.rows:
        row = []
        for a in r:
            f = Fraction(a)
            if f.denominator != 1:
                raise ValueError("non-integral entry %s" % (a,))
            row.append(int(f))
        out.append(tuple(row))
    return Matrix(tuple(out))


def box_ball(gram, max_norm):
    """(x, norm) for every nonzero vector of norm <= max_norm, via plain box
    enumeration.

    Coordinate bounds come from the dual Gram diagonal: |x_i| <= sqrt(max_norm
    * (G^-1)_ii) by Cauchy-Schwarz in the positive definite form.  Independent
    of the branch-and-bound enumerator.
    """
    n = gram.nrows
    inv = fraction_inverse(gram)
    bounds = []
    for i in range(n):
        b = Fraction(max_norm) * inv[i, i]
        bounds.append(isqrt(b.numerator // b.denominator) + 1)
    for x in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if any(x):
            gx = gram.apply(x)
            nx = sum(a * c for a, c in zip(x, gx))
            if nx <= max_norm:
                yield x, nx


def box_vectors(gram, norm):
    """All vectors of the given norm via plain box enumeration (`box_ball`)."""
    return sorted(x for x, nx in box_ball(gram, norm) if nx == norm)


def box_count(gram, norm):
    return len(box_vectors(gram, norm))


def box_minimum(lat, coeff_bound=5):
    """Minimal nonzero |norm| over a +-coeff_bound coordinate box."""
    g = lat.gram
    n = g.nrows
    best = None
    for x in itertools.product(*(range(-coeff_bound, coeff_bound + 1) for _ in range(n))):
        if any(x):
            v = abs(lat.norm(x))
            if best is None or v < best:
                best = v
    return best


@pytest.fixture(scope="session")
def named():
    from latticeforge.lattice import make_named

    return make_named
