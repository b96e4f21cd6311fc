"""Shared helpers: independent brute-force oracles kept free of the library's
enumeration path, the rational matrix arithmetic the library no longer
carries, kept as a reference for its integer paths, and an injective glue
built from the library's one onto glue search."""

import itertools
from fractions import Fraction
from math import isqrt

import pytest

from latticeforge.discform import _match_maps, _presentation, discriminant_form, orthogonal_subgroup
from latticeforge.errors import DegenerateForm
from latticeforge.glue import GlueData
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


def box_bounds(gram, max_norm):
    """Coordinate bounds of the box `box_ball` searches: |x_i| <=
    isqrt(max_norm * (G^-1)_ii) + 1."""
    inv = fraction_inverse(gram)
    bounds = []
    for i in range(gram.nrows):
        b = Fraction(max_norm) * inv[i, i]
        bounds.append(isqrt(b.numerator // b.denominator) + 1)
    return bounds


def box_ball(gram, max_norm):
    """(x, norm) for every nonzero vector of norm <= max_norm, via plain box
    enumeration.

    Coordinate bounds come from the dual Gram diagonal: |x_i| <= sqrt(max_norm
    * (G^-1)_ii) by Cauchy-Schwarz in the positive definite form.  Independent
    of the branch-and-bound enumerator.
    """
    for x in itertools.product(*(range(-b, b + 1) for b in box_bounds(gram, max_norm))):
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


def injective_anti_glue(left, right):
    """Glue data embedding disc(left) anti-isometrically into disc(right) as
    the subgroup y-perp of one element y, or None.

    y-perp is presented as a form of its own and matched onto by
    `_match_maps`; one y is tried per nonzero quadratic value, which covers
    every choice when disc(right) is p-elementary with p odd (Witt's
    extension theorem over F_p).
    """
    fl, _ = discriminant_form(left)
    fr, _ = discriminant_form(right)
    rel = Matrix.diagonal(fr.orders).rows
    seen = set()
    for y in fr.elements():
        qy = fr.q_of(y)
        if qy == 0 or qy in seen:
            continue
        seen.add(qy)
        sub, lifts = _presentation(fr, orthogonal_subgroup(fr, [y]).rows, rel)
        images = _match_maps(fl, sub, -1)
        if images is not None:
            return GlueData(left, right, Matrix.identity(fl.ngens), images @ lifts)
    return None


@pytest.fixture(scope="session")
def named():
    from latticeforge.lattice import make_named

    return make_named
