"""Exact-arithmetic toolkit for integral quadratic lattices.

Core objects: Lattice (integer Gram matrix), FiniteQuadraticForm
(discriminant groups with Q/2Z-valued forms), Sublattice and glue data
(overlattices and primitive extensions), Isometry (invariant/coinvariant
splitting, spinor norm), definite-lattice vector enumeration, and a verifier
for the classification tables shipped in latticeforge.catalog.
"""

from .lattice import Lattice, direct_sum, from_expression, make_named, rescale

__all__ = [
    "Lattice",
    "direct_sum",
    "from_expression",
    "make_named",
    "rescale",
]

__version__ = "0.1.0"
