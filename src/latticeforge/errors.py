"""Exception types shared across the package."""


class LatticeForgeError(Exception):
    """Base class for all package errors."""


class DegenerateForm(LatticeForgeError):
    pass


class DegenerateComplement(LatticeForgeError):
    pass


class UnknownName(LatticeForgeError):
    pass


class UnknownLabel(LatticeForgeError, KeyError):
    """No catalog row carries the label."""


class BadInput(LatticeForgeError):
    """Malformed input data: a missing JSON entry or a non-integral entry."""


class BadParams(LatticeForgeError):
    pass


class ZeroScale(LatticeForgeError):
    pass


class ZeroVector(LatticeForgeError):
    pass


class DimensionMismatch(LatticeForgeError):
    pass


class OddLatticeQuadratic(LatticeForgeError):
    pass


class NotTwoElementary(LatticeForgeError):
    pass


class TooLarge(LatticeForgeError):
    pass


class NotIsotropic(LatticeForgeError):
    pass


class NotIsotropicGraph(NotIsotropic):
    pass


class NotComplementary(LatticeForgeError):
    pass


class InfiniteOrder(LatticeForgeError):
    pass


class NontrivialDiscAction(LatticeForgeError):
    pass


class IndefiniteLattice(LatticeForgeError):
    pass


class RankTooLarge(LatticeForgeError):
    pass


class NotAnIsometry(LatticeForgeError):
    pass
