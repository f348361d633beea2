"""Exception hierarchy shared by all modules."""


class CstarDualError(Exception):
    """Base class for all library errors."""


# -- linear algebra kernels ------------------------------------------------

class NotSquare(CstarDualError):
    pass


class NotHermitian(CstarDualError):
    pass


class NoConvergence(CstarDualError):
    pass


# -- categories, characters, corners ---------------------------------------

class DiagonalNotSemisimple(CstarDualError):
    """A diagonal algebra admits no full set of multiplicative functionals."""


class CornerDimensionExceedsOne(CstarDualError):
    """A corner subspace has numeric dimension > 1; input is not a valid
    commutative C*-category."""


class HolonomyViolation(CstarDualError):
    """Chains of matched characters force two distinct partners for one
    character; input is not a valid commutative C*-category."""


class BimoduleAxiomViolation(CstarDualError):
    pass


class DegenerateFunctor(CstarDualError):
    """The functor fails the non-degeneracy gate: some pulled-back functional
    vanishes on a Hom-set where the original is nonzero, so no spectrum-level
    morphism exists."""


# -- spaceoids and morphisms ------------------------------------------------

class InvalidSpaceoid(CstarDualError):
    pass


class InvalidMorphism(CstarDualError):
    pass


class EndpointMismatch(CstarDualError):
    pass


class InvalidCategory(CstarDualError):
    pass


# -- serialization ----------------------------------------------------------

class SchemaError(CstarDualError):
    """Malformed input document; carries the offending path."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
