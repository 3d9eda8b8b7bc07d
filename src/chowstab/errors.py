"""Exception hierarchy shared by all chowstab modules."""


class ChowstabError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPoint(ChowstabError):
    """All homogeneous coordinates of a point are zero."""


class NonRationalCoordinate(ChowstabError):
    """A coordinate could not be read as an exact rational number."""


class SchemaError(ChowstabError):
    """An input document does not match the expected schema."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class VerificationFailed(ChowstabError):
    """An exact internal identity or a held-out verification sample failed."""


class DependentFamily(ChowstabError):
    """Input vectors are linearly dependent for generic t."""


class SubspaceNotSpannedBySupport(ChowstabError):
    """A subspace certificate is not spanned by points of the cycle."""


class RankDrop(ChowstabError):
    """A section family lost rank at a random parameter specialization."""


class PolynomialityFailed(ChowstabError):
    """Sampled dimension or trace data is not yet polynomial in r."""


class ZeroLeadingCoefficient(ChowstabError):
    """Leading expansion coefficient vanished where a division needs it."""
