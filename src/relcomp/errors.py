"""Exception types shared across the package."""


class RelcompError(Exception):
    """Base class for all package specific errors."""


class ParamError(RelcompError):
    """Parameters outside the valid range (wrong counts, bad codimension)."""


class DegreeError(RelcompError):
    """Degree mismatch in a graded operation."""


class RangeError(RelcompError):
    """Index outside the tracked degree range."""


class CapError(RelcompError):
    """A computation needs data beyond the degree cap it was given."""


class NotArtinianError(RelcompError):
    """The quotient never becomes zero within the inspected range."""


class NotContainedError(RelcompError):
    """An ideal expected to sit inside another one does not."""


class NotLinkedError(RelcompError):
    """Linkage arithmetic produced a negative value; the data are not linked."""


class InfeasibleError(RelcompError):
    """A resolution shape would need a negative multiplicity."""


class ParityError(RelcompError):
    """Socle degree parity does not match the requested construction."""


class SplitError(RelcompError):
    """A mapping cone cancellation request is inconsistent."""


class InternalError(RelcompError):
    """Exact data contradict each other: a defect of the program, never a
    property of the input."""
