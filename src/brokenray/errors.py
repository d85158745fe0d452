"""Exception types shared across the package."""


class BrokenRayError(Exception):
    """Base class for all package errors."""


class NoIntersection(BrokenRayError):
    """The ray never leaves the domain through the boundary."""


class GrazingIncidence(BrokenRayError):
    """The ray meets the boundary too close to tangentially to reflect."""


class DegenerateDirection(BrokenRayError):
    """d(alpha2)/d(alpha1) = 0: the conjugate point sits at infinity."""


class CenterSource(BrokenRayError):
    """The tangent conjugate locus degenerates for a source at the center."""


class EmptyCaustic(BrokenRayError):
    """No admissible direction produced a conjugate point."""


class EmptyLocus(BrokenRayError):
    """An artifact-localization score was requested against an empty locus."""


class SupportViolation(BrokenRayError):
    """The image does not vanish near the reflecting boundary."""


class DivergenceDetected(BrokenRayError):
    """The iteration residual grew repeatedly; the step size is too large."""


class ZeroOperator(BrokenRayError):
    """The operator maps every image to zero, e.g. its family admits no bin."""


class ZeroReference(BrokenRayError):
    """Relative error against an identically-zero reference image."""


class CenterOutsideWindow(BrokenRayError):
    """A phantom was placed outside the image window."""


class ConfigError(BrokenRayError):
    """An experiment configuration is malformed or inconsistent."""
