"""Exception types raised by the library.

Every failure mode that callers are expected to handle has its own class;
all of them derive from ToepHankelError so a bare `except ToepHankelError`
catches anything produced deliberately by this package.  Each class
carries the CLI's exit code for it (cli's docstring), 1 unless it sets one.
"""

import math


class ToepHankelError(Exception):
    exit_code = 1


class DenominatorNearZero(ToepHankelError):
    """Symbol evaluation hit (or nearly hit) a zero of the denominator."""
    exit_code = 2


class NotInvertibleOnCircle(ToepHankelError):
    """Inversion requested for a symbol with a zero in the circle annulus."""


class IllConditionedRoots(ToepHankelError):
    """A zero or pole sits inside the exclusion annulus around the circle;
    winding numbers cannot be certified."""
    exit_code = 4


class GridTooSmall(ToepHankelError):
    """FFT/tail requirements exceed the hard grid cap."""
    exit_code = 4


class BetaInsideDisk(ToepHankelError):
    """Shift parameter must satisfy |beta| > 1."""


class PoleHit(ToepHankelError):
    """The shift map was evaluated at its pole."""


class NotFredholm(ToepHankelError):
    """Factorization requested for a symbol with zeros/poles on the circle."""
    exit_code = 2


class WrongSide(ToepHankelError):
    """One-sided inverse requested on the side the index does not allow."""


class NotInvertible(ToepHankelError):
    """A generating function vanishes on the circle."""
    exit_code = 2


class NotMatching(ToepHankelError):
    """The matching condition fails beyond tolerance."""
    exit_code = 2


class SignatureIndeterminate(ToepHankelError):
    """The factorization signature did not snap to +1 or -1."""
    exit_code = 3


class CrossCheckMismatch(ToepHankelError):
    """Two independent computation paths disagree."""
    exit_code = 3


class BadPlusFactor(ToepHankelError):
    """A plus factor has a zero or pole inside the closed unit disk."""


class NotApplicable(ToepHankelError):
    """The requested decomposition needs a positive index."""


class NotInKernel(ToepHankelError):
    """Input vector fails the kernel-membership residual gate."""


class WrongRegime(ToepHankelError):
    """Operation called outside its index regime."""


class NotFredholmPair(ToepHankelError):
    """One of the subordinated functions does not factorize."""
    exit_code = 2


class NoSpectralGap(ToepHankelError):
    """A section's zero/nonzero singular value split cannot be certified."""
    exit_code = 4


class WindowTooTight(ToepHankelError):
    """Residual check would be dominated by truncation effects."""


class AtJumpPoint(ToepHankelError):
    """Pointwise evaluation requested exactly at a jump discontinuity."""


class NumericalBreakdown(ToepHankelError):
    """Arithmetic on a valid input left the float range."""
    exit_code = 4


class InputError(ToepHankelError):
    """Malformed problem specification (CLI front end), or an oracle section
    smaller than 8 or too large to allocate (oracle.MAX_SECTION_BYTES)."""


def below(value: float, bound: float, error: type[ToepHankelError], what: str) -> None:
    """The one rule of every threshold gate, here value < bound: NaN or inf
    in either is NumericalBreakdown, as no verdict can be read from it; a
    finite value not below bound is error.  Messages carry both numbers."""
    _gate(value < bound, value, bound, error, f"{what} {value:.3e} is not below {bound:.3e}")


def above(value: float, bound: float, error: type[ToepHankelError], what: str) -> None:
    """The gate value > bound, under below's rule."""
    _gate(value > bound, value, bound, error, f"{what} {value:.3e} is not above {bound:.3e}")


def _gate(passed: bool, value: float, bound: float, error, message: str) -> None:
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise NumericalBreakdown(f"{message}: not finite")
    if not passed:
        raise error(message)
