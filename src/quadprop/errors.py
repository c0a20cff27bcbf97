"""Exception types shared across the package."""

# The caustic guard takes |B| below this as B = 0, where a kernel is a
# delta function.
FOCAL_TOL = 1e-12


class FocalPointError(ValueError):
    """Raised where the propagator kernel degenerates to a delta function (B = 0).

    Carries the offending symplectic matrix in ``matrix`` when one is available.
    """

    def __init__(self, message: str, matrix=None):
        super().__init__(message)
        self.matrix = matrix


def require_off_caustic(b, source=None, to_matrix=None) -> None:
    """The one caustic guard: raise FocalPointError if the map's |B| < FOCAL_TOL.

    The error's matrix, ``to_matrix(source)`` or else ``source``, is built only here.
    """
    if abs(b) < FOCAL_TOL:
        raise FocalPointError(
            "focal point: B=0, kernel degenerates to a delta function",
            matrix=source if to_matrix is None else to_matrix(source),
        )


class NonConvergentError(ValueError):
    """Raised when a Gaussian integral has no convergent closed form
    (real part of the quadratic form is not negative definite)."""


class BoundaryLeakError(RuntimeError):
    """Raised when grid evolution pushes significant amplitude into the
    edge of the simulation box."""
