"""Exception types shared across the package."""

# A focal check takes its B-like quantity (|B|, or |2B| on the (s, r) route)
# below this as B = 0, the caustic where a kernel is a delta function.
FOCAL_TOL = 1e-12


class FocalPointError(ValueError):
    """Raised where the propagator kernel degenerates to a delta function (B = 0).

    Carries the offending symplectic matrix in ``matrix`` when one is available.
    """

    def __init__(self, message: str, matrix=None):
        super().__init__(message)
        self.matrix = matrix


class NonConvergentError(ValueError):
    """Raised when a Gaussian integral has no convergent closed form
    (real part of the quadratic form is not negative definite)."""


class BoundaryLeakError(RuntimeError):
    """Raised when grid evolution pushes significant amplitude into the
    edge of the simulation box."""
