"""Exception types and the guards that raise them."""

__all__ = ["FocalPointError", "NonConvergentError", "BoundaryLeakError", "GridWorkLimitError"]

# The caustic guard takes |B| below this as B = 0, where a kernel is a
# delta function.
FOCAL_TOL = 1e-12

# Largest |s|^2 - |r|^2 - 1 (and AD - BC - 1 of an ABCD matrix) accepted as
# a unitary (symplectic) map by the dictionaries and the kernel builders.
INVARIANT_TOL = 1e-8


class FocalPointError(ValueError):
    """Raised where the propagator kernel degenerates to a delta function (B = 0)."""


def require_off_caustic(b) -> None:
    """The one caustic guard: raise FocalPointError if the map's |B| < FOCAL_TOL."""
    if abs(b) < FOCAL_TOL:
        raise FocalPointError("focal point: B=0, kernel degenerates to a delta function")


def require_invariant(residual, name) -> None:
    """The one invariant guard: raise ValueError naming the residual unless
    |residual| <= INVARIANT_TOL (NaN fails)."""
    if not abs(residual) <= INVARIANT_TOL:
        raise ValueError(f"{name} = {residual:.3e}")


class NonConvergentError(ValueError):
    """Raised when a Gaussian integral has no convergent closed form
    (real part of the quadratic form is not negative definite)."""


class BoundaryLeakError(RuntimeError):
    """Raised when grid evolution pushes significant amplitude into the
    edge of the simulation box."""


# The most Pade steps (four banded solves each) that one grid evolution may
# plan over all its schedule entries.
MAX_GRID_STEPS = 10_000


class GridWorkLimitError(ValueError):
    """Raised, before any grid work, when a schedule plans more than
    ``MAX_GRID_STEPS`` grid steps."""
