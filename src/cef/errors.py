"""Exception types shared across the package, and the rule that the series
kernels and the quadrature oracle share (a finite z with Im z > 0), kept
here so that the oracle imports nothing from the series.

Parameter validation failures raise plain ValueError. Overflow conditions
raise the built-in OverflowError (cmath.exp already does this naturally;
explicit range guards use it too, so callers only ever need one type).
"""

import cmath


class DomainError(ValueError):
    """Argument lies outside the domain of the requested operation.

    Raised for non-finite input; for evaluation points outside the upper
    half-plane when a series kernel, a quadrature oracle or ``imag_l`` is
    called directly; and at the poles of ``erfc_cr_series``, z = 0 and
    z = +-i n pi / tau_m (n = 1..N).
    """


class ConvergenceError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget before
    reaching the requested tolerance."""


def _require_upper_half_plane(z: complex, caller: str) -> None:
    """Raise DomainError naming ``caller`` unless z is finite with Im z > 0."""
    if not cmath.isfinite(z):
        raise DomainError(f"{caller} requires a finite argument, got z = {z!r}")
    if not z.imag > 0.0:
        raise DomainError(f"{caller} requires Im z > 0, got z = {z!r}")
