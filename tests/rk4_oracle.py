"""Classic RK4 for dPhi/dt = -i H Phi, in Horner form.

It is the independent oracle of :func:`edgelab.dynamics.propagate` (and so
of :func:`edgelab.dynamics.evolve`), which applies exp(-iHt) as a Chebyshev
series: RK4's error is many orders above the series', so the two agree to
within RK4's own error against ``expm_multiply``.
"""

from __future__ import annotations

from edgelab.dynamics import WavepacketState, rho_bound
from edgelab.errors import StepTooLarge


def rk4(state: WavepacketState, H, dt: float, steps: int) -> WavepacketState:
    """``steps`` RK4 steps of ``dt``; requires |dt| * rho(H) <= 0.5."""
    if abs(dt) * rho_bound(H) > 0.5:
        raise StepTooLarge("dt * rho(H) exceeds 0.5")
    A = (-1j * dt) * H  # once; on this linear equation RK4 is a polynomial in A
    y = state.amplitudes.astype(complex, copy=True)
    for _ in range(steps):
        z = A @ y  # y + A(y + A/2(y + A/3(y + A/4 y))), from the inside out
        for m in (4.0, 3.0, 2.0):
            z *= 1.0 / m
            z += y
            z = A @ z
        y += z
    return WavepacketState(domain=state.domain, amplitudes=y, time=state.time + dt * steps)
