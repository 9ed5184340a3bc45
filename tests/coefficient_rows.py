"""The paper's coefficient rows (a_n, b_n, c_n, d_n): the four bond weights
entering cell row n of each interface chain, written out case by case.

They are the independent oracle of :func:`edgelab.hamiltonian.bond_weights`,
which the library uses in their place.
"""

from __future__ import annotations

from dataclasses import dataclass

from edgelab.hamiltonian import HoppingProfile


@dataclass(frozen=True)
class CoefficientRow:
    """The four bond weights (a_n, b_n, c_n, d_n) entering cell row n."""

    a: float
    b: float
    c: float
    d: float


def _a_type1(p: HoppingProfile, n: int) -> float:
    if n >= 1:
        return p.b_plus + p.delta_plus
    if n == 0:
        return p.c
    return p.b_minus + p.delta_minus


def coeffs_type1(profile: HoppingProfile, n: int) -> CoefficientRow:
    """Type-I coefficient row; the c-column satisfies c_n = a_{n+1}."""
    b = profile.b_plus if n >= 0 else profile.b_minus
    d = profile.b_plus + profile.delta_plus if n >= 0 else profile.b_minus + profile.delta_minus
    return CoefficientRow(a=_a_type1(profile, n), b=b, c=_a_type1(profile, n + 1), d=d)


def _a_type2(p: HoppingProfile, n: int) -> float:
    if n >= 0:
        return p.b_plus + p.delta_plus
    if n == -1:
        return p.c
    return p.b_minus + p.delta_minus


def coeffs_type2(profile: HoppingProfile, n: int) -> CoefficientRow:
    """Type-II coefficient row; here c_n = a_n and the d-column has two
    interface rows (n = -1, -2)."""
    b = profile.b_plus if n >= 0 else profile.b_minus
    if n >= 0:
        d = profile.b_plus + profile.delta_plus
    elif n in (-1, -2):
        d = profile.c
    else:
        d = profile.b_minus + profile.delta_minus
    return CoefficientRow(a=_a_type2(profile, n), b=b, c=_a_type2(profile, n), d=d)
