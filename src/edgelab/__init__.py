"""Tight-binding edge states of generalized honeycomb interfaces.

Library layout:

- :mod:`edgelab.lattice` -- six-site cell geometry and interface frames
- :mod:`edgelab.hamiltonian` -- hopping profiles, Bloch-reduced chain operators
- :mod:`edgelab.transfer` -- propagation matrices and exact zero modes
- :mod:`edgelab.spectrum` -- supercell spectra, filtering, crossing slopes
- :mod:`edgelab.bulk` -- 2D bulk bands, double Dirac point, band inversion
- :mod:`edgelab.dynamics` -- wavepacket evolution on finite 2D domains
- :mod:`edgelab.cli` -- command-line front end
- :mod:`edgelab._platform` -- the BLAS route: numpy's bundled OpenBLAS or any other
"""

from .errors import (
    ConfigError,
    DegenerateGapless,
    EdgelabError,
    NoMidGapState,
    NotAZeroMode,
    NotConical,
    StepTooLarge,
)
from .hamiltonian import HoppingProfile
from .lattice import InterfaceKind

__all__ = [
    "ConfigError",
    "DegenerateGapless",
    "EdgelabError",
    "HoppingProfile",
    "InterfaceKind",
    "NoMidGapState",
    "NotAZeroMode",
    "NotConical",
    "StepTooLarge",
]

__version__ = "0.1.0"
