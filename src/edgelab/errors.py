"""Exception types shared across the package."""


class EdgelabError(Exception):
    """Base class for domain errors raised by edgelab.  The command line
    exits with ``exit_code`` and prefixes the message with ``label``."""

    exit_code = 3
    label = "domain failure"


class DegenerateGapless(EdgelabError):
    """Both detunings vanish (or epsilon = 0 at k = 0): the transfer spectrum
    degenerates onto the unit circle and no decaying direction exists."""


class NotAZeroMode(EdgelabError):
    """A constructed candidate fails the kernel residual test, usually because
    the coupling across the interface does not satisfy the matching condition."""


class NoMidGapState(EdgelabError):
    """A filtered supercell spectrum contains no state inside the bulk gap."""


class GapLawViolated(EdgelabError):
    """Bulk bands enter the gap |E| < |eps| by more than eigensolver rounding."""


class StepTooLarge(EdgelabError):
    """A sampling step violates dt * rho(H) <= 0.5."""

    exit_code = 4
    label = "numerical precondition violated"


class NotConical(EdgelabError):
    """Degenerate-point fit is not linear/isotropic to the requested accuracy."""


class ConfigError(EdgelabError):
    """Invalid or unknown run-configuration values."""

    exit_code = 2
    label = "config error"
