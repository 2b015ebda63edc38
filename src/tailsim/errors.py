"""Exception hierarchy shared by all tailsim modules.

Every error raised by the package derives from :class:`TailsimError` and
carries a short machine-readable ``category`` string that the CLI reports
on failure; :func:`is_integer` is the one integer test of every domain check.
"""

from __future__ import annotations

from numbers import Integral


class TailsimError(Exception):
    """Base class for all package errors."""

    category = "error"


class DomainError(TailsimError):
    """An input violates a documented precondition (non-finite, out of range)."""

    category = "domain"


class ConfigError(TailsimError):
    """A configuration file is malformed, incomplete, or inconsistent.

    ``problems`` lists every individual issue found so callers can report
    them exhaustively instead of one at a time.
    """

    category = "config-invalid"

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


class DegenerateThrustError(TailsimError):
    """Desired force vector is too small to define a thrust direction."""

    category = "degenerate-thrust"


class InfeasibleRollError(TailsimError):
    """Requested roll torque exceeds what differential thrust can deliver.

    Raised by the allocation when a rotor-speed radicand would be
    non-positive, i.e. ``|m_x| >= 2 * f_a * l``.
    """

    category = "infeasible-roll"


class SimulationDivergedError(TailsimError):
    """Integration produced a non-finite state component."""

    category = "simulation-diverged"


class InsufficientExcitationError(TailsimError):
    """A least-squares fit cannot identify one or more constants.

    ``constants`` names the coefficients whose regressors carry no
    information in the supplied dataset.
    """

    category = "insufficient-excitation"

    def __init__(self, constants: tuple[str, ...], message: str | None = None):
        self.constants = tuple(constants)
        super().__init__(
            message
            or "insufficient excitation to identify: " + ", ".join(self.constants)
        )


class MetricsWindowError(TailsimError):
    """The log is too short for the requested post-transient metrics window."""

    category = "metrics-window"


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (a bool is not)."""
    return isinstance(value, Integral) and not isinstance(value, bool)
