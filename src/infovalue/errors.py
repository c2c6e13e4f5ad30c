"""Exception hierarchy for the infovalue package.

Every error raised by this package derives from :class:`InfoValueError`.
Errors that signal bad arguments also derive from ``ValueError`` so that
generic callers can catch them the usual way.
"""

from __future__ import annotations

__all__ = [
    "InfoValueError",
    "ValidationError",
    "SpaceMismatchError",
    "ZeroProbabilityError",
    "MissingPosteriorError",
    "NoDeviationError",
    "IndependenceBrokenError",
    "ConfigError",
    "ProblemFileError",
    "MalformedDocumentError",
    "RationalFormatError",
    "NormalizationError",
    "PartitionError",
    "PolicyError",
    "CertaintyError",
]


class InfoValueError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(InfoValueError, ValueError):
    """A value violates a construction invariant (bad mass, bad ordering, ...)."""


class SpaceMismatchError(ValidationError):
    """Two values that must share a state space do not."""


class ZeroProbabilityError(ValidationError):
    """Conditioning on (or partitioning through) a zero-probability event.

    Never silently renormalize: a zero-probability learnable event is a
    modeling bug, not a numerical edge case.
    """


class MissingPosteriorError(ValidationError):
    """An update policy has no posterior for a positive-probability state."""


class NoDeviationError(InfoValueError):
    """The policy conditionalizes everywhere it matters; nothing to exploit."""


class IndependenceBrokenError(InfoValueError):
    """The policy's post-learning choices are correlated with what pays off.

    Carries the witnessing triple: the cell, the chosen action whose
    choose-event skews the odds, and the probe action whose conditional
    expected utility shifts.
    """

    def __init__(self, cell, chosen_action: str, probe_action: str) -> None:
        self.cell = cell
        self.chosen_action = chosen_action
        self.probe_action = probe_action
        super().__init__(
            f"choosing {chosen_action!r} within cell {cell.describe()} shifts the "
            f"conditional expected utility of {probe_action!r}"
        )


class ConfigError(InfoValueError, ValueError):
    """A scenario parameter produces an inconsistent preset."""


class ProblemFileError(InfoValueError, ValueError):
    """A problem file failed to parse or validate.

    ``location`` points at the offending field (or line/column for raw
    JSON errors).
    """

    def __init__(self, location: str, message: str) -> None:
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")


class MalformedDocumentError(ProblemFileError):
    """The document structure is wrong: bad JSON, missing or unknown fields."""


class RationalFormatError(ProblemFileError):
    """A numeric field is not an exact rational string like ``"3/4"``."""


class NormalizationError(ProblemFileError):
    """A credence's masses do not sum to exactly 1."""


class PartitionError(ProblemFileError):
    """The declared partition is not a positive-probability partition."""


class PolicyError(ProblemFileError):
    """The declared update policy is incomplete or inconsistent."""


class CertaintyError(PolicyError):
    """A posterior fails to assign probability exactly 1 to its own cell."""
