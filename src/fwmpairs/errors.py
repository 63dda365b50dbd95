"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, every other
FwmPairsError -> 3, I/O problems (OSError) -> 4.
"""


class FwmPairsError(Exception):
    """Base class for all package errors."""


class ConfigError(FwmPairsError):
    """Invalid configuration file or parameter set."""


class DomainError(FwmPairsError, ValueError):
    """Input outside the validity domain of a model."""


class NumericError(FwmPairsError):
    """A numerical procedure failed (no root, no convergence, ...)."""


class ModeNotGuidedError(NumericError):
    """Requested fiber mode is below cutoff at this wavelength."""


class PhaseMatchError(NumericError):
    """No phase-matched root inside the searched band."""


class GridFormatError(FwmPairsError, ValueError):
    """Malformed grid file or input document (ragged rows, bad axes,
    negative cells, a document value that breaks its rule)."""
