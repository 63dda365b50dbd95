"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, NumericError and
subclasses -> 3, I/O problems (OSError) -> 4.
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

    def __init__(self, message: str, v_number: float):
        super().__init__(message)
        self.v_number = v_number


class PhaseMatchError(NumericError):
    """No phase-matched root inside the searched band."""

    def __init__(self, message: str, dk_min: float, dk_max: float):
        super().__init__(message)
        self.dk_min = dk_min
        self.dk_max = dk_max


class GridFormatError(FwmPairsError, ValueError):
    """Malformed grid file or input document (ragged rows, bad axes,
    negative cells, a document value that breaks its rule)."""
