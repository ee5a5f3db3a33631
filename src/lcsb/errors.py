"""Exception types raised across the library.

Each class corresponds to one failure surface so callers can catch
precisely: shape problems in the engine, tapes used twice, bad configs,
broken plans, diverged runs and corrupt checkpoints.
"""


class LcsbError(Exception):
    """Base class for all library errors."""


class DimensionError(LcsbError):
    """Tensor shapes are incompatible with the requested operation."""


class ConfigError(LcsbError):
    """A configuration violates one of its invariants."""


class PlanError(LcsbError):
    """A plan does not cover the model's layers, or names a bad block mode or layer index."""


class DivergenceError(LcsbError):
    """A backward sweep met a non-finite loss or leaf gradient."""


class CorruptionError(LcsbError):
    """Checkpoint arrays do not fit the model they are loaded into."""


class TapeError(LcsbError):
    """A tape was swept a second time, or recorded onto after its sweep."""
