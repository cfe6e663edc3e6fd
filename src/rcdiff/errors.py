"""Exception types shared across the package."""


class RcdiffError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(RcdiffError, ValueError):
    """Incompatible or invalid array dimensions."""


class ValidationError(RcdiffError, ValueError):
    """An input failed a mathematical precondition (symmetry, PSD, range)."""


class RankError(RcdiffError, ValueError):
    """A linear system is numerically singular."""


class ConfigError(RcdiffError, ValueError):
    """A run configuration is malformed or contains unknown keys."""


class TrainingDivergedError(RcdiffError, RuntimeError):
    """Training produced a non-finite loss.

    Carries a diagnostic snapshot: the step index and the loss trace up to
    the failure.
    """

    def __init__(self, step: int, trace):
        super().__init__(f"training loss became non-finite at step {step}")
        self.step = step
        self.trace = list(trace)


class SamplerDivergedError(RcdiffError, RuntimeError):
    """The backward SDE iteration produced a non-finite state.

    Carries the step index and the target value ``a`` of the first
    non-finite row.
    """

    def __init__(self, step: int, a: float):
        super().__init__(f"sampler state became non-finite at step {step} (target a={a:g})")
        self.step = step
        self.a = a


class ExtractionError(RcdiffError, ValueError):
    """The stored decoder matrix is rank deficient."""
