"""Exception types shared across the package.

``ValidationError``: an argument or a stored file fails a precondition
(shape, rank, symmetry, definiteness, range, format).  ``ConfigError``: a
run configuration is malformed.  ``TrainingDivergedError`` and
``SamplerDivergedError``: a computation stopped being finite at a step.
An error with fields pickles them (``__reduce__``), so one raised in a
worker process reaches the parent intact.
"""


class RcdiffError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RcdiffError, ValueError):
    """An input failed a precondition (shape, rank, symmetry, PSD, range)."""


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

    def __reduce__(self):
        return type(self), (self.step, self.trace)


class SamplerDivergedError(RcdiffError, RuntimeError):
    """The backward SDE iteration produced a non-finite state.

    Carries the step index and the target value ``a``.  A stepped run
    stops at the first diverging chunk in target-major order, at that
    chunk's first non-finite step; a chain-law run stops at the first step
    whose mean or covariance is non-finite for some target, and names the
    first such target.
    """

    def __init__(self, step: int, a: float):
        super().__init__(f"sampler state became non-finite at step {step} (target a={a:g})")
        self.step = step
        self.a = a

    def __reduce__(self):
        return type(self), (self.step, self.a)
