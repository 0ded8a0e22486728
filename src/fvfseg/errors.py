"""Exception types shared across the toolkit.

Most argument validation raises plain ValueError.  The classes below exist
where a caller (mainly the CLI) needs to tell failure modes apart to choose
an exit code or recover.
"""


class GridMismatchError(ValueError):
    """Two volumes that must share dims/spacing do not."""


class MvolFormatError(ValueError):
    """A .mvol stream violates the format: bad magic, bad header line,
    unsupported dtype, payload size mismatch, or invalid mask byte."""


class NoCandidateError(RuntimeError):
    """Candidate extraction produced an empty mask.  ``step`` records the
    1-based pipeline step at which the mask became empty; ``report`` is the
    run's report dict when the error leaves ``run_pipeline``, else None."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        self.report = None
        super().__init__(message or f"no candidate region (empty after step {step})")


class NumericalInstabilityError(RuntimeError):
    """Level-set evolution produced non-finite values.  ``iteration`` is the
    global iteration at which the blow-up was detected."""

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        super().__init__(
            message or f"non-finite level-set values at iteration {iteration}"
        )
