"""Exception types and the check helper shared across the package."""

import numpy as np


class FeasibilityError(ValueError):
    """A design point violates a feasibility constraint.

    ``branch`` names the violated constraint when known, e.g.
    ``"shrinkage"`` (sweeping would not reduce the uncertainty width) or
    ``"beamwidth-nonnegativity"`` (the first sweep beam would need a
    negative width).
    """

    def __init__(self, message: str, branch: str | None = None):
        super().__init__(message)
        self.branch = branch


def _any(mask) -> bool:
    """Whether a check fails anywhere: ``mask`` is a bool or a numpy bool array.

    ``np.any`` would do for both, but costs microseconds on a plain bool,
    which the scalar callers of the closed forms pay many times per check.
    """
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)
