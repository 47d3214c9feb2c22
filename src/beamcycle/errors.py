"""Exception types shared across the package."""


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

