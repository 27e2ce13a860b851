"""Exception types shared across the package."""


class GegwalkError(Exception):
    """Base class for package-specific failures."""


class StateCapError(GegwalkError):
    """Raised when an exact kernel computation would exceed the state cap.

    ``required`` is the number of lattice states the computation would
    have needed.
    """

    def __init__(self, message: str, required: int):
        super().__init__(f"{message} (would need {required} states)")
        self.required = required


class ConsistencyError(GegwalkError):
    """Raised when a quantity violates a structural guarantee by more than
    numerical noise, e.g. a linearization weight that should be nonnegative
    coming out clearly negative."""
