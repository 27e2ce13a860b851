"""Exception types shared across the package."""


class GegwalkError(Exception):
    """Base class for package-specific failures."""


class StateCapError(GegwalkError):
    """Raised when an exact kernel computation would exceed the state cap.

    ``required`` is the number of lattice states the computation would
    have needed.  Both arguments are kept in ``args``, so the error
    pickles, and so crosses from a worker process as itself.
    """

    def __init__(self, message: str, required: int):
        super().__init__(message, required)
        self.required = required

    def __str__(self) -> str:
        return f"{self.args[0]} (would need {self.required} states)"


class ConsistencyError(GegwalkError):
    """Raised when a quantity violates a structural guarantee by more than
    numerical noise, e.g. a linearization weight that should be nonnegative
    coming out clearly negative."""
