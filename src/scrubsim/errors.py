"""Exception types shared across the simulator."""


class InputError(ValueError):
    """Raised for invalid arguments, indices, or malformed config data."""


class CapacityError(RuntimeError):
    """Raised when a finite pool (tag space, tag pool) is exhausted or empty."""


class PlacementError(RuntimeError):
    """Raised when server selection cannot fit a logical node's instances.

    Carries the offending node name so callers can report which part of the
    defense graph ran out of room.
    """

    def __init__(self, message: str, node: str):
        super().__init__(message)
        self.node = node


class PinConflictError(RuntimeError):
    """Raised when a bidirectional pin would remap an already-pinned tag."""


class OracleSizeError(ValueError):
    """Raised when the exhaustive oracle cannot take an instance: it exceeds
    the size bounds, its traffic is off the volume grid or its delta is
    malformed.

    The message lists every problem so callers know what to change.
    """
