"""Exception types shared across the simulator and protocol layers."""


class InvalidConfig(ValueError):
    """A scenario or component configuration is inconsistent."""


class OracleUnavailable(RuntimeError):
    """One ask of the time oracle gave no usable timestamp."""


class LivelockGuard(RuntimeError):
    """The event loop exceeded its event budget; the run is likely livelocked."""
