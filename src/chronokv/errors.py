"""Exception types shared across the simulator and protocol layers."""


class InvalidConfig(ValueError):
    """A scenario or component configuration is inconsistent."""


class OracleUnavailable(RuntimeError):
    """The time oracle could not produce a usable batch within the retry cap."""


class LivelockGuard(RuntimeError):
    """The event loop exceeded its event budget; the run is likely livelocked."""
