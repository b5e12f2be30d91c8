"""chronokv: a deterministic, seedable simulation of a multi-region
transactional key-value store whose ordering comes from uncertainty-bounded
clocks, plus the offline checkers that prove each run behaved.

The package splits into three layers:

* simulation substrate -- ``simnet`` (event loop, network, faults,
  drifting node clocks) and ``clock`` (time oracles);
* the protocol itself -- ``tsbatch`` (timestamp batches and commit wait),
  ``mvto`` (multi-version data nodes), ``coordinator`` (transactions and
  recorders), ``epochs`` (promised epoch cuts) and ``replica``/
  ``replication`` (durable logs, shipping, replica reads);
* the harness -- ``workload``, ``checkers``, ``metrics``, ``scenario``,
  ``cluster`` and the ``chronokv`` CLI.

Protocol code never reads ground-truth time; only the simulator and the
checkers hold that handle.
"""

from .errors import InvalidConfig, LivelockGuard, OracleUnavailable

__version__ = "0.1.0"

__all__ = [
    "InvalidConfig",
    "LivelockGuard",
    "OracleUnavailable",
    "__version__",
]
