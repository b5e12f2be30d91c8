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
from .tsbatch import Timestamp, TimestampBatch, build_batch, commit_wait_ns

__version__ = "0.1.0"


def run_scenario(sc):
    """Run a Scenario to completion and return its RunResult."""
    from .cluster import run_scenario as _run
    return _run(sc)


__all__ = [
    "InvalidConfig",
    "LivelockGuard",
    "OracleUnavailable",
    "Timestamp",
    "TimestampBatch",
    "build_batch",
    "commit_wait_ns",
    "run_scenario",
    "__version__",
]
