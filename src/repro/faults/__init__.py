"""Fault tolerance and fault injection for the client/server path.

The paper's Internet-wide deployment ran on volunteer machines whose
links drop, stall, and duplicate traffic; this package makes the
reproduction survive that environment and *prove* it:

* :class:`RetryingTransport` — per-request deadlines, capped exponential
  backoff with seeded jitter, and a lifetime retry budget;
* :class:`FaultPlan` / :class:`FaultInjectingTransport` — seeded
  probabilistic fault injection at the transport seam (drop, delay,
  duplicate, truncate, corrupt, disconnect);
* :class:`ChaosTCPProxy` — the same knobs applied to real sockets, for
  soak tests and ``uucs serve --chaos`` demos;
* :class:`ShardFaultPlan` — seeded chaos at the study's *process* seam
  (worker kill/hang/corrupt-batch, driver SIGINT), exercising the shard
  supervisor's retry/watchdog/quarantine and checkpoint/resume paths.

Each job is done once: :class:`~repro.server.TCPClientTransport` dials
and redials, :class:`~repro.faults.injection.ChaosPlan` parses and
range-checks both plans' specs, and :class:`~repro.faults.injection.FaultDice`
rolls and records both injectors' faults (``fault.injected``).

Layering convention, innermost first::

    TCPClientTransport (dial/redial)
      -> FaultInjectingTransport (chaos, tests/demos only)
        -> RetryingTransport (resend policy)

Retries are safe because hot sync is idempotent: clients stamp batches
with ``sync_seq`` and the server dedupes uploads by ``run_id``.
"""

from repro.faults.injection import FaultInjectingTransport, FaultPlan
from repro.faults.proxy import ChaosTCPProxy
from repro.faults.retry import RetryingTransport, RetryPolicy
from repro.faults.shardchaos import ShardAttemptFaults, ShardFaultPlan

__all__ = [
    "ChaosTCPProxy",
    "FaultInjectingTransport",
    "FaultPlan",
    "RetryPolicy",
    "RetryingTransport",
    "ShardAttemptFaults",
    "ShardFaultPlan",
]
