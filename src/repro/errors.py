"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch package failures without
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The simulator was driven into an invalid state."""


class InvariantViolation(SimulationError):
    """A runtime invariant check (``REPRO_CHECK_INVARIANTS=1``) failed.

    Raised by the :mod:`repro.obs.invariants` checkers in strict mode;
    indicates a bug in the simulator or its instrumentation, never a
    user configuration problem.
    """


class ConfigError(ReproError):
    """An experiment, component, or CLI configuration is invalid."""


class TraceFormatError(ReproError):
    """A Mahimahi-style link trace could not be parsed."""


class TransportError(ReproError):
    """A transport endpoint violated a protocol invariant."""


class AnalysisError(ReproError):
    """An analysis routine received data it cannot process."""


class SweepPointError(ReproError):
    """One sweep point's ``run_fn`` raised.

    The message names the failing sweep value, because worker-process
    re-raises lose the original exception's context; the original is
    chained as ``__cause__`` on the serial path.
    """


class ClusterError(ReproError):
    """A clustered run cannot make progress (no live nodes, or a task
    exhausted its attempts on every reachable node)."""
