"""DBMS simulator error types."""

from __future__ import annotations


class DbmsError(Exception):
    """Base class for simulated-DBMS failures.

    When a failure escapes the fault envelope, which evaluates a batch
    row by row, the envelope stamps *which* row raised onto the
    exception: ``row_index`` (position within the batch) and
    ``config_fingerprint`` (the failing configuration's 64-bit digest,
    :func:`repro.space.configspace.config_fingerprint`) — ``None`` until
    then.
    """

    row_index: int | None = None
    config_fingerprint: str | None = None


class DbmsCrashError(DbmsError):
    """The DBMS failed to start or crashed under the given configuration.

    The paper's tuning protocol (Section 6.1) handles crashing configurations
    by assigning one fourth of the worst throughput observed so far; see
    :class:`repro.tuning.session.TuningSession`.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class TransientEvalError(DbmsError):
    """The evaluation failed for a reason unrelated to the configuration.

    A dropped connection, a benchmark-harness hiccup, a filesystem blip:
    the configuration itself is innocent, so retrying the same evaluation
    is meaningful — unlike :class:`DbmsCrashError`, where the configuration
    caused the failure and the paper's ¼-of-worst penalty applies.  The
    fault envelope (:class:`repro.tuning.faults.FaultEnvelope`) retries
    these with bounded exponential backoff; real-DBMS drivers raise it to
    get that retry loop for free.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class EvalTimeoutError(TransientEvalError):
    """The evaluation exceeded its wall-clock budget (a hang, not a crash).

    A subclass of :class:`TransientEvalError` because the remedy is the
    same — abandon the attempt and retry under the envelope's budget —
    while staying distinguishable for drivers that want to treat hangs
    specially (e.g. kill a stuck benchmark process first).
    """
