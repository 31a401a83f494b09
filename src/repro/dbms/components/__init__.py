"""Simulator component models.

Each module exposes the array-native ``score_batch(ctx) -> np.ndarray``: a
relative speed factor per configuration for one subsystem of the DBMS
(≈1.0 at a neutral setting, above when tuned well, below when
misconfigured), evaluated for all ``N`` rows of a
:class:`~repro.dbms.context.BatchEvalContext` at once.  The engine combines
them as a weighted geometric product per workload; see
:mod:`repro.dbms.engine`.  To score one configuration, run the models on a
one-row context.
"""

from repro.dbms.components import (
    buffer,
    checkpoint,
    locks,
    memory,
    parallel,
    planner,
    stats,
    texture,
    vacuum,
    wal,
    writeback,
)

#: Evaluation order.  ``memory`` goes first because it flags crashing rows
#: (the engine raises :class:`~repro.dbms.errors.DbmsCrashError` for them
#: under the ``"raise"`` policy); ``wal`` precedes ``checkpoint`` because
#: the checkpoint model reads the WAL volume note.
BATCH_COMPONENTS = {
    "memory": memory.score_batch,
    "buffer": buffer.score_batch,
    "writeback": writeback.score_batch,
    "wal_commit": wal.score_batch,
    "checkpoint": checkpoint.score_batch,
    "vacuum": vacuum.score_batch,
    "planner": planner.score_batch,
    "parallel": parallel.score_batch,
    "locks": locks.score_batch,
    "stats": stats.score_batch,
    "texture": texture.score_batch,
}

__all__ = ["BATCH_COMPONENTS"]
