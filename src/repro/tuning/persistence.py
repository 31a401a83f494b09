"""Knowledge-base and checkpoint persistence.

The paper's architecture (Section 2.1) centers on a knowledge base of all
evaluated ``(configuration, performance)`` pairs.  This module saves and
restores that record as JSON, so sessions can be archived, analyzed
offline, or used to warm-start future runs — and, beyond final-result
archiving, stores the versioned *mid-run checkpoints* behind
``TuningSession.checkpoint``/``resume``.

**Archives** (``save_result``) and every other whole-file artifact are
written atomically: the payload lands in a temp file in the target's
directory and is moved into place with ``os.replace``, so a process
killed mid-save can never truncate an existing file.

**Checkpoints** (format v3) are append-only journals of the loop's
*inputs*.  Line one is a JSON header: the format version, the spec
fingerprint, the objective, both spaces' knob-name headers, and the
default measurement.  Every following line is one *record*, written at
one round boundary and holding only what changed since the previous
record: the knowledge-base rows recorded since then, plus the loop's
small state (cursor, worst-seen, early-stop and quarantine fields, both
PCG64 positions, the optimizer's ``state_dict``).  Derived state — the
optimizer's encoded ``X``/``y``, a GP's factor — is never stored; the
session rebuilds it on load with the calls the live loop makes.  A
record is framed as ``<length> <crc32> <json>\\n`` so the reader can
tell a complete record from a torn one:

* :func:`save_checkpoint` writes a *compacted* journal (header plus one
  record holding everything) through :func:`atomic_write_text`;
* :func:`append_checkpoint` appends one record, but only to the file
  the caller last left (same device, inode, size and mtime) — a file
  replaced or extended by anyone else is never extended, the caller
  compacts instead;
* :func:`load_checkpoint` folds the records in order.  A last record
  that fails its frame check is a torn append (the process died
  mid-write) and is dropped: the journal then ends at the previous
  round boundary, and resuming from any round boundary is
  byte-identical to the uninterrupted run.  A bad record before the
  last is corruption and fails loudly.

No write is fsync'd — the contract covers process death, not power loss
(see the ROADMAP resilience contract).  Checkpoints carry their own
format version, bumped independently of the knowledge-base archive
format whenever the stored state's shape changes; loading a mismatched
version fails loudly (re-run from scratch or re-capture — checkpoints
are recovery artifacts, not long-term archives, so no migration shims).
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import zlib
from typing import Any

import numpy as np

from repro.space.configspace import Configuration, ConfigurationSpace
from repro.tuning.knowledge_base import KnowledgeBase, Observation
from repro.tuning.session import TuningResult

FORMAT_VERSION = 1
#: v2: quarantine attribution (``quarantined_row``/``quarantined_fingerprint``)
#: joined the payload.  v3: the append-only journal of inputs (see the
#: module docstring).  Shape changes bump this and invalidate older
#: checkpoints — no migration shims.
CHECKPOINT_FORMAT_VERSION = 3


def atomic_write_text(path: str | pathlib.Path, text: str) -> os.stat_result:
    """Write-then-rename in the target's directory (same filesystem, so
    the replace is atomic); the temp file is removed on any failure.
    Returns the written file's ``os.stat_result`` (taken before the
    rename, so it describes this write's file even if another process
    replaces ``path`` right after).

    This is *the* write seam for every persistent artifact in ``src/``
    (the repro-lint ``atomic-write`` rule enforces it): results,
    checkpoints, rendered configs, experiment JSON all route through
    here so a process killed mid-save never truncates an existing file.
    """
    path = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            written = os.fstat(fd)
        os.replace(tmp_name, path)
        return written
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _json_default(value: Any):
    """Safety net for stray numpy scalars: ints stay ints (knob values
    must round-trip exactly), floats become binary64 floats."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _config_to_json(config: Configuration) -> dict[str, Any]:
    return dict(config.to_dict())


def result_to_dict(result: TuningResult) -> dict[str, Any]:
    """Serialize a tuning result (without the spaces themselves)."""
    return {
        "format_version": FORMAT_VERSION,
        "objective": result.objective,
        "default_value": result.default_value,
        "stopped_early_at": result.stopped_early_at,
        "quarantined_at": result.quarantined_at,
        "quarantined_row": result.quarantined_row,
        "quarantined_fingerprint": result.quarantined_fingerprint,
        "optimizer_space": result.knowledge_base.observations[0]
        .optimizer_config.space.name
        if result.knowledge_base.observations
        else None,
        "target_space": result.knowledge_base.observations[0]
        .target_config.space.name
        if result.knowledge_base.observations
        else None,
        "observations": [
            {
                "iteration": o.iteration,
                "optimizer_config": _config_to_json(o.optimizer_config),
                "target_config": _config_to_json(o.target_config),
                "value": o.value,
                "crashed": o.crashed,
                "suggest_seconds": o.suggest_seconds,
                "throughput": o.throughput,
                "p95_latency_ms": o.p95_latency_ms,
            }
            for o in result.knowledge_base
        ],
    }


def save_result(result: TuningResult, path: str | pathlib.Path) -> None:
    """Write a tuning result to a JSON file (atomically)."""
    atomic_write_text(
        path, json.dumps(result_to_dict(result), indent=2, default=_json_default)
    )


def load_result(
    path: str | pathlib.Path,
    optimizer_space: ConfigurationSpace,
    target_space: ConfigurationSpace,
) -> TuningResult:
    """Load a tuning result, rebinding configurations to the given spaces.

    The spaces must structurally match the ones the session used (every
    stored knob value must validate); mismatches raise ``KnobError``.
    """
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported knowledge-base format: {payload.get('format_version')}"
        )
    maximize = payload["objective"] == "throughput"
    kb = KnowledgeBase(maximize=maximize)
    for entry in payload["observations"]:
        kb.record(
            Observation(
                iteration=int(entry["iteration"]),
                optimizer_config=Configuration(
                    optimizer_space, _coerce(optimizer_space, entry["optimizer_config"])
                ),
                target_config=Configuration(
                    target_space, _coerce(target_space, entry["target_config"])
                ),
                value=float(entry["value"]),
                crashed=bool(entry["crashed"]),
                suggest_seconds=float(entry["suggest_seconds"]),
                throughput=entry.get("throughput"),
                p95_latency_ms=entry.get("p95_latency_ms"),
            )
        )
    return TuningResult(
        knowledge_base=kb,
        objective=payload["objective"],
        default_value=float(payload["default_value"]),
        stopped_early_at=payload.get("stopped_early_at"),
        quarantined_at=payload.get("quarantined_at"),
        quarantined_row=payload.get("quarantined_row"),
        quarantined_fingerprint=payload.get("quarantined_fingerprint"),
    )


def _frame(record: dict[str, Any]) -> bytes:
    """One journal line: ``<length> <crc32> <json>\\n`` (compact JSON
    never contains a raw newline, and round-trips every binary64 float
    and PCG64 state integer losslessly)."""
    body = json.dumps(
        record, separators=(",", ":"), default=_json_default
    ).encode()
    return b"%d %08x %s\n" % (len(body), zlib.crc32(body), body)


def _unframe(line: bytes) -> dict[str, Any]:
    """Inverse of :func:`_frame` (without the newline); ``ValueError``
    when the length or the checksum does not match."""
    length, crc, body = line.split(b" ", 2)
    if int(length) != len(body) or int(crc, 16) != zlib.crc32(body):
        raise ValueError("length or checksum mismatch")
    record = json.loads(body)
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    return record


def _stamp(st: os.stat_result) -> tuple[int, int, int, int]:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def save_checkpoint(
    header: dict[str, Any], record: dict[str, Any], path: str | pathlib.Path
) -> tuple[int, int, int, int]:
    """Atomically write a compacted checkpoint journal — ``header``
    (stamped with :data:`CHECKPOINT_FORMAT_VERSION`) plus one
    ``record`` — and return the file's stamp for
    :func:`append_checkpoint` (see ``TuningSession.checkpoint`` for the
    header's and records' composition)."""
    head = dict(header)
    head["checkpoint_format_version"] = CHECKPOINT_FORMAT_VERSION
    text = json.dumps(head, separators=(",", ":"), default=_json_default)
    text += "\n" + _frame(record).decode()
    return _stamp(atomic_write_text(path, text))


def append_checkpoint(
    record: dict[str, Any],
    path: str | pathlib.Path,
    stamp: tuple[int, int, int, int],
) -> tuple[int, int, int, int] | None:
    """Append one record to the journal at ``path`` and return its new
    stamp — only if the file still carries ``stamp`` (the one the last
    save or append returned).  Returns ``None`` without writing when the
    file is gone or is not the one the caller left (replaced, extended,
    or rewritten by another run); the caller then compacts with
    :func:`save_checkpoint`.  Unlike the writers above it is not
    atomic: a kill mid-append leaves a torn last record, which
    :func:`load_checkpoint` drops; a write that fails part-way raises
    before the caller's stamp advances, so its next write finds the
    size changed and compacts over the partial record."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    except FileNotFoundError:
        return None
    try:
        if _stamp(os.fstat(fd)) != stamp:
            return None
        data = memoryview(_frame(record))
        while data:
            data = data[os.write(fd, data):]
        return _stamp(os.fstat(fd))
    finally:
        os.close(fd)


def load_checkpoint(path: str | pathlib.Path) -> dict[str, Any]:
    """Read a journal written by :func:`save_checkpoint` /
    :func:`append_checkpoint` and fold it into one state dict: the
    header's fields, ``"rows"`` (every record's rows, in order), and the
    last record's small state, with ``"optimizer"`` merged key by key
    (the LHS design is journaled once, in the record after it was
    drawn).  Each record's ``"iteration"`` must equal the row count so
    far.

    The last record is dropped when it is torn — cut short, or failing
    its length or checksum (see the module docstring); a bad record
    before it, a journal without one complete record, or a version
    mismatch fails loudly (checkpoints are recovery artifacts;
    there are no cross-version migration shims — re-run or
    re-capture)."""
    head, _, body = pathlib.Path(path).read_bytes().partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:
        header = None
    version = (
        header.get("checkpoint_format_version")
        if isinstance(header, dict)
        else None
    )
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format {version!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION}); re-run the session "
            "from scratch instead of resuming"
        )
    lines = body.split(b"\n")
    # Bytes after the last newline are a record whose append was cut
    # short; a complete journal ends with a newline.
    torn = lines.pop() != b""
    records = []
    for index, line in enumerate(lines):
        try:
            records.append(_unframe(line))
        except ValueError as exc:
            if index == len(lines) - 1 and not torn:
                break  # the last record, damaged mid-write
            raise ValueError(
                f"checkpoint {path}: record {index} is corrupt ({exc}) "
                "and is not the last one; refusing to resume"
            ) from None
    if not records:
        raise ValueError(f"checkpoint {path} holds no complete record")
    state = dict(header)
    state["rows"] = rows = []
    state["optimizer"] = {}
    for index, record in enumerate(records):
        rows.extend(record.pop("rows"))
        state["optimizer"].update(record.pop("optimizer"))
        state.update(record)
        if state["iteration"] != len(rows):
            raise ValueError(
                f"checkpoint {path}: record {index} is at iteration "
                f"{state['iteration']} after {len(rows)} rows; refusing "
                "to resume"
            )
    return state


def _coerce(space: ConfigurationSpace, values: dict[str, Any]) -> dict[str, Any]:
    """JSON round-trips ints as ints and floats as floats, but integer knob
    values stored as floats (e.g. 1.0) need coercion back."""
    from repro.space.knob import IntegerKnob

    out = {}
    for name, value in values.items():
        if name in space and isinstance(space[name], IntegerKnob):
            out[name] = int(value)
        else:
            out[name] = value
    return out
