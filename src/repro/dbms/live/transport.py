"""Pluggable PostgreSQL connection seam for the live execution backend.

The driver (:mod:`repro.dbms.live.driver`) talks to the server purely
through this interface: ``connect`` (bounded retries with the fault
envelope's deterministic exponential backoff, a
:class:`~repro.tuning.faults.FaultPolicy`, on an injected clock),
``restart``, ``server_running``, ``remove_auto_conf``.  Two
implementations ship:

* :class:`RealPg` — psycopg/psycopg2 + ``pg_ctl``, for deployments that
  actually have a PostgreSQL to tune (the driver shape of E2ETune's
  ``Database.get_conn`` and Auto-Steer's connectors);
* :class:`FakePg`/:class:`FlakyPg` (:mod:`repro.dbms.live.fakes`) — a
  deterministic in-process server model for tests and hermetic CI.

**Failure semantics.**  A connect that exhausts its retry budget raises
:class:`~repro.dbms.errors.TransientEvalError` — the fault envelope's
retryable class — and counts one *infrastructure failure*.  After
``breaker_threshold`` consecutive infrastructure failures the circuit
breaker opens: every further ``connect`` fails immediately, so the
envelope exhausts its own retries quickly and the session quarantines
(the existing ``EXHAUSTED`` semantics) instead of hammering a dead
server.  A successful connect closes the breaker's failure streak.

All waiting goes through ``clock.sleep`` — the injected-clock seam from
:mod:`repro.tuning.faults` — so fakes on a :class:`VirtualClock` back
off instantaneously and deterministically (the ``raw-sleep`` lint rule
keeps ``time.sleep`` out of every other module).
"""

from __future__ import annotations

import pathlib
import subprocess

from repro.dbms.errors import EvalTimeoutError, TransientEvalError
from repro.tuning.faults import FaultPolicy, MonotonicClock, VirtualClock


class PgTransport:
    """Base transport: retrying ``connect`` over a raw connection seam.

    Args:
        clock: Injected time source for backoff (and, in fakes, for the
            simulated timeline the driver's phase budgets measure).
        policy: Raw-connect retries *inside* one ``connect`` call
            (``max_retries``) before it gives up with
            ``TransientEvalError``, and the backoff between attempts
            (:meth:`~repro.tuning.faults.FaultPolicy.backoff_delay`).
        breaker_threshold: Consecutive failed ``connect`` calls after
            which the circuit breaker opens.
    """

    #: Exception types a concrete transport considers retryable at the
    #: connection level.  The driver also catches exactly these around
    #: query execution — never a broad ``except`` — and re-raises them
    #: as ``TransientEvalError`` for the envelope.
    transient_exceptions: tuple[type[BaseException], ...] = (
        ConnectionError,
        TimeoutError,
        OSError,
    )

    def __init__(
        self,
        clock: MonotonicClock | VirtualClock | None = None,
        policy: FaultPolicy = FaultPolicy(),
        breaker_threshold: int = 5,
    ):
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        self.clock = clock if clock is not None else MonotonicClock()
        self.policy = policy
        self.breaker_threshold = int(breaker_threshold)
        #: Consecutive ``connect`` calls that exhausted their retries.
        self.consecutive_failures = 0
        self.breaker_open = False
        #: Raw connection attempts, for tests pinning retry schedules.
        self.connect_attempts = 0

    # --- the retrying entry point -------------------------------------------

    def connect(self):
        """Open a connection, retrying raw failures with deterministic
        backoff.  Raises ``TransientEvalError`` once the retry budget is
        spent — or immediately while the circuit breaker is open."""
        if self.breaker_open:
            raise TransientEvalError(
                f"transport circuit breaker open after "
                f"{self.consecutive_failures} consecutive connection "
                "failures; the session should quarantine"
            )
        failures = 0
        while True:
            self.connect_attempts += 1
            try:
                connection = self._raw_connect()
            except self.transient_exceptions as exc:
                failures += 1
                if failures > self.policy.max_retries:
                    self.consecutive_failures += 1
                    if self.consecutive_failures >= self.breaker_threshold:
                        self.breaker_open = True
                    raise TransientEvalError(
                        f"connect failed after {failures} attempt"
                        f"{'s' if failures > 1 else ''}: {exc}"
                    ) from exc
                self.clock.sleep(self.policy.backoff_delay(failures))
            else:
                self.consecutive_failures = 0
                return connection

    # --- the seam concrete transports implement -----------------------------

    def _raw_connect(self):
        """One connection attempt; raise one of ``transient_exceptions``
        on failure.  The returned object offers ``execute(sql) -> rows``
        and ``close()``."""
        raise NotImplementedError

    def restart(self) -> None:
        """Stop and start the server so pending ``ALTER SYSTEM`` settings
        take effect.  A *config-caused* startup failure must not raise —
        it shows up as ``server_running()`` returning False, which the
        driver classifies as ``DbmsCrashError``."""
        raise NotImplementedError

    def server_running(self) -> bool:
        raise NotImplementedError

    def remove_auto_conf(self) -> None:
        """Delete ``postgresql.auto.conf`` — the crash-recovery step that
        un-wedges a server whose last applied config prevents startup."""
        raise NotImplementedError


class RealPg(PgTransport):
    """psycopg-backed transport for an actual PostgreSQL server.

    Requires the ``psycopg`` (v3) or ``psycopg2`` package — neither is a
    dependency of this repository, so construction fails with a clear
    error when both are missing; tests and CI run on the fakes instead.

    Args:
        dsn: libpq connection string.
        data_dir: The server's data directory (for ``pg_ctl`` and
            ``postgresql.auto.conf``).  Optional when ``restart_cmd`` is
            given and recovery is not needed.
        restart_cmd: Override for the restart command (e.g.
            ``["pg_ctlcluster", "13", "main", "restart"]`` on Debian);
            defaults to ``pg_ctl -D data_dir restart``.
        restart_timeout: Seconds before a restart command is killed and
            classified as ``EvalTimeoutError``.
    """

    def __init__(
        self,
        dsn: str,
        data_dir: str | None = None,
        restart_cmd: list[str] | None = None,
        pg_ctl: str = "pg_ctl",
        connect_timeout: float = 10.0,
        restart_timeout: float = 120.0,
        **transport_kwargs,
    ):
        super().__init__(**transport_kwargs)
        self._pg = _import_pg_module()
        self.dsn = dsn
        self.data_dir = pathlib.Path(data_dir) if data_dir else None
        self.pg_ctl = pg_ctl
        self.restart_cmd = restart_cmd
        self.connect_timeout = float(connect_timeout)
        self.restart_timeout = float(restart_timeout)
        self.transient_exceptions = PgTransport.transient_exceptions + (
            self._pg.OperationalError,
            self._pg.InterfaceError,
        )

    def _raw_connect(self):
        connection = self._pg.connect(
            self.dsn, connect_timeout=int(self.connect_timeout)
        )
        connection.autocommit = True  # ALTER SYSTEM cannot run in a txn
        return _RealConnection(connection)

    def _ctl(self, *args: str) -> list[str]:
        if self.data_dir is None:
            raise ValueError("RealPg needs data_dir (or restart_cmd) for pg_ctl")
        return [self.pg_ctl, "-D", str(self.data_dir), *args]

    def restart(self) -> None:
        command = self.restart_cmd or self._ctl(
            "restart", "-w", "-t", str(int(self.restart_timeout))
        )
        try:
            subprocess.run(
                command,
                timeout=self.restart_timeout,
                capture_output=True,
                check=False,  # non-zero = startup failure → server_running()
            )
        except subprocess.TimeoutExpired as exc:
            raise EvalTimeoutError(
                f"server restart exceeded {self.restart_timeout:.0f}s: "
                f"{command}"
            ) from exc

    def server_running(self) -> bool:
        status = subprocess.run(
            self._ctl("status"), capture_output=True, check=False
        )
        return status.returncode == 0

    def remove_auto_conf(self) -> None:
        if self.data_dir is None:
            raise ValueError("RealPg needs data_dir to remove postgresql.auto.conf")
        (self.data_dir / "postgresql.auto.conf").unlink(missing_ok=True)


class _RealConnection:
    """Minimal cursor-per-statement wrapper over a DB-API connection."""

    def __init__(self, connection):
        self._connection = connection

    def execute(self, sql: str) -> list[tuple]:
        with self._connection.cursor() as cursor:
            cursor.execute(sql)
            if cursor.description is None:
                return []
            return list(cursor.fetchall())

    def close(self) -> None:
        self._connection.close()


def _import_pg_module():
    """psycopg (v3) preferred, psycopg2 accepted; a clear error otherwise."""
    try:
        import psycopg

        return psycopg
    except ImportError:
        pass
    try:
        import psycopg2

        return psycopg2
    except ImportError as exc:
        raise ImportError(
            "the live backend's RealPg transport needs the 'psycopg' (or "
            "'psycopg2') package, which this environment does not ship; "
            "use backend='replay' with a recorded trace, or inject a fake "
            "transport (repro.dbms.live.fakes) for tests"
        ) from exc
