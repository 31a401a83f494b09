"""Simulated PostgreSQL substrate: engine, hardware, metrics, versions."""

from repro.dbms.cache_sim import LRUCacheSimulator, steady_state_hit_rate
from repro.dbms.engine import Measurement, PostgresSimulator
from repro.dbms.errors import DbmsCrashError, DbmsError
from repro.dbms.hardware import C220G5, Hardware
from repro.dbms.metrics import METRIC_NAMES, metrics_vector
from repro.dbms.versions import V96, V136, PostgresVersion

__all__ = [
    "C220G5",
    "DbmsCrashError",
    "DbmsError",
    "Hardware",
    "LRUCacheSimulator",
    "METRIC_NAMES",
    "Measurement",
    "PostgresSimulator",
    "PostgresVersion",
    "V136",
    "V96",
    "steady_state_hit_rate",
    "metrics_vector",
]
