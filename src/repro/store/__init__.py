"""Content-addressed experiment store (persistent run memoization).

Every run in this library is bit-deterministic in its
:class:`~repro.simulation.batch.RunSpec` (PR 1's contract), which makes
results memoizable across processes and sessions:

* :mod:`repro.store.fingerprint` — canonical-JSON + SHA-256 content
  addresses of runs, salted with a schema version;
* :mod:`repro.store.runstore` — :class:`RunStore`, the SQLite (WAL)
  store holding run metadata, headline summaries, and compressed trace
  payloads, with ``get`` / ``put`` / ``stats`` / ``evict`` / ``export``
  APIs.  It lives in one file, or in a directory of N files routed by
  fingerprint prefix (``RunStore(path, shards=N)``), which concurrent
  multi-process writers fill without contending;
  :func:`merge_stores` moves runs between any two stores;
* :mod:`repro.store.cache` — policy resolution for the ``cache=``
  argument threaded through :func:`repro.run`,
  :func:`~repro.simulation.batch.execute_batch`, ``run_monte_carlo``
  and ``build_report``.

Quick use:

>>> import repro
>>> repro.run(repro.fig2_scenario("dos"), mode="figure",
...           cache="readwrite")   # cold: computes + stores  # doctest: +SKIP
>>> repro.run(repro.fig2_scenario("dos"), mode="figure",
...           cache="readwrite")   # warm: served from the store  # doctest: +SKIP

The CLI mirror is ``python -m repro cache {stats,clear,export,path,merge}``
plus ``--cache`` / ``--store-shards`` on ``run`` / ``run-custom`` /
``report`` / ``sweep run``.
"""

from repro.store.cache import CACHE_MODES, CacheBinding, resolve_cache
from repro.store.fingerprint import (
    STORE_SCHEMA_VERSION,
    canonical_json,
    fingerprint_payload,
    run_fingerprint,
)
from repro.store.runstore import (
    MANIFEST_NAME,
    SHARD_LAYOUT,
    RunStore,
    ShardStats,
    StoreContentionError,
    StoreStats,
    default_sharded_store_path,
    default_store_path,
    merge_stores,
    shard_index,
)
from repro.store.sharded import ShardedRunStore

__all__ = [
    "CACHE_MODES",
    "CacheBinding",
    "resolve_cache",
    "STORE_SCHEMA_VERSION",
    "canonical_json",
    "fingerprint_payload",
    "run_fingerprint",
    "RunStore",
    "ShardStats",
    "StoreContentionError",
    "StoreStats",
    "default_store_path",
    "ShardedRunStore",
    "default_sharded_store_path",
    "merge_stores",
    "shard_index",
    "SHARD_LAYOUT",
    "MANIFEST_NAME",
]
