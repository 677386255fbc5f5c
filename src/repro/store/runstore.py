"""SQLite-backed persistent store of simulation runs.

One row per content-addressed run (see
:mod:`repro.store.fingerprint`): spec dict, the exact
:class:`~repro.simulation.results.ResultSummary` as JSON, and the
full trace payload as one binary block (JSON header + an uncompressed
``float64`` matrix: the time grid, then one row per trace).  The stdlib
``sqlite3`` is the whole persistence stack — no external services.

A store is a list of SQLite files; a run lives in file
:func:`shard_index` ``(fingerprint, n)``.  Two on-disk layouts:

* **one file** — an existing ``.sqlite`` file, or a fresh path opened
  without ``shards``: ``RunStore("runs.sqlite")``;
* **a directory of N files** — a directory holding a ``shards.json``
  manifest, or a fresh path opened with ``shards=N``::

      <dir>/
          shards.json        # {"layout": "fingerprint-prefix-v1", "shards": N}
          shard-0000.sqlite
          shard-0001.sqlite
          ...

  The manifest pins the geometry, so reopening autodetects it and a
  store can never be consulted with the wrong modulus.

Whoever computes a run stores it: a batch pool worker writes its own
results straight into the owning file, whatever the file count (see
:mod:`repro.simulation.batch`).  Distinct files never contend, and
writers of one file queue on its WAL lock.

Every file is safe for concurrent access:

* it runs in WAL mode with an explicit ``busy_timeout``
  (:data:`BUSY_TIMEOUT_MS`), so readers never block the (single)
  writer and multiple processes can share one file; writes that still
  lose the lock race retry a bounded number of times
  (:data:`WRITE_RETRIES`) with exponential backoff before surfacing a
  :class:`StoreContentionError` that names the file and the attempt
  count — callers never see a raw ``sqlite3.OperationalError:
  database is locked``;
* connections are opened lazily and re-opened after a ``fork`` (the
  owning pid is tracked), and a store pickles as its path plus
  geometry, so a store object that reaches a ``ProcessPoolExecutor``
  worker never shares a connection with the parent;
* payload floats round-trip exactly (``float64`` in, ``float64``
  out), so a cache hit is bit-identical to recomputing the run.

Only rows of the current :data:`~repro.store.fingerprint.STORE_SCHEMA_VERSION`
are visible: ``get``, ``summary`` and ``in`` miss an older row, and
``len``, ``fingerprints``, ``stats``, ``export``, ``iter_rows`` and
:func:`merge_stores` skip it.  ``evict`` and ``clear`` act on every
row, so ``repro cache clear`` reclaims the old ones.

The default one-file store is ``$REPRO_CACHE_DIR/runstore.sqlite``
when that variable is set, else ``$XDG_CACHE_HOME/repro/runstore.sqlite``,
else ``~/.cache/repro/runstore.sqlite``; the default directory store
is ``runstore-shards/`` next to it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import ConfigurationError, ReproError
from repro.simulation.io import result_from_metadata, result_metadata
from repro.simulation.results import TRACE_NAMES, ResultSummary, SimulationResult
from repro.store.fingerprint import STORE_SCHEMA_VERSION
from repro.types import TimeSeries

__all__ = [
    "RunStore",
    "StoreStats",
    "ShardStats",
    "StoreContentionError",
    "StoreCorruptionError",
    "merge_stores",
    "shard_index",
    "default_store_path",
    "default_sharded_store_path",
    "SHARD_LAYOUT",
    "MANIFEST_NAME",
    "MAX_SHARDS",
    "BUSY_TIMEOUT_MS",
    "WRITE_RETRIES",
]

#: Column order of the ``runs`` table — the raw-row contract shared by
#: :meth:`RunStore.iter_rows` / :meth:`RunStore.put_row` and
#: :func:`merge_stores`.
ROW_COLUMNS = (
    "fingerprint",
    "schema_version",
    "name",
    "attack_enabled",
    "defended",
    "sensor_seed",
    "horizon",
    "spec_json",
    "summary_json",
    "payload",
    "payload_codec",
    "payload_bytes",
    "created_at",
)

#: The columns :meth:`RunStore.export` reads (everything but the payload).
_EXPORT_COLUMNS = tuple(
    column for column in ROW_COLUMNS if column not in ("payload", "payload_codec")
)

PathLike = Union[str, Path]

#: SQLite busy handler timeout applied to every connection.  A writer
#: holding the WAL lock makes competing writers *wait* this long
#: before failing with ``database is locked`` instead of failing
#: immediately.
BUSY_TIMEOUT_MS = 30_000

#: Bounded retry attempts for a write that still loses the lock race
#: after the busy timeout (e.g. many processes hammering one shard).
WRITE_RETRIES = 5

#: Base of the exponential backoff between write retries (seconds);
#: attempt ``k`` sleeps ``WRITE_RETRY_BACKOFF_S * 2**k``.
WRITE_RETRY_BACKOFF_S = 0.05

#: Routing-layout identifier written to the manifest.  Bump if the
#: fingerprint→file function ever changes; a mismatched layout is
#: refused instead of silently routing reads to the wrong file.
SHARD_LAYOUT = "fingerprint-prefix-v1"

#: Manifest file pinning the geometry of a directory store.
MANIFEST_NAME = "shards.json"

#: Upper bound on the file count — far past any useful fan-out, it
#: only guards against typos creating 10^6 database files.
MAX_SHARDS = 4096


class StoreContentionError(ReproError):
    """A store write kept losing the SQLite lock race.

    Raised only after :data:`WRITE_RETRIES` bounded retries on top of
    the :data:`BUSY_TIMEOUT_MS` busy handler — seeing this means the
    file is genuinely oversubscribed (consider a directory store with
    more files), not that a writer got unlucky once.
    """


class StoreCorruptionError(ReproError):
    """A stored row's payload or summary could not be decoded.

    Raised by :meth:`RunStore.get` (and so by every full cache replay)
    for a truncated or corrupt payload or an unknown codec, and by
    :meth:`RunStore.summary` (and so by every summary-only replay) for a
    ``summary_json`` that is not a JSON object with exactly the
    :class:`~repro.simulation.results.ResultSummary` fields; the message
    names the fingerprint and the database file.
    """


#: What a damaged payload raises inside :func:`_decode_payload`: a short
#: header (``struct.error``), bad JSON/UTF-8, a wrong block length or an
#: unknown codec (``ValueError``), a header without its keys.
_DECODE_ERRORS = (struct.error, ValueError, KeyError, TypeError)


def _corruption(
    what: str, fingerprint: str, path: Path, exc: Exception
) -> StoreCorruptionError:
    return StoreCorruptionError(
        f"stored {what} {fingerprint} in {path} cannot be decoded: "
        f"{type(exc).__name__}: {exc}"
    )


def _decode_summary(text: str, fingerprint: str, path: Path) -> ResultSummary:
    """The :class:`ResultSummary` a row's ``summary_json`` holds."""
    try:
        fields = json.loads(text)
        if not isinstance(fields, dict):
            raise TypeError(f"a JSON {type(fields).__name__}, not an object")
        return ResultSummary(**fields)
    except (ValueError, TypeError) as exc:  # bad JSON, missing/extra keys
        raise _corruption("summary of run", fingerprint, path, exc) from exc


def _is_lock_error(exc: sqlite3.OperationalError) -> bool:
    """Whether an ``OperationalError`` is the lock/busy race (retryable)."""
    message = str(exc).lower()
    return "locked" in message or "busy" in message

#: Identifier of the payload encoding, stored per row and checked on
#: every ``get``.  A little-endian ``uint32`` header length, a JSON
#: header ``{"meta": result_metadata(...), "steps": n}``, then one
#: little-endian ``float64`` block of ``1 + len(TRACE_NAMES)`` rows by
#: ``n``: the time grid every trace shares, then the traces in
#: :data:`TRACE_NAMES` order.  Doubles round-trip bit-exactly; the block
#: is not compressed, as zlib costs far more time than it saves bytes.
_PAYLOAD_CODEC = "f64-grid-v2"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    fingerprint     TEXT PRIMARY KEY,
    schema_version  INTEGER NOT NULL,
    name            TEXT NOT NULL,
    attack_enabled  INTEGER NOT NULL,
    defended        INTEGER NOT NULL,
    sensor_seed     INTEGER,
    horizon         REAL,
    spec_json       TEXT NOT NULL,
    summary_json    TEXT NOT NULL,
    payload         BLOB NOT NULL,
    payload_codec   TEXT NOT NULL,
    payload_bytes   INTEGER NOT NULL,
    created_at      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_name ON runs (name);
"""


def default_store_path() -> Path:
    """Resolve the default on-disk location of the run store."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser() / "runstore.sqlite"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "runstore.sqlite"


def default_sharded_store_path() -> Path:
    """Default directory of a store opened with ``shards=`` and no path.

    Lives next to :func:`default_store_path` (``runstore.sqlite`` →
    ``runstore-shards/``), honoring the same ``REPRO_CACHE_DIR`` /
    ``XDG_CACHE_HOME`` overrides.
    """
    return default_store_path().parent / "runstore-shards"


def shard_index(fingerprint: str, n_shards: int) -> int:
    """Route a fingerprint to its file: ``int(fp[:8], 16) % n_shards``.

    The fingerprint is a SHA-256 hex digest, so its leading 32 bits are
    uniformly distributed and the modulo spreads entries evenly across
    any file count.  Deterministic and coordination-free: every
    process, on every host, routes identically.
    """
    return int(fingerprint[:8], 16) % n_shards


def _shard_filename(index: int) -> str:
    return f"shard-{index:04d}.sqlite"


def _validate_shards(shards: int) -> int:
    if not isinstance(shards, int) or isinstance(shards, bool):
        raise ConfigurationError(
            f"shards must be an integer >= 1, got {shards!r} "
            f"({type(shards).__name__})"
        )
    if not 1 <= shards <= MAX_SHARDS:
        raise ConfigurationError(
            f"shards must be between 1 and {MAX_SHARDS}, got {shards}"
        )
    return shards


def _encode_payload(result: SimulationResult) -> bytes:
    traces = result.traces
    if tuple(traces) != TRACE_NAMES or any(
        series.times != traces[TRACE_NAMES[0]].times for series in traces.values()
    ):
        raise ValueError(
            f"cannot store run {result.name!r}: a stored run holds exactly "
            f"the TRACE_NAMES traces, in that order, on one time grid"
        )
    times = traces[TRACE_NAMES[0]].times
    header = json.dumps({"meta": result_metadata(result), "steps": len(times)}).encode()
    block = np.array([times, *(s.values for s in traces.values())], dtype="<f8")
    return b"".join([struct.pack("<I", len(header)), header, block.tobytes()])


def _decode_payload(blob: bytes, codec: str) -> SimulationResult:
    if codec != _PAYLOAD_CODEC:
        raise ValueError(f"unknown run-store payload codec {codec!r}")
    (header_len,) = struct.unpack_from("<I", blob, 0)
    header = json.loads(blob[4 : 4 + header_len].decode("utf-8"))
    steps = header["steps"]
    offset = 4 + header_len
    rows = 1 + len(TRACE_NAMES)
    if len(blob) - offset != 8 * rows * steps:
        raise ValueError(
            f"data block is {len(blob) - offset} bytes, not {rows} x {steps} float64"
        )
    times, *values = np.frombuffer(
        blob, dtype="<f8", count=rows * steps, offset=offset
    ).reshape(rows, steps).tolist()
    traces = {
        name: TimeSeries(name, times=list(times), values=row)
        for name, row in zip(TRACE_NAMES, values)
    }
    return result_from_metadata(header["meta"], traces)


@dataclass(frozen=True)
class ShardStats:
    """Per-file slice of a :class:`StoreStats` snapshot."""

    shard: str
    entries: int
    payload_bytes: int
    db_bytes: int

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "entries": self.entries,
            "payload_bytes": self.payload_bytes,
            "db_bytes": self.db_bytes,
        }


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of a store's contents (``repro cache stats``).

    ``shards`` is empty for a one-file store and holds one
    :class:`ShardStats` per file of a directory store — every consumer
    of :meth:`as_dict` (the CLI's ``cache stats --json``, the service's
    ``GET /v1/store/stats``) gets the per-file breakdown through this
    one shared path.
    """

    path: str
    entries: int
    payload_bytes: int
    db_bytes: int
    by_scenario: Tuple[Tuple[str, int], ...]
    shards: Tuple[ShardStats, ...] = ()

    @property
    def shard_count(self) -> int:
        """Number of physical database files (1 for a one-file store)."""
        return len(self.shards) or 1

    def as_dict(self) -> dict:
        """JSON-compatible form of the snapshot.

        The single serialization shared by ``repro cache stats --json``
        and the service's ``GET /v1/store/stats`` endpoint — one code
        path, so the two surfaces can never drift apart.
        """
        payload = {
            "path": self.path,
            "entries": self.entries,
            "payload_bytes": self.payload_bytes,
            "db_bytes": self.db_bytes,
            "by_scenario": {name: count for name, count in self.by_scenario},
            "shard_count": self.shard_count,
        }
        if self.shards:
            payload["shards"] = [shard.as_dict() for shard in self.shards]
        return payload

    def as_rows(self) -> List[dict]:
        """Rows for :func:`repro.analysis.tables.render_table`."""
        rows = [
            {
                "scope": "total",
                "runs": self.entries,
                "payload_kb": round(self.payload_bytes / 1024.0, 1),
                "db_kb": round(self.db_bytes / 1024.0, 1),
            }
        ]
        for shard in self.shards:
            rows.append(
                {
                    "scope": shard.shard,
                    "runs": shard.entries,
                    "payload_kb": round(shard.payload_bytes / 1024.0, 1),
                    "db_kb": round(shard.db_bytes / 1024.0, 1),
                }
            )
        for name, count in self.by_scenario:
            rows.append(
                {"scope": name, "runs": count, "payload_kb": None, "db_kb": None}
            )
        return rows


class _File:
    """One SQLite/WAL file of a store: a lazy, fork-aware connection
    and the bounded-retry insert."""

    __slots__ = ("path", "_conn", "_pid")

    def __init__(self, path: Path) -> None:
        self.path = path
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None

    def connect(self) -> sqlite3.Connection:
        if self._conn is not None and self._pid == os.getpid():
            return self._conn
        if self._conn is not None:
            # Inherited across a fork: drop the parent's handle without
            # closing it (closing would roll back the parent's journal).
            self._conn = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=BUSY_TIMEOUT_MS / 1000.0)
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        conn.commit()
        # Every read goes through this view: a row of another schema
        # version can never be served, so no read sees it.
        conn.execute(
            "CREATE TEMP VIEW IF NOT EXISTS live_runs AS SELECT * FROM runs "
            f"WHERE schema_version = {int(STORE_SCHEMA_VERSION)}"
        )
        self._conn = conn
        self._pid = os.getpid()
        return conn

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = None

    def insert(self, values: Tuple) -> bool:
        """Insert one raw row with bounded lock-race retries.

        The busy handler (:data:`BUSY_TIMEOUT_MS`) absorbs ordinary
        contention; the bounded retry loop on top covers the pathologic
        case where the handler itself times out under many concurrent
        writers.  After :data:`WRITE_RETRIES` failed attempts the
        write surfaces as :class:`StoreContentionError` rather than a
        raw ``sqlite3.OperationalError``.
        """
        sql = (
            f"INSERT INTO runs ({', '.join(ROW_COLUMNS)}) "
            f"VALUES ({', '.join('?' for _ in ROW_COLUMNS)}) "
            "ON CONFLICT(fingerprint) DO NOTHING"
        )
        for attempt in range(WRITE_RETRIES):
            try:
                conn = self.connect()
                with conn:
                    cursor = conn.execute(sql, values)
                return cursor.rowcount > 0
            except sqlite3.OperationalError as exc:
                if not _is_lock_error(exc):
                    raise
                _telemetry.incr("store.write_retries")
                if attempt == WRITE_RETRIES - 1:
                    raise StoreContentionError(
                        f"store {self.path} stayed locked through "
                        f"{WRITE_RETRIES} write attempts "
                        f"(busy_timeout {BUSY_TIMEOUT_MS} ms each): {exc}"
                    ) from exc
                time.sleep(WRITE_RETRY_BACKOFF_S * (2 ** attempt))
        raise AssertionError("unreachable")  # pragma: no cover


class RunStore:
    """Content-addressed persistent cache of simulation runs.

    Keys are the SHA-256 fingerprints of
    :func:`repro.store.fingerprint.run_fingerprint`; values are full
    :class:`~repro.simulation.results.SimulationResult` payloads plus
    queryable metadata (scenario name, seed, horizon, headline summary).
    :meth:`get` decodes a run's full payload; :meth:`summary` reads only
    its stored :class:`ResultSummary`, which is all a service hit or a
    sweep replay needs.

    ``path`` is a ``.sqlite`` file or a directory of ``shards`` files
    (see the module docstring).  ``shards`` may be omitted when opening
    an existing directory (its manifest pins the geometry); when both
    are present they must agree.  Files open lazily, and reads never
    create one.

    The store is a context manager; ``close()`` is otherwise optional
    (connections are also released when the object is collected).
    """

    def __init__(
        self,
        path: Optional[PathLike] = None,
        *,
        shards: Optional[int] = None,
    ) -> None:
        if path is None:
            path = (
                default_store_path() if shards is None
                else default_sharded_store_path()
            )
        self._path = Path(path)
        count = self._read_manifest()
        if count is not None:
            if shards is not None and shards != count:
                raise ConfigurationError(
                    f"store at {self._path} is laid out as {count} shards; "
                    f"cannot reopen it with shards={shards} (merge into a "
                    f"fresh store to change the geometry)"
                )
        elif shards is not None:
            if self._path.is_file():
                raise ConfigurationError(
                    f"store at {self._path} is a single file; cannot open "
                    f"it with shards={shards} (merge into a fresh directory "
                    f"to change the geometry)"
                )
            count = _validate_shards(shards)
        elif self._path.is_dir():
            raise ConfigurationError(
                f"{self._path} is a directory without a {MANIFEST_NAME} "
                f"manifest; pass shards= to create a store there"
            )
        if count is None:
            self._manifest: Optional[Path] = None
            self._files = [_File(self._path)]
        else:
            self._manifest = self._path / MANIFEST_NAME
            self._files = [
                _File(self._path / _shard_filename(index))
                for index in range(count)
            ]

    # -- geometry ------------------------------------------------------

    @property
    def path(self) -> Path:
        """The database file, or the directory of a directory store."""
        return self._path

    @property
    def shards(self) -> int:
        """Number of database files the runs are routed across."""
        return len(self._files)

    def _read_manifest(self) -> Optional[int]:
        """The file count pinned by ``path``'s manifest, if it has one."""
        if not self._path.is_dir():
            return None
        manifest_path = self._path / MANIFEST_NAME
        try:
            text = manifest_path.read_text()
        except FileNotFoundError:
            if not any(p.name.startswith("shard-") for p in self._path.iterdir()):
                return None
            # prepare() always lands the manifest *before* any shard
            # file is written, so seeing shard files here means a
            # concurrent writer's manifest arrived between our two
            # checks — re-read before refusing the directory.
            try:
                text = manifest_path.read_text()
            except FileNotFoundError:
                raise ConfigurationError(
                    f"{self._path} contains shard files but no "
                    f"{MANIFEST_NAME} manifest; refusing to guess the "
                    f"geometry"
                ) from None
        try:
            manifest = json.loads(text)
            layout = manifest["layout"]
            count = manifest["shards"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"unreadable shard manifest {manifest_path}: {exc}"
            ) from exc
        if layout != SHARD_LAYOUT:
            raise ConfigurationError(
                f"store at {self._path} uses unknown shard layout "
                f"{layout!r} (this build understands {SHARD_LAYOUT!r})"
            )
        return _validate_shards(count)

    def prepare(self) -> "RunStore":
        """Create a directory store's manifest (idempotent, race-safe).

        Writers call this before fanning out so every worker process
        finds a pinned geometry; an atomic rename makes concurrent
        creation by several processes converge on one manifest.  A
        one-file store has nothing to prepare.
        """
        manifest_path = self._manifest
        if manifest_path is None or manifest_path.exists():
            return self
        self._path.mkdir(parents=True, exist_ok=True)
        tmp = manifest_path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(
                {"layout": SHARD_LAYOUT, "shards": self.shards}, indent=2
            )
            + "\n"
        )
        try:
            os.replace(tmp, manifest_path)
        finally:
            if tmp.exists():  # pragma: no cover - lost the rename race
                tmp.unlink()
        return self

    def _file(self, fingerprint: str) -> _File:
        return self._files[shard_index(fingerprint, len(self._files))]

    def _existing(self) -> List[_File]:
        """The files that exist on disk (reads create none)."""
        return [file for file in self._files if file.path.exists()]

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release every open database connection."""
        for file in self._files:
            file.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self) -> Tuple[Path, Optional[int]]:
        # Path plus geometry only: no connection crosses a pickle, and
        # the copy opens its files lazily, as after a fork.
        return self._path, (None if self._manifest is None else self.shards)

    def __setstate__(self, state: Tuple[Path, Optional[int]]) -> None:
        path, shards = state
        self.__init__(path, shards=shards)

    # -- core API ------------------------------------------------------

    def put(
        self,
        fingerprint: str,
        result: SimulationResult,
        *,
        spec_dict: Optional[dict] = None,
        attack_enabled: bool = True,
        defended: bool = True,
        sensor_seed: Optional[int] = None,
        horizon: Optional[float] = None,
    ) -> bool:
        """Insert one run under its fingerprint.

        Content-addressing makes the row immutable: a fingerprint that
        is already present is left untouched (``ON CONFLICT DO
        NOTHING``), so a ``readwrite`` cache hit causes zero WAL churn
        and the entry keeps its original ``created_at``.  Returns
        whether a new row was written.

        ``summary_json`` holds the exact :class:`ResultSummary`
        (unrounded floats, every detection time), so a summary-only
        replay reduces it exactly as it would the decoded run.
        """
        payload = _encode_payload(result)
        summary = json.dumps(dataclasses.asdict(result.summary()))
        self.prepare()
        written = self._file(fingerprint).insert(
            (
                fingerprint,
                STORE_SCHEMA_VERSION,
                result.name,
                int(bool(attack_enabled)),
                int(bool(defended)),
                sensor_seed,
                horizon,
                json.dumps(spec_dict) if spec_dict is not None else "{}",
                summary,
                payload,
                _PAYLOAD_CODEC,
                len(payload),
                time.time(),
            )
        )
        tele = _telemetry.current()
        if tele is not None:
            if written:
                tele.incr("store.writes")
                tele.incr("store.write_bytes", len(payload))
            else:
                tele.incr("store.write_skips")
        return written

    def _lookup(
        self, fingerprint: str, columns: str
    ) -> Tuple[_File, Optional[Tuple]]:
        """The owning file and the row's ``columns`` (``None`` on miss).

        A database file that does not exist yet is an unconditional
        miss and is *not* created by reads.  Counts ``store.hits`` /
        ``store.misses``.
        """
        file = self._file(fingerprint)
        row = None
        if file.path.exists():
            row = file.connect().execute(
                f"SELECT {columns} FROM live_runs WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
        _telemetry.incr("store.misses" if row is None else "store.hits")
        return file, row

    def get(self, fingerprint: str) -> Optional[SimulationResult]:
        """Fetch the run stored under ``fingerprint`` (``None`` on miss).

        Decodes the whole payload; a row that cannot be decoded raises
        :class:`StoreCorruptionError`.
        """
        file, row = self._lookup(fingerprint, "payload, payload_codec")
        if row is None:
            return None
        _telemetry.incr("store.hit_bytes", len(row[0]))
        try:
            return _decode_payload(row[0], row[1])
        except _DECODE_ERRORS as exc:
            raise _corruption("run", fingerprint, file.path, exc) from exc

    def summary(self, fingerprint: str) -> Optional[ResultSummary]:
        """The stored :class:`ResultSummary` of ``fingerprint`` (``None`` on miss).

        Reads only the row's ``summary_json`` column, so the payload is
        neither read nor checked.  Every read that needs only a run's
        headline numbers goes through here: service hits, and the cache
        hits of a batch whose reducer is a
        :class:`~repro.simulation.batch.SummaryReducer` (sweeps and
        Monte-Carlo).  A ``summary_json`` that is not a JSON object with
        exactly the ``ResultSummary`` fields raises
        :class:`StoreCorruptionError`.
        """
        file, row = self._lookup(fingerprint, "summary_json")
        return None if row is None else _decode_summary(row[0], fingerprint, file.path)

    def __contains__(self, fingerprint: str) -> bool:
        file = self._file(fingerprint)
        if not file.path.exists():
            return False
        row = file.connect().execute(
            "SELECT 1 FROM live_runs WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        return sum(
            file.connect().execute("SELECT COUNT(*) FROM live_runs").fetchone()[0]
            for file in self._existing()
        )

    def fingerprints(self) -> List[str]:
        """All stored fingerprints, sorted."""
        return sorted(row["fingerprint"] for _, row in self._rows(("fingerprint",)))

    # -- raw-row transfer (the merge substrate) ------------------------

    def _rows(
        self, columns: Tuple[str, ...]
    ) -> Iterator[Tuple[_File, Dict[str, Any]]]:
        """Each visible row's ``columns``, with its file."""
        sql = f"SELECT {', '.join(columns)} FROM live_runs ORDER BY fingerprint"
        for file in self._existing():
            for row in file.connect().execute(sql):
                yield file, dict(zip(columns, row))

    def iter_rows(self) -> Iterator[Dict[str, Any]]:
        """Yield every stored row as a :data:`ROW_COLUMNS` dict.

        The payload blob travels opaque and untouched — no decode /
        re-encode round-trip — which is what makes :func:`merge_stores`
        bit-preserving by construction.  Rows come out in fingerprint
        order within each file, file by file.
        """
        return (row for _, row in self._rows(ROW_COLUMNS))

    def put_row(self, row: Dict[str, Any]) -> bool:
        """Insert one raw row (immutable semantics, like :meth:`put`).

        ``row`` is a :meth:`iter_rows`-shaped dict; the original
        ``created_at`` / codec / payload bytes are preserved verbatim.
        Returns whether a new row was written (an existing fingerprint
        is left untouched).
        """
        self.prepare()
        return self._file(row["fingerprint"]).insert(
            tuple(row[column] for column in ROW_COLUMNS)
        )

    # -- maintenance ---------------------------------------------------

    def stats(self) -> StoreStats:
        """Entry/byte counts, without creating a missing database file.

        A directory store adds one :class:`ShardStats` per file —
        including zero-entry stats for files not created yet.
        """
        by_scenario: Dict[str, int] = {}
        per_file: List[ShardStats] = []
        for file in self._files:
            entries = payload_bytes = db_bytes = 0
            if file.path.exists():
                conn = file.connect()
                entries, payload_bytes = conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(payload_bytes), 0) FROM live_runs"
                ).fetchone()
                for name, count in conn.execute(
                    "SELECT name, COUNT(*) FROM live_runs GROUP BY name"
                ):
                    by_scenario[str(name)] = by_scenario.get(str(name), 0) + count
                db_bytes = file.path.stat().st_size
            per_file.append(
                ShardStats(
                    shard=file.path.name,
                    entries=int(entries),
                    payload_bytes=int(payload_bytes),
                    db_bytes=db_bytes,
                )
            )
        return StoreStats(
            path=str(self._path),
            entries=sum(s.entries for s in per_file),
            payload_bytes=sum(s.payload_bytes for s in per_file),
            db_bytes=sum(s.db_bytes for s in per_file),
            by_scenario=tuple(sorted(by_scenario.items())),
            shards=tuple(per_file) if self._manifest is not None else (),
        )

    def scenario_counts(self) -> Dict[str, int]:
        """Stored-run count per scenario name."""
        return dict(self.stats().by_scenario)

    def evict(
        self,
        fingerprints: Optional[Iterable[str]] = None,
        *,
        before: Optional[float] = None,
    ) -> int:
        """Delete selected entries; returns the number removed.

        ``fingerprints`` limits eviction to those keys (each routed to
        its own file); ``before`` (a UNIX timestamp) evicts entries
        created earlier than it.  With neither filter, everything is
        evicted.  Rows of an older schema version are evicted like any
        other, although no read sees them.
        """
        if fingerprints is None:
            groups: Dict[int, Optional[List[str]]] = dict.fromkeys(
                range(len(self._files))
            )
        else:
            groups = {}
            for key in fingerprints:
                groups.setdefault(shard_index(key, len(self._files)), []).append(key)
        removed = 0
        for index, keys in sorted(groups.items()):
            file = self._files[index]
            if not file.path.exists():
                continue
            clauses: List[str] = []
            params: List[object] = []
            if keys is not None:
                clauses.append(f"fingerprint IN ({','.join('?' for _ in keys)})")
                params.extend(keys)
            if before is not None:
                clauses.append("created_at < ?")
                params.append(float(before))
            sql = "DELETE FROM runs"
            if clauses:
                sql += " WHERE " + " AND ".join(clauses)
            conn = file.connect()
            with conn:
                removed += conn.execute(sql, params).rowcount
        return removed

    def clear(self) -> int:
        """Evict every entry and compact the database files."""
        removed = self.evict()
        for file in self._existing():
            file.connect().execute("VACUUM")
        return removed

    def export(self, path: PathLike) -> Path:
        """Write the store's metadata + summaries (no payloads) as JSON.

        The export is a portable inventory — enough to audit what a
        cache contains and to re-run any entry from its spec dict.
        Entries are sorted by fingerprint; a directory store also
        records its ``layout`` and ``shards``.
        """
        entries = [
            {
                "fingerprint": row["fingerprint"],
                "schema_version": row["schema_version"],
                "name": row["name"],
                "attack_enabled": bool(row["attack_enabled"]),
                "defended": bool(row["defended"]),
                "sensor_seed": row["sensor_seed"],
                "horizon": row["horizon"],
                "spec": json.loads(row["spec_json"]),
                "summary": _decode_summary(
                    row["summary_json"], row["fingerprint"], file.path
                ).as_dict(),
                "payload_bytes": row["payload_bytes"],
                "created_at": row["created_at"],
            }
            for file, row in self._rows(_EXPORT_COLUMNS)
        ]
        entries.sort(key=lambda entry: entry["fingerprint"])
        document: Dict[str, Any] = {"store": str(self._path)}
        if self._manifest is not None:
            document.update(layout=SHARD_LAYOUT, shards=self.shards)
        document["entries"] = entries
        out = Path(path)
        out.write_text(json.dumps(document, indent=2))
        return out


def merge_stores(source: RunStore, dest: RunStore) -> int:
    """Copy every run of ``source`` into ``dest``; returns rows written.

    Works across layouts — a directory into one file collapses a
    sweep's files into one archive, one file into a directory re-shards
    a legacy store, directory into directory changes the file count.
    Transfers raw rows (payload blobs untouched), so a merged entry
    replays bit-identically to its origin; fingerprints already in
    ``dest`` are skipped (immutable-insert semantics).
    """
    written = 0
    with _telemetry.span(
        "store.merge", source=str(source.path), dest=str(dest.path)
    ) as span:
        for row in source.iter_rows():
            if dest.put_row(row):
                written += 1
            _telemetry.incr("store.merge_rows")
        span.set(written=written)
    _telemetry.incr("store.merges")
    return written
