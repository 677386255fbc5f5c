"""Cache policy resolution for cache-aware batch execution.

The user-facing knob is a single ``cache=`` argument accepted by
:func:`repro.run`, :func:`repro.simulation.batch.execute_batch` and the
layers between them:

* ``"off"`` / ``None`` — no store involvement; execution is exactly
  the pre-cache code path;
* ``"readonly"`` — fingerprint hits are served from the default store,
  misses are computed but **not** written back;
* ``"readwrite"`` — hits are served, misses are computed and stored;
* a :class:`~repro.store.runstore.RunStore` — readwrite against that
  store (the caller keeps ownership of its lifetime);
* a :class:`CacheBinding` — full control of (store, mode).

:func:`resolve_cache` normalizes all of those to an optional
:class:`CacheBinding`; ``owns_store`` tells the executor whether it
created the store itself and should close it when the batch finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.exceptions import ConfigurationError
from repro.store.runstore import RunStore

__all__ = ["CACHE_MODES", "CacheBinding", "resolve_cache"]

#: Accepted string values of the ``cache=`` argument.
CACHE_MODES = ("off", "readonly", "readwrite")


@dataclass
class CacheBinding:
    """A run store bound to an access mode for one batch execution."""

    store: RunStore
    mode: str = "readwrite"
    owns_store: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("readonly", "readwrite"):
            raise ConfigurationError(
                "cache binding mode must be 'readonly' or 'readwrite', "
                f"got {self.mode!r}"
            )

    @property
    def writes(self) -> bool:
        return self.mode == "readwrite"


def resolve_cache(cache: Any) -> Optional[CacheBinding]:
    """Normalize a ``cache=`` argument to an optional binding.

    Returns ``None`` when caching is disabled.  Raises
    :class:`~repro.exceptions.ConfigurationError` for unknown modes or
    types, so typos fail loudly instead of silently recomputing.
    """
    if cache is None or cache == "off":
        return None
    if isinstance(cache, CacheBinding):
        return cache
    if isinstance(cache, RunStore):
        return CacheBinding(store=cache, mode="readwrite", owns_store=False)
    if isinstance(cache, str):
        if cache not in CACHE_MODES:
            raise ConfigurationError(
                f"cache must be one of {', '.join(CACHE_MODES)}; got {cache!r}"
            )
        return CacheBinding(store=RunStore(), mode=cache, owns_store=True)
    raise ConfigurationError(
        "cache must be a mode string, a RunStore or a CacheBinding, "
        f"got {type(cache).__name__}"
    )
