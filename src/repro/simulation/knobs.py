"""Shared validation of the execution knobs.

Every execution entrypoint — :func:`repro.run`,
:func:`repro.simulation.batch.execute_batch`,
:func:`repro.simulation.batch.run_many` and the CLI commands built on
them — accepts the same three knobs with the same semantics:

* ``workers=`` — process count for the fan-out, on every backend;
* ``cache=`` — run-store policy (normalized by
  :func:`repro.store.cache.resolve_cache`);
* ``backend=`` — which simulation engine executes the runs.

This module is the single source of truth for what the ``workers`` and
``backend`` knobs accept; a bad value raises
:class:`~repro.exceptions.ConfigurationError` naming the knob and the
allowed values, at every layer identically: every layer passes the
knobs down untouched, and only
:func:`~repro.simulation.batch.execute_batch` (plus the service's job
manager, for its defaults) validates them.  (``cache=`` validation
lives with the store in :mod:`repro.store.cache`, same error contract.)

Backends
--------
``"scalar"``
    The per-run python step loop
    (:class:`~repro.simulation.engine.CarFollowingSimulation`), fanned
    out over a process pool when ``workers > 1``.  The default.
``"vectorized"``
    The lock-step batch engine
    (:mod:`repro.simulation.vectorized`) — every spec must be
    vectorizable or the batch raises up front, naming the blocker.
``"auto"``
    Homogeneous groups of three or more vectorizable specs run on the
    vectorized engine (a lock-step pair is slower than two scalar
    runs); everything else degrades to the scalar engine
    (recorded per run in ``RunRecord.backend_used``, never an error).

``backend=None`` resolves to the :envvar:`REPRO_BACKEND` environment
variable when set, else ``"scalar"`` — so CI can re-run an unmodified
test suite on another backend.
"""

from __future__ import annotations

import operator
import os
from typing import Any, Optional

from repro.exceptions import ConfigurationError

__all__ = ["BACKENDS", "BACKEND_ENV_VAR", "resolve_backend", "validate_workers"]

#: Accepted string values of the ``backend=`` argument.
BACKENDS = ("auto", "scalar", "vectorized")

#: Environment variable consulted when ``backend=None`` (unset → scalar).
BACKEND_ENV_VAR = "REPRO_BACKEND"


def resolve_backend(backend: Optional[str]) -> str:
    """Normalize a ``backend=`` argument to one of :data:`BACKENDS`.

    ``None`` (the universal default) reads :data:`BACKEND_ENV_VAR`,
    falling back to ``"scalar"`` when the variable is unset or empty.
    Anything that is not one of the accepted strings — whether passed
    explicitly or smuggled in via the environment — raises
    :class:`~repro.exceptions.ConfigurationError` naming the knob and
    the allowed values.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or "scalar"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {', '.join(BACKENDS)}; got {backend!r}"
        )
    return backend


def validate_workers(workers: Any) -> int:
    """Validate the ``workers=`` knob: a genuine integer >= 1.

    Numpy integer scalars are fine; booleans, floats and strings are
    not.  Raises :class:`~repro.exceptions.ConfigurationError` naming
    the knob and the constraint, identically at every entrypoint.
    """
    try:
        if isinstance(workers, bool):  # an int subclass, but not a count
            raise TypeError
        value = operator.index(workers)
    except TypeError:
        raise ConfigurationError(
            f"workers must be an integer >= 1, got {workers!r} "
            f"({type(workers).__name__})"
        ) from None
    if value < 1:
        raise ConfigurationError(f"workers must be an integer >= 1, got {value}")
    return value
