"""Canonical spec fingerprints — the run store's content addresses.

A run is fully determined by its :class:`~repro.simulation.batch.RunSpec`
(scenario including ``sensor_seed``, ``horizon`` and the defense
configuration, plus the ``attack_enabled`` / ``defended`` toggles) —
PR 1 made execution bit-deterministic in exactly those inputs.  This
module turns that determinism into an address: the spec is serialized
through the declarative dict form of :mod:`repro.simulation.spec`,
rendered as *canonical JSON* (sorted keys, no whitespace), salted with
a schema version, and hashed with SHA-256.

Two specs that share a fingerprint describe the same computation, so
a fingerprint can safely key a persistent result cache:

* the spec dict is produced from the :class:`Scenario` object, so
  two specs built differently (factory, overrides, a JSON file) but
  holding the same field values share one dict.  Numeric types are
  *not* normalized: ``horizon=300`` renders ``300`` and ``horizon=300.0``
  renders ``300.0``, so the two get different fingerprints.  That costs
  a redundant miss (the run is computed and stored twice), never a
  wrong hit;
* the :class:`RunSpec` ``tag`` is a display label, not an input to the
  simulation, and is deliberately **excluded**;
* bumping :data:`STORE_SCHEMA_VERSION` (done whenever the engine or the
  stored payload format changes behavior) invalidates every old entry
  without touching the database.

Platoon scenarios have no declarative spec form yet; their specs are
*uncacheable* and :func:`run_fingerprint` returns ``None`` for them —
cache-aware execution simply computes those runs as usual.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.simulation.batch import RunSpec
from repro.simulation.scenario import Scenario

__all__ = [
    "STORE_SCHEMA_VERSION",
    "canonical_json",
    "fingerprint_payload",
    "run_fingerprint",
]

#: Version salt mixed into every fingerprint.  Bump when the simulation
#: engine, the spec dict schema, or the stored payload codec changes in
#: a way that invalidates previously stored results.
STORE_SCHEMA_VERSION = 6  # 6: one-beat root-MUSIC polishes a certified Newton root


def _coerce_scalar(obj: Any) -> Any:
    """JSON ``default=`` hook: unwrap numpy scalars, reject the rest."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"object of type {type(obj).__name__} is not canonically serializable"
    )


#: The one canonical-JSON encoder.  ``json.dumps`` with these settings
#: would build a fresh encoder per call; encoding keeps no state on it.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    ensure_ascii=True,
    default=_coerce_scalar,
)


def canonical_json(obj: Any) -> str:
    """Render ``obj`` as canonical JSON: sorted keys, no whitespace.

    Deterministic for the JSON-compatible dicts produced by
    :func:`repro.simulation.spec.scenario_to_dict` (numpy scalars are
    unwrapped via ``.item()``); any other object type raises
    ``TypeError`` rather than hashing something unstable.
    """
    return _CANONICAL_ENCODER.encode(obj)


def fingerprint_payload(spec: RunSpec) -> Optional[Dict[str, Any]]:
    """The pre-hash dict a spec's fingerprint is computed from.

    Exposed for debugging and tests ("why did these two runs not share
    a cache entry?").  ``None`` for uncacheable specs (platoons).
    """
    if not isinstance(spec.scenario, Scenario):
        return None
    from repro.simulation.spec import scenario_to_dict

    return {
        "schema": STORE_SCHEMA_VERSION,
        "scenario": scenario_to_dict(spec.scenario),
        "attack_enabled": bool(spec.attack_enabled),
        "defended": bool(spec.defended),
    }


def run_fingerprint(spec: RunSpec) -> Optional[str]:
    """SHA-256 content address of one run, as a hex digest.

    ``None`` when the spec is uncacheable (platoon scenarios, which
    have no declarative spec form).
    """
    payload = fingerprint_payload(spec)
    if payload is None:
        return None
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
