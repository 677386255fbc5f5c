"""``ShardedRunStore``: another name for :class:`~repro.store.runstore.RunStore`.

:class:`RunStore` serves both layouts (one file, or a directory of N
files; see :mod:`repro.store.runstore`).  The name stays because the
end-to-end benchmark (``benchmarks/e2e``) imports it from here and
wraps ``ShardedRunStore.get`` / ``put`` by looking them up in the
class ``__dict__``.  It must be the class itself, not a subclass: a
subclass has no ``get`` / ``put`` of its own in its ``__dict__``.
"""

from repro.store.runstore import RunStore

__all__ = ["ShardedRunStore"]

ShardedRunStore = RunStore
