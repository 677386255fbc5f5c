"""Secure state reconstruction under s-sparse sensor attacks.

The related work the paper builds on (Fawzi et al. [3], Chong et
al. [1]) poses state estimation under attack as a combinatorial
problem: at most ``s`` of the ``p`` sensors are corrupted, the rest are
honest, and the true initial state is the one consistent with *some*
subset of ``p - s`` sensors over an observation window.
:class:`SecureStateReconstruct` solves it by subset search — one
least-squares observer per sensor subset of size ``p - s``, keeping the
candidates whose residual is within tolerance:

    y_i[k] = C_i A^k x0 + C_i f[k]          (f = input contribution)

stacked over the window and the subset's sensors, solved for ``x0``.

The structural guarantee (checked through
:func:`repro.lti.observability.is_sparse_observable`): when ``(A, C)``
is **2s-sparse observable** and at most ``s`` sensors are attacked, the
honest subset's candidate is exact and every candidate consistent with
the data agrees with it — the reconstruction is unique.  When the
guarantee fails (e.g. the car-following radar's velocity channel alone
cannot observe the gap), :attr:`ReconstructionResult.guaranteed` is
False and ``unobservable_subsets`` names the sensor subsets whose
candidates are structurally ambiguous; callers must disambiguate with a
prior (see :mod:`repro.defense.estimator`).

Batched subset kernels
----------------------
Everything that depends only on the window's *dt-geometry* — the
transition products ``Φ(t_k, t_0)``, the per-subset stacked
observability maps, their ranks, pseudo-inverse solve operators and
end-state covariances — is built once per geometry and applied to the
measurements as a handful of batched ``(n_subsets, …)`` array
operations; no per-subset python loop touches LAPACK on the data path.
:class:`IncrementalWindowSolver` caches those geometry kernels across a
*sliding* window (keyed on the quantized dt-tuple, LRU-bounded), so a
uniformly-sampled window pays the geometry build exactly once and every
subsequent step is a pure data pass.  Appending a sample to a known
geometry extends the cached Φ products and stacked rows instead of
rebuilding them; evicting the oldest sample of a *uniform* window
leaves the dt-tuple unchanged (a cache hit), which is why the common
closed-loop case runs incrementally.  Results are bit-identical between
the cached and from-scratch paths: both funnel through the same kernel
construction and the same batched data pass.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.lti.observability import is_sparse_observable

__all__ = [
    "SSProblem",
    "ReconstructionCandidate",
    "ReconstructionResult",
    "SecureStateReconstruct",
    "IncrementalWindowSolver",
    "TransitionCache",
]

#: Transition-cache / geometry keys quantize dt at this many decimals so
#: float jitter below physical relevance cannot grow the caches without
#: bound (satellite of PR 10; one nanosecond at the radar's 1 s period).
_DT_KEY_DECIMALS = 9


@dataclass(frozen=True)
class SSProblem:
    """One secure-state-reconstruction problem instance.

    Attributes
    ----------
    A, B, C:
        Discrete-time LTI model ``x[k+1] = A x[k] + B u[k]``,
        ``y[k] = C x[k]`` (+ sparse attack).  ``B`` may be None for an
        autonomous window.
    ys:
        Measurement window, shape ``(T, p)`` — row ``k`` holds every
        sensor's reading at step ``k``.
    us:
        Inputs applied *between* samples, shape ``(T - 1, m)``; ``u[k]``
        acts on the transition from ``ys[k]`` to ``ys[k+1]``.  None (or
        empty) means zero input.
    s:
        Assumed maximum number of attacked sensors.
    dts:
        Optional per-interval durations (length ``T - 1``) for windows
        whose samples are *not* uniformly spaced (e.g. trusted radar
        samples with challenge instants missing).  Requires a
        ``transition`` callable on :class:`SecureStateReconstruct`;
        without one, every interval uses the nominal ``A``/``B``.
    """

    A: np.ndarray
    B: Optional[np.ndarray]
    C: np.ndarray
    ys: np.ndarray
    us: Optional[np.ndarray] = None
    s: int = 1
    dts: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, float)))
        object.__setattr__(self, "C", np.atleast_2d(np.asarray(self.C, float)))
        object.__setattr__(self, "ys", np.atleast_2d(np.asarray(self.ys, float)))
        if self.B is not None:
            B = np.asarray(self.B, float).reshape(self.A.shape[0], -1)
            object.__setattr__(self, "B", B)
        if self.us is not None:
            us = np.atleast_2d(np.asarray(self.us, float))
            object.__setattr__(self, "us", us)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigurationError(f"A must be square, got {self.A.shape}")
        if self.C.shape[1] != n:
            raise ConfigurationError(
                f"C must have {n} columns, got {self.C.shape}"
            )
        if self.ys.shape[1] != self.C.shape[0]:
            raise ConfigurationError(
                f"ys must have one column per sensor ({self.C.shape[0]}), "
                f"got shape {self.ys.shape}"
            )
        if self.ys.shape[0] < 2:
            raise ConfigurationError(
                f"the window needs at least 2 samples, got {self.ys.shape[0]}"
            )
        if self.s < 0:
            raise ConfigurationError(f"s must be >= 0, got {self.s}")
        if self.s >= self.C.shape[0]:
            raise ConfigurationError(
                f"s must leave at least one honest sensor "
                f"(s={self.s}, p={self.C.shape[0]})"
            )
        if self.us is not None and len(self.us) not in (0, len(self.ys) - 1):
            raise ConfigurationError(
                f"us must hold one input per transition "
                f"({len(self.ys) - 1}), got {len(self.us)}"
            )
        if self.us is not None and self.B is None:
            raise ConfigurationError("us given without a B matrix")
        if self.dts is not None:
            dts = np.asarray(self.dts, float).reshape(-1)
            object.__setattr__(self, "dts", dts)
            if len(dts) != len(self.ys) - 1:
                raise ConfigurationError(
                    f"dts must hold one duration per transition "
                    f"({len(self.ys) - 1}), got {len(dts)}"
                )
            if np.any(dts <= 0.0):
                raise ConfigurationError("dts must be strictly positive")

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def p(self) -> int:
        """Sensor count."""
        return self.C.shape[0]

    @property
    def io_length(self) -> int:
        """Window length ``T`` (number of measurement rows)."""
        return self.ys.shape[0]


@dataclass(frozen=True)
class ReconstructionCandidate:
    """One sensor subset's least-squares state hypothesis."""

    #: Sensors assumed honest.
    sensors: Tuple[int, ...]
    #: Complement — the sensors this hypothesis accuses.
    attacked: Tuple[int, ...]
    #: Initial state at the start of the window.
    x0: np.ndarray
    #: State propagated to the window's last sample instant.
    x_end: np.ndarray
    #: RMS measurement residual over the subset's window rows.
    residual: float
    #: Whether the subset's stacked observability map had full rank
    #: (rank-deficient subsets yield minimum-norm, non-unique x0).
    observable: bool
    #: Covariance of ``x_end`` under i.i.d. unit-variance measurement
    #: noise: ``Φ (MᵀM)⁻¹ Φᵀ``.  Scale by the noise variance to get the
    #: actual covariance; None for rank-deficient subsets.
    x_end_covariance: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of :meth:`SecureStateReconstruct.solve`.

    ``candidates`` holds every subset hypothesis sorted by residual;
    ``consistent`` only those whose residual passes the tolerance *and*
    whose subset is observable.  ``guaranteed`` reports the structural
    2s-sparse observability condition — when False the reconstruction
    may be ambiguous even with a perfect model, and
    ``unobservable_subsets`` lists the offending subsets.

    ``subsets_searched`` / ``subsets_pruned`` make the subset search
    observable: how many ``C(p, p - s)`` hypotheses the solver examined
    and how many it eliminated (residual gate or rank deficiency) —
    ``searched - pruned == len(consistent)``.
    """

    candidates: Tuple[ReconstructionCandidate, ...]
    consistent: Tuple[ReconstructionCandidate, ...]
    guaranteed: bool
    unobservable_subsets: Tuple[Tuple[int, ...], ...] = field(
        default_factory=tuple
    )
    #: Number of sensor-subset hypotheses examined by the search.
    subsets_searched: int = 0
    #: Hypotheses eliminated (inconsistent residual or rank-deficient).
    subsets_pruned: int = 0

    @property
    def best(self) -> Optional[ReconstructionCandidate]:
        """Lowest-residual consistent candidate (None when all rejected)."""
        return self.consistent[0] if self.consistent else None


# ----------------------------------------------------------------------
# transition memoization
# ----------------------------------------------------------------------


class TransitionCache:
    """Bounded LRU memo of a ``dt → (A_dt, B_dt)`` discretization.

    Keys quantize ``dt`` at :data:`_DT_KEY_DECIMALS` decimals so jittered
    sampling (float noise on nominally-identical intervals) cannot grow
    the cache without bound; matrices are built from the quantized value
    so equal keys always map to identical arrays.
    """

    def __init__(
        self,
        builder: Callable[[float], Tuple[np.ndarray, np.ndarray]],
        maxsize: int = 64,
    ):
        if maxsize < 1:
            raise ConfigurationError(
                f"transition cache maxsize must be >= 1, got {maxsize}"
            )
        self._builder = builder
        self._maxsize = int(maxsize)
        self._entries: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __call__(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        key = round(float(dt), _DT_KEY_DECIMALS)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            # Refresh recency (python dicts preserve insertion order).
            self._entries[key] = self._entries.pop(key)
            return cached
        self.misses += 1
        entry = self._builder(key)
        self._entries[key] = entry
        if len(self._entries) > self._maxsize:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        return entry

    def snapshot(self) -> Tuple:
        """Entries in LRU order plus the counters, for :meth:`restore`.

        Shallow: the ``(A, B)`` matrices are never written after they
        are built, so the snapshot shares them.
        """
        return dict(self._entries), self.hits, self.misses, self.evictions

    def restore(self, snapshot: Tuple) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        entries, self.hits, self.misses, self.evictions = snapshot
        self._entries = dict(entries)


# ----------------------------------------------------------------------
# geometry kernels (everything that depends only on the dt-tuple)
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _subset_tuples(p: int, s: int) -> Tuple[Tuple[int, ...], ...]:
    """Every sensor subset of size ``p - s``, with its complement."""
    return tuple(itertools.combinations(range(p), p - s))


@functools.lru_cache(maxsize=256)
def _attacked_tuples(p: int, s: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(
        tuple(i for i in range(p) if i not in set(sub))
        for sub in _subset_tuples(p, s)
    )


@functools.lru_cache(maxsize=256)
def _subset_row_indices(p: int, s: int, T: int) -> np.ndarray:
    """Row-selection masks into the ``(T * p,)`` stacked full system.

    Row ``k * p + i`` of the full stack is sensor ``i`` at step ``k``;
    each subset keeps its sensors at every step, k-major (the exact row
    order of the per-subset stacked observer).  Shape
    ``(n_subsets, T * (p - s))`` — treat as read-only.
    """
    rows = [
        [k * p + i for k in range(T) for i in sub]
        for sub in _subset_tuples(p, s)
    ]
    return np.asarray(rows, dtype=np.intp)


class _SubsetKernel:
    """Per-sparsity batched solve structures for one window geometry.

    Holds, for every subset of size ``p - s``: the stacked observability
    map (``(n_sub, rows, n)``), its rank, the pseudo-inverse solve
    operator (``(n_sub, n, rows)``, minimum-norm least squares, singular
    values below ``rank_tolerance`` zeroed) and — for full-rank subsets
    — the geometry part of the end-state covariance
    ``Φ (MᵀM)⁻¹ Φᵀ``.  All of it is measurement-independent.
    """

    __slots__ = (
        "sensors",
        "attacked",
        "row_indices",
        "stacked",
        "ranks",
        "observable",
        "solve_maps",
        "covariances",
        "unobservable_subsets",
    )

    def __init__(
        self,
        full_stack: np.ndarray,
        end_map: np.ndarray,
        p: int,
        s: int,
        T: int,
        n: int,
        rank_tolerance: float,
    ):
        self.sensors = _subset_tuples(p, s)
        self.attacked = _attacked_tuples(p, s)
        self.row_indices = _subset_row_indices(p, s, T)
        self.stacked = full_stack[self.row_indices]  # (n_sub, rows, n)
        u, sv, vt = np.linalg.svd(self.stacked, full_matrices=False)
        ranks = (sv > rank_tolerance).sum(axis=1)
        self.ranks = tuple(int(r) for r in ranks)
        self.observable = tuple(r == n for r in self.ranks)
        inv_sv = np.where(sv > rank_tolerance, 1.0, 0.0) / np.where(
            sv > rank_tolerance, sv, 1.0
        )
        # V diag(1/σ) Uᵀ — the minimum-norm least-squares operator.
        self.solve_maps = (
            np.transpose(vt, (0, 2, 1)) * inv_sv[:, None, :]
        ) @ np.transpose(u, (0, 2, 1))
        covariances: List[Optional[np.ndarray]] = [None] * len(self.sensors)
        full_rank = [j for j, ok in enumerate(self.observable) if ok]
        if full_rank:
            grams = (
                np.transpose(self.stacked[full_rank], (0, 2, 1))
                @ self.stacked[full_rank]
            )
            gram_inv = np.linalg.inv(grams)
            covs = end_map @ gram_inv @ end_map.T
            for idx, j in enumerate(full_rank):
                covariances[j] = covs[idx]
        self.covariances = tuple(covariances)
        self.unobservable_subsets = tuple(
            self.sensors[j]
            for j, ok in enumerate(self.observable)
            if not ok
        )


class _WindowGeometry:
    """Measurement-independent state of one window dt-geometry."""

    __slots__ = (
        "key",
        "powers",
        "intervals",
        "full_stack",
        "input_map",
        "kernels",
    )

    def __init__(
        self,
        key: Tuple,
        powers: np.ndarray,
        intervals: Tuple[Tuple[np.ndarray, Optional[np.ndarray]], ...],
        full_stack: np.ndarray,
        input_map: Optional[np.ndarray],
    ):
        self.key = key
        self.powers = powers  # (T, n, n) cumulative Φ(t_k, t_0)
        self.intervals = intervals  # per-interval (A_k, B_k)
        self.full_stack = full_stack  # (T * p, n) rows k-major, sensor-minor
        # (T, n, (T-1)·m) linear map from the flattened input sequence to
        # the input contribution f[k]; None for input-free models.
        self.input_map = input_map
        self.kernels: Dict[int, _SubsetKernel] = {}

    @property
    def io_length(self) -> int:
        return self.powers.shape[0]


def _geometry_key(T: int, dts: Optional[np.ndarray]) -> Tuple:
    if dts is None:
        return ("uniform", T)
    return (T, np.round(dts, _DT_KEY_DECIMALS).tobytes())


def _interval_matrices(
    A: np.ndarray,
    B: Optional[np.ndarray],
    dts: Optional[np.ndarray],
    transition,
    T: int,
) -> Tuple[Tuple[np.ndarray, Optional[np.ndarray]], ...]:
    """Per-interval ``(A_k, B_k)`` — exact discretizations when available."""
    if transition is not None and dts is not None:
        return tuple(transition(float(dts[k])) for k in range(T - 1))
    return ((A, B),) * (T - 1)


def _build_geometry(
    A: np.ndarray,
    B: Optional[np.ndarray],
    C: np.ndarray,
    T: int,
    dts: Optional[np.ndarray],
    transition,
    previous: Optional[_WindowGeometry] = None,
) -> _WindowGeometry:
    """Build (or extend) the Φ products and the stacked full system.

    When ``previous`` covers this geometry's first ``T - 1`` samples the
    new entry appends one transition product and ``p`` stacked rows to
    the cached arrays instead of rebuilding — bit-identical to a fresh
    build because the fresh build computes the exact same prefix.
    """
    n = A.shape[0]
    key = _geometry_key(T, dts)
    intervals = _interval_matrices(A, B, dts, transition, T)
    m = B.shape[1] if B is not None else 0
    if previous is not None and previous.io_length == T - 1:
        A_last, B_last = intervals[-1]
        new_power = A_last @ previous.powers[-1]
        powers = np.concatenate([previous.powers, new_power[None]])
        new_rows = C @ new_power
        full_stack = np.concatenate([previous.full_stack, new_rows])
        input_map = None
        if m:
            # Widen by one zero input block and append the recursion's
            # next row — the fresh build computes the exact same blocks
            # (matrix products against the old, unpadded slices).
            input_map = np.zeros((T, n, (T - 1) * m))
            input_map[: T - 1, :, : (T - 2) * m] = previous.input_map
            input_map[T - 1, :, : (T - 2) * m] = (
                A_last @ previous.input_map[T - 2]
            )
            input_map[T - 1, :, (T - 2) * m :] = B_last
        return _WindowGeometry(key, powers, intervals, full_stack, input_map)
    powers = np.empty((T, n, n))
    powers[0] = np.eye(n)
    for k in range(T - 1):
        powers[k + 1] = intervals[k][0] @ powers[k]
    full_stack = np.matmul(C, powers).reshape(T * C.shape[0], n)
    input_map = None
    if m:
        # f[k+1] = A_k f[k] + B_k u[k] unrolled into one linear map from
        # the flattened input sequence: f = input_map @ us.ravel().
        input_map = np.zeros((T, n, (T - 1) * m))
        for k in range(T - 1):
            A_k, B_k = intervals[k]
            input_map[k + 1, :, : k * m] = A_k @ input_map[k, :, : k * m]
            input_map[k + 1, :, k * m : (k + 1) * m] = B_k
    return _WindowGeometry(key, powers, intervals, full_stack, input_map)


def _input_contribution(
    geometry: _WindowGeometry,
    us: Optional[np.ndarray],
    n: int,
) -> np.ndarray:
    """``f[k]`` with ``f[0] = 0`` and ``f[k+1] = A_k f[k] + B_k u[k]``."""
    T = geometry.io_length
    if us is None or len(us) == 0 or geometry.input_map is None:
        return np.zeros((T, n))
    return geometry.input_map @ np.asarray(us, float).ravel()


def _apply_kernel(
    geometry: _WindowGeometry,
    kernel: _SubsetKernel,
    targets_full: np.ndarray,
    f_end: np.ndarray,
    end_map: np.ndarray,
    residual_threshold: float,
    guaranteed: bool,
) -> ReconstructionResult:
    """The per-measurement batched data pass over one subset kernel."""
    tgt = targets_full[kernel.row_indices]  # (n_sub, rows)
    x0 = (kernel.solve_maps @ tgt[:, :, None])[:, :, 0]  # (n_sub, n)
    pred = (kernel.stacked @ x0[:, :, None])[:, :, 0]
    err = pred - tgt
    sq = err * err
    residuals = np.sqrt(sq.sum(axis=1) / sq.shape[1])
    x_end = x0 @ end_map.T + f_end
    n_sub = len(kernel.sensors)
    # Row views, not copies: x0/x_end are freshly allocated per call and
    # candidates are read-only by contract, so slicing is safe.
    candidates = [
        ReconstructionCandidate(
            sensors=kernel.sensors[j],
            attacked=kernel.attacked[j],
            x0=x0[j],
            x_end=x_end[j],
            residual=float(residuals[j]),
            observable=kernel.observable[j],
            x_end_covariance=kernel.covariances[j],
        )
        for j in range(n_sub)
    ]
    candidates.sort(key=lambda c: c.residual)
    consistent = tuple(
        c
        for c in candidates
        if c.observable and c.residual <= residual_threshold
    )
    return ReconstructionResult(
        candidates=tuple(candidates),
        consistent=consistent,
        guaranteed=guaranteed,
        unobservable_subsets=kernel.unobservable_subsets,
        subsets_searched=n_sub,
        subsets_pruned=n_sub - len(consistent),
    )


# ----------------------------------------------------------------------
# solvers
# ----------------------------------------------------------------------


class IncrementalWindowSolver:
    """Sliding-window subset search with geometry caching.

    The pipeline estimator solves an almost-identical window every
    trusted sample: same model, same sensors, a dt-tuple that only
    changes when a challenge instant punches a hole in the stream.
    This solver keys every measurement-independent structure (Φ
    products, stacked subset maps, ranks, solve operators, covariances,
    the 2s-sparse observability verdict) on that dt-tuple and reuses
    it, so the steady-state cost per step is one cache lookup plus the
    batched data pass.  Candidates are **bit-identical** to a
    from-scratch :meth:`SecureStateReconstruct.solve` on the same
    window — both run the same kernel code on the same arrays.

    Parameters
    ----------
    A, B, C:
        Nominal discrete model (``B`` may be None).
    residual_threshold, rank_tolerance:
        As on :class:`SecureStateReconstruct`.
    transition:
        Optional ``dt → (A_dt, B_dt)`` builder for non-uniform windows.
    max_geometries:
        LRU bound on distinct cached dt-geometries (jittered sampling
        produces unbounded key churn otherwise).
    """

    def __init__(
        self,
        A: np.ndarray,
        B: Optional[np.ndarray],
        C: np.ndarray,
        *,
        residual_threshold: float = 1e-6,
        rank_tolerance: float = 1e-10,
        transition=None,
        max_geometries: int = 32,
    ):
        if residual_threshold <= 0.0:
            raise ConfigurationError(
                f"residual_threshold must be positive, got {residual_threshold}"
            )
        if max_geometries < 1:
            raise ConfigurationError(
                f"max_geometries must be >= 1, got {max_geometries}"
            )
        self.A = np.atleast_2d(np.asarray(A, float))
        self.B = (
            np.asarray(B, float).reshape(self.A.shape[0], -1)
            if B is not None
            else None
        )
        self.C = np.atleast_2d(np.asarray(C, float))
        self.residual_threshold = float(residual_threshold)
        self.rank_tolerance = float(rank_tolerance)
        self.transition = transition
        self.max_geometries = int(max_geometries)
        self._geometries: Dict[Tuple, _WindowGeometry] = {}
        self._guaranteed: Dict[int, bool] = {}
        #: Cache telemetry (monotonic counters).
        self.geometry_hits = 0
        self.geometry_misses = 0
        self.geometry_extensions = 0
        self.subsets_solved = 0

    # -- geometry management -------------------------------------------

    def _geometry(self, T: int, dts: Optional[np.ndarray]) -> _WindowGeometry:
        key = _geometry_key(T, dts)
        entry = self._geometries.get(key)
        if entry is not None:
            self.geometry_hits += 1
            self._geometries[key] = self._geometries.pop(key)
            return entry
        # Append path: the same window minus its newest sample is known
        # — extend the cached Φ products / stacked rows by one step.
        previous = None
        if T > 2:
            prev_key = _geometry_key(T - 1, None if dts is None else dts[:-1])
            previous = self._geometries.get(prev_key)
        if previous is not None:
            self.geometry_extensions += 1
        else:
            self.geometry_misses += 1
        entry = _build_geometry(
            self.A, self.B, self.C, T, dts, self.transition, previous=previous
        )
        self._geometries[key] = entry
        if len(self._geometries) > self.max_geometries:
            self._geometries.pop(next(iter(self._geometries)))
        return entry

    def _kernel(self, geometry: _WindowGeometry, s: int) -> _SubsetKernel:
        kernel = geometry.kernels.get(s)
        if kernel is None:
            T = geometry.io_length
            kernel = _SubsetKernel(
                geometry.full_stack,
                geometry.powers[T - 1],
                self.C.shape[0],
                s,
                T,
                self.A.shape[0],
                self.rank_tolerance,
            )
            geometry.kernels[s] = kernel
        return kernel

    def _guarantee(self, s: int) -> bool:
        verdict = self._guaranteed.get(s)
        if verdict is None:
            verdict = is_sparse_observable(
                self.A, self.C, 2 * s, tolerance=self.rank_tolerance
            )
            self._guaranteed[s] = verdict
        return verdict

    def snapshot(self) -> Tuple:
        """Cache membership, LRU order and counters, for :meth:`restore`.

        Shallow: a geometry's arrays are never written after the build,
        and its lazily memoized ``kernels`` are deterministic and not
        counted, so the snapshot shares the geometries themselves.
        """
        return (
            dict(self._geometries),
            dict(self._guaranteed),
            self.geometry_hits,
            self.geometry_misses,
            self.geometry_extensions,
            self.subsets_solved,
        )

    def restore(self, snapshot: Tuple) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        (
            geometries,
            guaranteed,
            self.geometry_hits,
            self.geometry_misses,
            self.geometry_extensions,
            self.subsets_solved,
        ) = snapshot
        self._geometries = dict(geometries)
        self._guaranteed = dict(guaranteed)

    # -- solving --------------------------------------------------------

    def solve(
        self,
        ys: np.ndarray,
        us: Optional[np.ndarray] = None,
        dts: Optional[np.ndarray] = None,
        s: int = 1,
    ) -> ReconstructionResult:
        """Solve one window under sparsity ``s`` (cached geometry)."""
        return self.solve_many(ys, us, dts, (s,))[s]

    def solve_many(
        self,
        ys: np.ndarray,
        us: Optional[np.ndarray],
        dts: Optional[np.ndarray],
        sparsities: Sequence[int],
    ) -> Dict[int, ReconstructionResult]:
        """Solve one window under several sparsity assumptions at once.

        The window preparation (geometry lookup, input contribution,
        stacked targets) is shared — the estimator's paired ``s = 0``
        consistency check and ``s > 0`` defense solve cost one build.
        """
        ys = np.asarray(ys, float)
        T = ys.shape[0]
        geometry = self._geometry(T, dts)
        f = _input_contribution(geometry, us, self.A.shape[0])
        targets_full = (ys - f @ self.C.T).ravel()
        end_map = geometry.powers[T - 1]
        f_end = f[T - 1]
        results: Dict[int, ReconstructionResult] = {}
        for s in sparsities:
            kernel = self._kernel(geometry, s)
            results[s] = _apply_kernel(
                geometry,
                kernel,
                targets_full,
                f_end,
                end_map,
                self.residual_threshold,
                self._guarantee(s),
            )
            self.subsets_solved += results[s].subsets_searched
        return results

    @property
    def cached_geometries(self) -> int:
        """Number of dt-geometries currently cached."""
        return len(self._geometries)


class SecureStateReconstruct:
    """From-scratch subset search over an :class:`SSProblem`.

    Builds the window geometry at construction and solves it with the
    same batched kernels as :class:`IncrementalWindowSolver` — this is
    the *from-scratch* path (one geometry build per instance), the
    baseline the incremental solver is benchmarked against
    (``benchmarks/bench_defense_runtime.py``); results are bit-identical
    between the two.

    Parameters
    ----------
    problem:
        The model, window and sparsity assumption.
    residual_threshold:
        RMS residual above which a subset is rejected as inconsistent
        (units of the measurements).
    rank_tolerance:
        Singular-value tolerance of the observability rank checks.
    transition:
        Optional ``dt → (A_dt, B_dt)`` builder for non-uniform windows
        (``problem.dts``); each interval then uses its exact
        discretization instead of the nominal matrices.  Ignored when
        the problem carries no ``dts``.
    """

    def __init__(
        self,
        problem: SSProblem,
        residual_threshold: float = 1e-6,
        rank_tolerance: float = 1e-10,
        transition=None,
    ):
        if residual_threshold <= 0.0:
            raise ConfigurationError(
                f"residual_threshold must be positive, got {residual_threshold}"
            )
        self.problem = problem
        self.residual_threshold = float(residual_threshold)
        self.rank_tolerance = float(rank_tolerance)
        self._geometry = _build_geometry(
            problem.A,
            problem.B,
            problem.C,
            problem.io_length,
            problem.dts,
            transition,
        )
        # Back-compat views of the construction-time window state.
        self._powers = self._geometry.powers
        self._inputs = _input_contribution(
            self._geometry, problem.us, problem.n
        )

    # ------------------------------------------------------------------

    def subsets(self) -> List[Tuple[int, ...]]:
        """Every sensor subset of size ``p - s`` (the honest hypotheses)."""
        return list(_subset_tuples(self.problem.p, self.problem.s))

    def solve(self) -> ReconstructionResult:
        """Search every subset (batched) and classify the candidates."""
        problem = self.problem
        T = problem.io_length
        kernel = _SubsetKernel(
            self._geometry.full_stack,
            self._geometry.powers[T - 1],
            problem.p,
            problem.s,
            T,
            problem.n,
            self.rank_tolerance,
        )
        targets_full = (problem.ys - self._inputs @ problem.C.T).ravel()
        guaranteed = is_sparse_observable(
            problem.A, problem.C, 2 * problem.s, tolerance=self.rank_tolerance
        )
        return _apply_kernel(
            self._geometry,
            kernel,
            targets_full,
            self._inputs[T - 1],
            self._geometry.powers[T - 1],
            self.residual_threshold,
            guaranteed,
        )

    def solve_naive(self) -> ReconstructionResult:
        """The pre-batching reference: one python-level solve per subset.

        Kept for regression tests and the runtime bench's historical
        baseline row.  Numerically equivalent to :meth:`solve` (same
        stacked systems, same rank semantics); the least-squares step
        goes through per-subset ``np.linalg.lstsq`` instead of the
        cached pseudo-inverse operator, so the last few ulps of ``x0``
        may differ on noisy windows.
        """
        problem = self.problem
        candidates = sorted(
            (self._solve_subset(sensors) for sensors in self.subsets()),
            key=lambda c: c.residual,
        )
        consistent = tuple(
            c
            for c in candidates
            if c.observable and c.residual <= self.residual_threshold
        )
        guaranteed = is_sparse_observable(
            problem.A, problem.C, 2 * problem.s, tolerance=self.rank_tolerance
        )
        unobservable = tuple(
            c.sensors for c in candidates if not c.observable
        )
        return ReconstructionResult(
            candidates=tuple(candidates),
            consistent=consistent,
            guaranteed=guaranteed,
            unobservable_subsets=unobservable,
            subsets_searched=len(candidates),
            subsets_pruned=len(candidates) - len(consistent),
        )

    def _solve_subset(
        self, sensors: Sequence[int]
    ) -> ReconstructionCandidate:
        """Least-squares observer for one assumed-honest subset."""
        problem = self.problem
        C_sub = problem.C[list(sensors), :]
        T = problem.io_length
        # Stacked map: rows (k, i) — sensor i at step k.
        stacked = np.vstack([C_sub @ self._powers[k] for k in range(T)])
        targets = np.concatenate(
            [
                problem.ys[k, list(sensors)] - C_sub @ self._inputs[k]
                for k in range(T)
            ]
        )
        rank = int(
            np.linalg.matrix_rank(stacked, tol=self.rank_tolerance)
        )
        x0, *_ = np.linalg.lstsq(stacked, targets, rcond=None)
        residual = float(
            np.sqrt(np.mean((stacked @ x0 - targets) ** 2))
        )
        end_map = self._powers[T - 1]
        x_end = end_map @ x0 + self._inputs[T - 1]
        covariance = None
        if rank == problem.n:
            gram_inverse = np.linalg.inv(stacked.T @ stacked)
            covariance = end_map @ gram_inverse @ end_map.T
        return ReconstructionCandidate(
            sensors=tuple(int(i) for i in sensors),
            attacked=tuple(
                i for i in range(problem.p) if i not in set(sensors)
            ),
            x0=x0,
            x_end=x_end,
            residual=residual,
            observable=rank == problem.n,
            x_end_covariance=covariance,
        )
