"""Recursive least-squares estimation — the paper's Algorithm 1.

Given regressors ``h_k`` ("entries of the measurement matrix") and
scalar observations ``y_k``, RLS recursively minimizes the
exponentially-weighted squared error

    J(w) = Σ_k λ^{n-k} (y_k - w^T h_k)²

with forgetting factor ``λ ∈ (0, 1]``.  Per iteration (Algorithm 1,
lines 5-11, in the standard Haykin formulation the paper cites [4]):

    π_k = P_{k-1} h_k
    γ_k = λ + h_k^T π_k          (conversion factor)
    g_k = π_k / γ_k              (gain vector)
    e_k = y_k - w_{k-1}^T h_k    (a-priori error)
    w_k = w_{k-1} + g_k e_k
    P_k = (P_{k-1} - g_k π_k^T) / λ

initialized with ``w_0 = 0`` and ``P_0 = δ I`` (the paper takes
``δ = 1``).  The per-update cost is ``O(n²)`` in the number of
parameters, matching the complexity the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["RLSUpdate", "RLSEstimator", "rls_estimate"]


@dataclass(frozen=True)
class RLSUpdate:
    """Diagnostics of one RLS iteration.

    Attributes
    ----------
    prediction:
        A-priori prediction ``w_{k-1}^T h_k``.
    error:
        A-priori error ``e_k = y_k - prediction``.
    gain:
        Gain vector ``g_k`` applied to the error.
    conversion_factor:
        ``γ_k = λ + h^T P h`` (the paper's ``γ``); always >= λ.
    """

    prediction: float
    error: float
    gain: np.ndarray
    conversion_factor: float


class RLSEstimator:
    """Exponentially-weighted recursive least squares (Algorithm 1).

    Parameters
    ----------
    n_params:
        Dimension of the weight vector ``w`` (and of each regressor).
    forgetting:
        Forgetting factor ``λ``; ``1.0`` gives ordinary (growing-window)
        least squares, smaller values track time variation faster at the
        cost of noisier weights.  Must lie in ``(0, 1]``.
    delta:
        Initial correlation scale: ``P_0 = δ I`` (paper: ``δ = 1``).

    Examples
    --------
    Identify a static linear map ``y = 2 x1 - 3 x2``:

    >>> rls = RLSEstimator(n_params=2, forgetting=1.0)
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> for _ in range(50):
    ...     h = rng.standard_normal(2)
    ...     _ = rls.update(h, 2.0 * h[0] - 3.0 * h[1])
    >>> np.allclose(rls.weights, [2.0, -3.0])
    True
    """

    def __init__(self, n_params: int, forgetting: float = 0.98, delta: float = 1.0):
        if n_params < 1:
            raise ValueError(f"n_params must be >= 1, got {n_params}")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError(
                f"forgetting factor must lie in (0, 1], got {forgetting}"
            )
        if delta <= 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.n_params = int(n_params)
        self.forgetting = float(forgetting)
        self.delta = float(delta)
        self.reset()

    def reset(self) -> None:
        """Return to the initial state ``w = 0``, ``P = δ I``."""
        self._weights = np.zeros(self.n_params)
        self._P = self.delta * np.eye(self.n_params)
        self._updates = 0

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """Copy of the mutable state ``(w, P, n_updates)``."""
        return self._weights.copy(), self._P.copy(), self._updates

    def restore(self, snapshot: Tuple[np.ndarray, np.ndarray, int]) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        weights, P, updates = snapshot
        self._weights = weights.copy()
        self._P = P.copy()
        self._updates = updates

    @property
    def weights(self) -> np.ndarray:
        """Current weight estimate ``w_k`` (copy)."""
        return self._weights.copy()

    @property
    def correlation(self) -> np.ndarray:
        """Current inverse-correlation matrix ``P_k`` (copy)."""
        return self._P.copy()

    @property
    def n_updates(self) -> int:
        """Number of ``update`` calls since the last reset."""
        return self._updates

    def predict(self, regressor: Sequence[float]) -> float:
        """A-priori prediction ``w^T h`` for a regressor ``h``."""
        h = np.asarray(regressor, dtype=float).reshape(self.n_params)
        if self.n_params == 2:
            # Component-wise dot product: plain IEEE multiply-adds with
            # a fixed association, reproducible expression-for-expression
            # by the vectorized batch engine (BLAS may contract w·h with
            # FMA, which rounds differently).
            w = self._weights
            return float(w[0] * h[0] + w[1] * h[1])
        return float(self._weights @ h)

    def update(
        self,
        regressor: Sequence[float],
        observation: float,
        forgetting: Optional[float] = None,
    ) -> RLSUpdate:
        """One Algorithm-1 iteration; returns the step diagnostics.

        ``forgetting`` overrides the configured ``λ`` for this step
        only — the hook variable-forgetting-factor schemes use to dump
        memory after a regime change.
        """
        lam = self.forgetting if forgetting is None else float(forgetting)
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"forgetting factor must lie in (0, 1], got {lam}")
        h = np.asarray(regressor, dtype=float).reshape(self.n_params)
        if self.n_params == 2:
            # Component-wise Algorithm 1 for the ubiquitous 2-parameter
            # (linear-trend) case.  Plain IEEE multiply/add/divide with a
            # fixed association — no BLAS (whose FMA contractions round
            # differently) — so the vectorized batch engine can mirror
            # the arithmetic expression-for-expression and stay
            # bit-identical to this scalar path.
            h0, h1 = h[0], h[1]
            P = self._P
            pi0 = P[0, 0] * h0 + P[0, 1] * h1
            pi1 = P[1, 0] * h0 + P[1, 1] * h1
            gamma = lam + (h0 * pi0 + h1 * pi1)
            g0 = pi0 / gamma
            g1 = pi1 / gamma
            w = self._weights
            prediction = float(w[0] * h0 + w[1] * h1)
            error = float(observation) - prediction
            self._weights = np.array([w[0] + g0 * error, w[1] + g1 * error])
            # (P - g πᵀ)/λ, with the off-diagonal symmetrized exactly as
            # the general path's 0.5 (P_new + P_newᵀ) does.
            n00 = (P[0, 0] - g0 * pi0) / lam
            n01 = (P[0, 1] - g0 * pi1) / lam
            n10 = (P[1, 0] - g1 * pi0) / lam
            n11 = (P[1, 1] - g1 * pi1) / lam
            off = 0.5 * (n01 + n10)
            self._P = np.array([[n00, off], [off, n11]])
            self._updates += 1
            return RLSUpdate(
                prediction=prediction,
                error=error,
                gain=np.array([g0, g1]),
                conversion_factor=float(gamma),
            )
        pi = self._P @ h
        gamma = lam + float(h @ pi)
        gain = pi / gamma
        prediction = float(self._weights @ h)
        error = float(observation) - prediction
        self._weights = self._weights + gain * error
        P_new = (self._P - np.outer(gain, pi)) / lam
        # Symmetrize to suppress round-off drift over long runs.
        self._P = 0.5 * (P_new + P_new.T)
        self._updates += 1
        return RLSUpdate(
            prediction=prediction,
            error=error,
            gain=gain,
            conversion_factor=gamma,
        )


def rls_estimate(
    regressors: Sequence[Sequence[float]],
    observations: Sequence[float],
    forgetting: float = 0.98,
    delta: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch convenience wrapper over :class:`RLSEstimator`.

    Runs Algorithm 1 over aligned sequences of regressors ``h_k`` and
    observations ``y_k``.

    Returns
    -------
    (predictions, weights):
        ``predictions[k]`` is the a-priori estimate at step ``k`` (the
        paper's ``ŵ`` output list) and ``weights`` the final ``w``.
    """
    H = np.atleast_2d(np.asarray(regressors, dtype=float))
    y = np.asarray(observations, dtype=float).ravel()
    if H.shape[0] != y.shape[0]:
        raise ValueError(
            f"got {H.shape[0]} regressors but {y.shape[0]} observations"
        )
    estimator = RLSEstimator(n_params=H.shape[1], forgetting=forgetting, delta=delta)
    predictions = np.empty(y.shape[0])
    for k in range(y.shape[0]):
        predictions[k] = estimator.update(H[k], y[k]).prediction
    return predictions, estimator.weights
