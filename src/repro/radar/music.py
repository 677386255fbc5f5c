"""Root-MUSIC frequency estimation, implemented from scratch.

The paper extracts the two beat frequencies from the radar data with the
root-MUSIC algorithm (§6.2).  This module provides a self-contained
implementation for complex baseband signals:

1. Build an ``M x M`` sample covariance from overlapping length-``M``
   snapshots of the signal (spatial smoothing).
2. Eigendecompose; the ``K`` largest eigenvectors span the signal
   subspace ``U``, and the noise-subspace projector is
   ``P = E_n E_n^H = I - U U^H``.
3. Form the root-MUSIC polynomial ``D(z) = p(1/z)^T P p(z) =
   sum_k c_k z^k`` with ``p(z) = [1, z, ..., z^{M-1}]^T``; its
   coefficient ``c_k = trace(P, k) = M δ_k - sum_j autocorr(U[:, j])(k)``
   is one correlation per source.  ``P`` is Hermitian, so
   ``c_{-k} = conj(c_k)`` and ``D`` is real on the unit circle.  The
   Cayley map ``z = (w + j) / (w - j)`` takes the unit circle to the
   real line, so ``(w - j)^{2M-2} D(z)`` is a polynomial in ``w`` of the
   same degree ``2M - 2`` with *real* coefficients: a fixed per-order
   basis matrix times the ``c_k``.  Its roots are the eigenvalues of a
   real companion matrix (about a third of the cost of the complex
   one); each maps back to a root of ``D``, a conjugate pair in ``w``
   being a ``(z, 1/conj(z))`` pair in ``z``.  The ``K`` roots closest to (and
   inside) the unit circle sit at ``z = exp(j 2π f / fs)``.
   The basis entries grow like ``2^{2M}`` and cancel in the sum, so
   precision falls with the order: ``M`` is capped at
   :data:`MAX_COVARIANCE_ORDER`, the largest order the test suite
   checks against the complex-polynomial formulation.

A simple FFT-with-parabolic-refinement single-tone estimator is also
provided as an independent cross-check used by the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Optional

import numpy as np

from repro.exceptions import SpectralEstimationError

__all__ = ["MAX_COVARIANCE_ORDER", "root_music", "estimate_single_tone"]

#: Largest covariance order ``M`` :func:`root_music` accepts: the
#: largest one its test suite checks against the complex-polynomial
#: formulation (to 1e-9 of the sample rate).  Past it the real basis
#: loses digits to cancellation: at ``M = 44`` one two-tone case of
#: that test grid already picks the wrong root.
MAX_COVARIANCE_ORDER = 32


def _covariance_matrix(signal: np.ndarray, order: int) -> np.ndarray:
    """Spatially smoothed sample covariance of size ``order``.

    Forward smoothing only: forward-backward averaging would conjugate
    the data and add a mirror component at ``-f`` for complex
    exponentials, which is wrong for the one-sided beat spectrum of an
    IQ-dechirped FMCW return.
    """
    # Columns are length-``order`` snapshots x_k; covariance is
    # E[x x^H], i.e. R[m, n] = mean_k x_k[m] conj(x_k[n]).  The copy
    # makes the product one BLAS call: numpy cannot hand the strided
    # window view to BLAS and multiplied it ~10x slower.
    snapshots = np.lib.stride_tricks.sliding_window_view(signal, order).T.copy()
    return snapshots @ snapshots.conj().T / snapshots.shape[1]


@lru_cache(maxsize=None)  # one entry per order, at most MAX_COVARIANCE_ORDER
def _cayley_basis(order: int) -> np.ndarray:
    """The real ``(2M-1, 2M-1)`` Cayley basis of one order ``M``.

    It maps ``[c_0, Re c_1..c_{M-1}, Im c_1..c_{M-1}]`` to the real
    coefficients (highest power first) of
    ``sum_k c_k (w + j)^{M-1+k} (w - j)^{M-1-k}``.  The coefficient of
    ``w^{N-i}`` in ``(w + j)^a (w - j)^b`` (``N = a + b``) is
    ``j^i sum_s (-1)^{i-s} C(a, s) C(b, i-s)``; it is built in exact
    integers and rounded once.  By ``c_{-k} = conj(c_k)`` the ``-k``
    term is the conjugate of the ``+k`` one, so the sum is
    ``c_0 B_0 + 2 Re sum_{k>0} c_k B_k``.
    """
    degree = 2 * order - 2

    def row(k: int) -> np.ndarray:
        a, b = order - 1 + k, order - 1 - k
        out = np.empty(degree + 1, dtype=complex)
        for i in range(degree + 1):
            total = sum(
                (-1) ** (i - s) * comb(a, s) * comb(b, i - s)
                for s in range(max(0, i - b), min(a, i) + 1)
            )
            out[i] = 1j**i * total
        return out

    rows = [row(k) for k in range(order)]
    basis = np.vstack(
        [rows[0].real]
        + [2.0 * r.real for r in rows[1:]]
        + [-2.0 * r.imag for r in rows[1:]]
    )
    basis.flags.writeable = False
    return basis


def root_music(
    signal: np.ndarray,
    n_sources: int,
    sample_rate: float,
    covariance_order: Optional[int] = None,
) -> np.ndarray:
    """Estimate the frequencies of ``n_sources`` complex sinusoids.

    Parameters
    ----------
    signal:
        Complex baseband samples (1-D).
    n_sources:
        Number of sinusoids to resolve (``K``).
    sample_rate:
        Sample rate in hertz; returned frequencies are in
        ``(-sample_rate/2, sample_rate/2]``.
    covariance_order:
        Size ``M`` of the smoothed covariance; defaults to
        ``min(len(signal)//3, 24)`` and must satisfy
        ``n_sources < M <= len(signal)`` and
        ``M <= MAX_COVARIANCE_ORDER``.

    Returns
    -------
    numpy.ndarray
        The ``K`` estimated frequencies in hertz, sorted ascending.

    Raises
    ------
    ValueError
        On a bad ``n_sources`` or ``sample_rate``, or a
        ``covariance_order`` above :data:`MAX_COVARIANCE_ORDER`.
    SpectralEstimationError
        If the signal is too short or the polynomial rooting fails to
        produce ``K`` usable roots.
    """
    x = np.asarray(signal, dtype=complex).ravel()
    if n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {n_sources}")
    if sample_rate <= 0.0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    order = covariance_order if covariance_order is not None else min(len(x) // 3, 24)
    if order > MAX_COVARIANCE_ORDER:
        raise ValueError(
            f"covariance order {order} exceeds MAX_COVARIANCE_ORDER "
            f"{MAX_COVARIANCE_ORDER}"
        )
    if order <= n_sources:
        raise SpectralEstimationError(
            f"covariance order {order} must exceed n_sources {n_sources}; "
            f"signal of length {len(x)} is too short"
        )
    if len(x) < order:
        raise SpectralEstimationError(
            f"need at least {order} samples, got {len(x)}"
        )

    # numpy's BLAS only: scipy may link a second threaded BLAS, and
    # alternating between the two thread pools here made a
    # signal-fidelity panel ~10x slower (21 s against 2 s, 2 CPUs).
    covariance = _covariance_matrix(x, order)
    _, eigvecs = np.linalg.eigh(covariance)
    signal_subspace = eigvecs[:, order - n_sources :]

    # autocorr[M-1+k] = sum_i u[i+k] conj(u[i]) = conj(trace(u u^H, k)).
    autocorr = sum(np.correlate(u, u, "full") for u in signal_subspace.T)
    lags = autocorr[order - 1 :]
    # -[c_0, Re c_1..c_{M-1}, Im c_1..c_{M-1}] with c_k = M δ_k - conj(lags[k]);
    # the overall sign does not move the roots.
    stacked = np.concatenate((lags.real, -lags.imag[1:]))
    stacked[0] -= order
    coefficients = stacked @ _cayley_basis(order)
    if coefficients[0] == 0.0:
        # D(1) = 0 exactly: a root at w = infinity, i.e. at z = 1.
        raise SpectralEstimationError("root-MUSIC polynomial is degenerate")
    # Companion matrix of the monic polynomial: ones on the subdiagonal,
    # the negated, normalized coefficients in row 0.
    companion = np.eye(coefficients.size - 1, k=-1)
    companion[0] = coefficients[1:] / -coefficients[0]
    w = np.linalg.eigvals(companion)
    roots = (w + 1j) / (w - 1j)

    # Roots come in conjugate-reciprocal pairs; keep the ones inside (or
    # numerically on) the unit circle, then take the K closest to it.
    inside = roots[np.abs(roots) <= 1.0 + 1e-8]
    if inside.size < n_sources:
        raise SpectralEstimationError(
            f"only {inside.size} roots inside the unit circle, "
            f"need {n_sources}"
        )
    closest = inside[np.argsort(np.abs(np.abs(inside) - 1.0))[:n_sources]]
    frequencies = np.angle(closest) / (2.0 * np.pi) * sample_rate
    return np.sort(frequencies)


def estimate_single_tone(signal: np.ndarray, sample_rate: float) -> float:
    """FFT-based single-tone frequency estimate with parabolic refinement.

    An independent, non-subspace estimator used to cross-check
    :func:`root_music` in tests and as a cheap fallback.  Accurate to a
    small fraction of a bin for a strong sinusoid.
    """
    x = np.asarray(signal, dtype=complex).ravel()
    if x.size < 4:
        raise SpectralEstimationError("need at least 4 samples for a tone estimate")
    n_fft = int(2 ** np.ceil(np.log2(x.size * 4)))
    spectrum = np.fft.fft(x, n_fft)
    magnitude = np.abs(spectrum)
    peak = int(np.argmax(magnitude))
    # Parabolic interpolation on log-magnitude around the peak.
    left = magnitude[(peak - 1) % n_fft]
    right = magnitude[(peak + 1) % n_fft]
    center = magnitude[peak]
    denom = left - 2.0 * center + right
    offset = 0.0 if abs(denom) < 1e-30 else 0.5 * (left - right) / denom
    bin_freq = (peak + offset) / n_fft
    if bin_freq > 0.5:
        bin_freq -= 1.0
    return float(bin_freq * sample_rate)
