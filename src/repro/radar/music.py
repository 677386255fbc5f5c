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

For ``K = 1`` (every call the receiver makes) :func:`root_music` first
tries a path that computes only the root it returns: power iteration
for the signal eigenvector, one FFT of ``D`` on the unit circle to seed
the root, and Newton's method to polish it.  It keeps that root only
when a certificate (see :func:`root_music`) proves it is the one the
companion eigensolve above would pick; otherwise it runs that
eigensolve on the same covariance.

A simple FFT-with-parabolic-refinement single-tone estimator is also
provided as an independent cross-check used by the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import comb
from typing import Optional

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import SpectralEstimationError

__all__ = ["MAX_COVARIANCE_ORDER", "root_music", "estimate_single_tone"]

#: Largest covariance order ``M`` :func:`root_music` accepts: the
#: largest one its test suite checks against the complex-polynomial
#: formulation (to 1e-9 of the sample rate).  Past it the real basis
#: loses digits to cancellation: at ``M = 44`` one two-tone case of
#: that test grid already picks the wrong root.
MAX_COVARIANCE_ORDER = 32

#: Points of the zero-padded FFT grid on which the one-root path samples
#: ``D`` on the unit circle (seed and main-lobe bound).
_GRID_POINTS = 1024

#: Largest eigenvector residual, relative to the spectral gap bound
#: ``2λ - tr R``, that the one-root path accepts (see :func:`root_music`).
_EIGENVECTOR_TOLERANCE = 1e-13

_EPS = float(np.finfo(float).eps)


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


@lru_cache(maxsize=None)
def _grid_roots() -> np.ndarray:
    """``exp(j·2π m/N)`` for ``m = 0..N-1``: ``exp(jkθ)`` at a grid point is
    a lookup.

    Built on first use: at import it raised the peak memory of every
    process by ~0.25 MB, including those that never touch the radar.
    """
    roots = np.exp(2j * np.pi / _GRID_POINTS * np.arange(_GRID_POINTS))
    roots.flags.writeable = False
    return roots


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


def _signal_eigenvector(covariance: np.ndarray) -> Optional[np.ndarray]:
    """The dominant eigenvector ``u`` of ``covariance`` by power iteration.

    Returns ``None`` unless the residual bound of :func:`root_music`
    proves ``u`` is the eigenvector of the largest eigenvalue to
    within :data:`_EIGENVECTOR_TOLERANCE`.
    """
    trace = float(covariance.trace().real)
    if not trace > 0.0:
        return None
    # The column of the largest diagonal entry is R applied to a unit
    # vector, already close to u when one tone dominates.
    w = covariance[:, int(np.argmax(covariance.diagonal().real))]
    for _ in range(64):
        v = w / math.sqrt(np.vdot(w, w).real)
        w = covariance @ v
        rayleigh = np.vdot(v, w).real
        gap_bound = 2.0 * rayleigh - trace
        if gap_bound <= 0.0:
            return None
        residual = w - rayleigh * v
        if math.sqrt(np.vdot(residual, residual).real) < _EIGENVECTOR_TOLERANCE * gap_bound:
            return v
    return None


def _laurent_coefficients(u: np.ndarray) -> np.ndarray:
    """``c_{-(M-1)}..c_{M-1}`` of ``D(z) = sum_k c_k z^k`` for ``P = I - u u^H``."""
    # np.correlate(u, u)[M-1+k] = sum_i u[i+k] conj(u[i]) = conj(trace(u u^H, k)).
    coefficients = -np.conj(np.correlate(u, u, "full"))
    coefficients[u.size - 1] += u.size
    return coefficients


def _certified_root(coefficients: np.ndarray) -> Optional[complex]:
    """The certified root ``θ₀`` of ``D(e^{jθ})``, or ``None``.

    ``coefficients`` are the Laurent coefficients ``c_{-(M-1)}..c_{M-1}``
    (``c_{-k} = conj(c_k)``) of a ``D`` with ``0 <= D <= M`` on the
    unit circle.  On success ``z₀ = exp(j θ₀)`` (``Im θ₀ > 0``, so
    ``|z₀| < 1``) is the root of ``z^{M-1} D(z)`` inside the unit circle
    and closest to it, by the certificate of :func:`root_music`.
    """
    order = (coefficients.size + 1) // 2
    n_grid = _GRID_POINTS
    step = 2.0 * np.pi / n_grid
    lags = np.arange(1 - order, order)
    weighted = lags * coefficients

    # D on the grid ω_n = n·step: a Hermitian inverse FFT of c_0..c_{M-1}.
    grid = np.fft.hfft(np.conj(coefficients[order - 1 :]), n_grid)
    n_min = int(np.argmin(grid))
    left, center, right = grid[n_min - 1], grid[n_min], grid[(n_min + 1) % n_grid]
    curvature = left - 2.0 * center + right
    omega = n_min * step
    if curvature > 0.0:
        omega += 0.5 * (left - right) / curvature * step

    # Seed Newton on D(e^{jθ}) = 0 with the upper root of D's quadratic
    # Taylor model at the grid minimum, D + D'x + D''x²/2 = 0.
    powers = np.exp(1j * lags * omega)
    value = float((coefficients @ powers).real)
    first = -float((weighted @ powers).imag)
    second = -float((lags * weighted @ powers).real)
    if not second > 0.0:
        return None
    discriminant = max(2.0 * value * second - first * first, 0.0)
    theta = omega + complex(-first, math.sqrt(discriminant)) / second
    scale = float(np.abs(coefficients).sum())
    for _ in range(32):
        powers = np.exp(1j * lags * theta)
        slope = 1j * complex(weighted @ powers)
        if slope == 0.0:
            return None
        newton = complex(coefficients @ powers) / slope
        theta -= newton
        # Past |Im θ| = 1 the bound τ below exceeds M: nothing is certified.
        if not abs(theta.imag) < 1.0:
            return None
        # Stop once the step is down to the rounding of D's evaluation.
        floor = 8.0 * _EPS * scale * math.exp((order - 1) * abs(theta.imag)) / abs(slope)
        if abs(newton) <= 1e-13 + floor:
            break
    else:
        return None
    eta0 = abs(theta.imag)
    theta = complex(theta.real, eta0)  # the root inside the unit circle
    # Newton-Kantorovich at the last iterate (θ + newton): |D''| <= bound
    # on the disc of radius 2|newton| around it (Bernstein), so
    # 2|newton|·bound <= |D'| puts a zero of D in that disc.
    reach = abs(newton)
    bound = (order - 1) ** 2 * order * math.exp((order - 1) * (eta0 + 3.0 * reach))
    if 2.0 * reach * bound > abs(slope) or 6.0 * reach >= eta0:
        return None

    # Outside the main lobe: a root with 1 - |z| <= δ has D(arg z) <= τ.
    eta = 2.0 * eta0
    delta = -np.expm1(-eta)
    tau = delta * (2 * order - 2) * order
    slack = (np.pi / n_grid) * (order - 1) * order
    low = np.flatnonzero(grid <= tau + slack)
    # The low points must form one circular run holding θ₀'s grid point.
    n_root = int(round(theta.real / step))
    offsets = (low - n_root + n_grid // 2) % n_grid - n_grid // 2
    first_low, last_low = int(offsets.min()), int(offsets.max())
    if first_low > 0 or last_low < 0 or last_low - first_low + 1 != low.size:
        return None
    if low.size >= n_grid - 2:
        return None

    # Inside the lobe: the rectangle from ω_{a-1} to ω_{b+1} (the grid
    # points flanking the run), |Im θ| <= height, must hold no zero of D
    # but θ₀ and conj(θ₀).  D is real on the real axis, so the contour's
    # upper half is the conjugate of its lower half: down the left side,
    # along the bottom edge at the grid points, up the right side.
    height = max(eta, 2.0 * step)
    n_side = math.ceil(height / step)
    depths = np.arange(n_side + 1) * (height / n_side)
    side = np.exp(np.outer(depths, lags))
    columns = n_root + np.arange(first_low - 1, last_low + 2)
    grid_powers = _grid_roots()[np.outer(columns, lags) % n_grid]
    values = np.concatenate((
        side @ (coefficients * grid_powers[0]),
        grid_powers[1:] @ (coefficients * side[-1]),
        side[-2::-1] @ (coefficients * grid_powers[-1]),
    ))
    points = np.concatenate((
        columns[0] * step - 1j * depths,
        columns[1:] * step - 1j * height,
        columns[-1] * step - 1j * depths[-2::-1],
    ))
    if np.abs(values).min() <= 64.0 * _EPS * scale * math.exp((order - 1) * height):
        return None
    offset = points - theta.real
    quotient = values / (offset * offset + eta0 * eta0)
    turns = np.angle(quotient[1:] / quotient[:-1])
    if np.abs(turns).max() > np.pi / 4 or abs(turns.sum()) > np.pi:
        return None
    return theta


def _exact_frequencies(
    covariance: np.ndarray, n_sources: int, sample_rate: float
) -> np.ndarray:
    """Root-MUSIC by the Cayley-mapped companion eigensolve (all roots)."""
    order = covariance.shape[0]
    # numpy's BLAS only: scipy may link a second threaded BLAS, and
    # alternating between the two thread pools here made a
    # signal-fidelity panel ~10x slower (21 s against 2 s, 2 CPUs).
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
        On a bad ``n_sources`` or ``sample_rate``, a
        ``covariance_order`` above :data:`MAX_COVARIANCE_ORDER`, or a
        NaN or infinite sample (the message names the first one).
    SpectralEstimationError
        If the signal is too short or the polynomial rooting fails to
        produce ``K`` usable roots.

    Notes
    -----
    For ``K = 1`` the root closest to the unit circle is computed alone
    and kept only under the certificate below.  Write ``u`` for the
    eigenvector, ``D(ω) = M - |U(ω)|²`` on the circle (so
    ``0 <= D <= M``), ``q(z) = z^{M-1} D(z)`` (degree ``2M-2``),
    ``z₀ = exp(jθ₀)`` for the root found, ``η₀ = Im θ₀`` and
    ``δ = 1 - exp(-2η₀)`` (about twice ``1 - |z₀|``).  The certificate
    proves that every root pair of ``q`` other than ``(z₀, 1/conj(z₀))``
    lies more than ``δ`` from the circle.

    * *Eigenvector.*  For a unit ``u`` with Rayleigh quotient ``λ``,
      ``sin∠(u, e₁) <= ‖Ru - λu‖ / (λ - λ₂)``, and ``λ₂ <= tr R - λ₁
      <= tr R - λ`` for a PSD ``R``.  ``u`` is accepted once
      ``‖Ru - λu‖ / (2λ - tr R) < 1e-13``; noise- or jammer-dominated
      covariances (``2λ <= tr R``) never are.
    * *Root.*  Newton's method on ``D(exp(jθ))`` from the root of its
      quadratic Taylor model at the grid minimum.  By Bernstein's
      inequality ``|D''| <= K = (M-1)² M exp((M-1)|Im θ|)`` in the
      strip, so by the Newton-Kantorovich theorem a zero lies within
      ``2s`` of the last iterate (``s`` its last step) once
      ``2sK <= |D'|``; ``6s < η₀`` keeps it off the real axis.
    * *Outside the main lobe.*  On the circle ``|q| = D <= M``, so by
      Bernstein's inequality and the maximum modulus principle
      ``|q'| <= (2M-2) M`` on the closed disc.  A root ``z₁`` with
      ``1 - |z₁| <= δ`` then forces ``D(arg z₁) <= τ = δ (2M-2) M``.
      ``D`` is a trigonometric polynomial of degree ``M-1`` bounded by
      ``M``, so ``|D'| <= (M-1) M``: on the ``N``-point grid every angle
      with ``D <= τ`` lies within ``π/N`` of a grid point with
      ``D <= τ + (π/N)(M-1) M``.  Those grid points must form one
      circular run (the main lobe) holding ``Re θ₀``.
    * *Inside the lobe.*  The rectangle from the grid point before the
      run to the one after it, ``|Im θ| <= h = max(2η₀, 4π/N)``, must
      hold no zero of ``D(exp(jθ))`` but ``θ₀`` and ``conj(θ₀)``: after
      dividing them out, the quotient's winding number around the
      rectangle must be 0 (argument principle).  ``D`` is real on the
      real axis, so the upper half of the contour is the conjugate of
      the lower half, which is sampled at the grid spacing.  Each
      sample must clear the rounding of its evaluation and the phase
      must turn by less than π/4 between samples.  ``h`` is at least
      two grid steps so that a zero pair straddling the real axis,
      which turns the phase by 2π, cannot fall between two samples.

    The certificate is about the roots of ``q``.  Where ``z₀`` is
    nearly a double root (a noise-free tone, ``1 - |z₀|`` below a few
    times 1e-6) the companion eigensolve places it less accurately, off by
    up to ~0.1 Hz at a 256 kHz sample rate, and the two paths differ
    by that much.  An uncertified call (counted by the
    ``radar.music_exact_path`` counter) roots the companion matrix on
    the same covariance, as every ``K > 1`` call does.
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
    finite = np.isfinite(x)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ValueError(f"signal sample {index} is not finite: {x[index]}")
    if order <= n_sources:
        raise SpectralEstimationError(
            f"covariance order {order} must exceed n_sources {n_sources}; "
            f"signal of length {len(x)} is too short"
        )
    if len(x) < order:
        raise SpectralEstimationError(
            f"need at least {order} samples, got {len(x)}"
        )

    covariance = _covariance_matrix(x, order)
    if n_sources == 1:
        u = _signal_eigenvector(covariance)
        theta = None if u is None else _certified_root(_laurent_coefficients(u))
        if theta is not None:
            angle = np.angle(np.exp(1j * theta.real))
            return np.array([angle / (2.0 * np.pi) * sample_rate])
        _telemetry.incr("radar.music_exact_path")
    return _exact_frequencies(covariance, n_sources, sample_rate)


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
    # Parabolic interpolation on linear magnitude around the peak.
    left = magnitude[(peak - 1) % n_fft]
    right = magnitude[(peak + 1) % n_fft]
    center = magnitude[peak]
    denom = left - 2.0 * center + right
    offset = 0.0 if abs(denom) < 1e-30 else 0.5 * (left - right) / denom
    bin_freq = (peak + offset) / n_fft
    if bin_freq > 0.5:
        bin_freq -= 1.0
    return float(bin_freq * sample_rate)
