"""Fading, interference covariance and the exact MMSE output SIR.

For a representative channel vector g_T and interference covariance
R = sum_i w_i g_i g_i^H (w_i the received power weight of active node i),
the linear combiner maximizing output SIR is w = R^{-1} g_T and the achieved
SIR is (signal power) * g_T^H R^{-1} g_T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pointproc import as_generator

__all__ = [
    "SingularCovariance",
    "FadingSet",
    "SirSample",
    "draw_fading",
    "interference_covariance",
    "mmse_sir",
    "quadratic_forms",
    "sir_samples",
]

# beyond this spectral condition number a realization is redrawn rather than
# trusted to a Cholesky solve
CONDITION_CAP = 1e12


class SingularCovariance(Exception):
    """Interference covariance is singular or too ill-conditioned to invert."""


@dataclass
class FadingSet:
    """Representative channel g_t (N,) and interferer fading matrix (N, count).

    Entries are i.i.d. circularly symmetric complex Gaussian with unit
    variance (real and imaginary parts each carry variance 1/2).
    """

    g_t: np.ndarray
    interferers: np.ndarray


@dataclass
class SirSample:
    """Output of one realization: linear SIR, its normalization, and the rate.

    beta_n = N^{-alpha/2} r_T^alpha * sir; rate = log2(1 + sir) bits/symbol.
    """

    sir: float
    beta_n: float
    rate: float
    active_count: int = 0
    redraw_count: int = 0


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _fading_draw(rng: np.random.Generator, n_branches: int, count: int) -> np.ndarray:
    """The 2N(1 + count) normals of one fading draw, each scaled by 1/sqrt(2).

    One standard_normal call, in stream order: the real then the imaginary
    parts of g_t (2N), then the planes P = [Re G; Im G] of the N x count
    interferer matrix G, row by row, so that the tail reshaped to
    (2N, count) is P itself.  The representative block comes first, so the
    stream layout does not depend on the interferer count.
    """
    z = rng.standard_normal(2 * n_branches * (1 + count))
    z *= _INV_SQRT2
    return z


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def draw_fading(n_branches: int, count: int, seed) -> FadingSet:
    """Draw the representative channel, then `count` interferer columns.

    Deterministic given the seed: the complex form of _fading_draw, whose
    real and imaginary parts each come from the one draw, bit for bit.
    """
    if n_branches < 1:
        raise ValueError(f"n_branches must be >= 1, got {n_branches}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    z = _fading_draw(as_generator(seed), n_branches, count)
    n = n_branches
    planes = z[2 * n:].reshape(2 * n, count)
    return FadingSet(g_t=_complex(z[:n], z[n:2 * n]),
                     interferers=_complex(planes[:n], planes[n:]))


def interference_covariance(interferers: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """R = sum_i weights[i] g_i g_i^H, Hermitian positive semidefinite.

    weights[i] is the received power of active node i at the reference
    branch: r_i^-alpha for unit transmit power, r_b^alpha r_i^-alpha under
    cellular power control; a negative or NaN weight raises ValueError.
    The planes [Re G; Im G] of the interferer matrix go through
    _plane_covariance, the one covariance build.
    """
    interferers = np.asarray(interferers, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if interferers.ndim != 2:
        raise ValueError("interferer matrix must be (n_branches, count)")
    if weights.shape != interferers.shape[1:]:
        raise ValueError("one weight per interferer column required")
    return _plane_covariance(np.concatenate((interferers.real, interferers.imag)), weights)


def _plane_covariance(planes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """R = sum_i weights[i] g_i g_i^H from the planes P = [Re G; Im G] (2N x k).

    R = A A^H with A = G diag(sqrt(w)), built in real arithmetic: P is
    scaled in place to the planes Ar = Re(G) sqrt(w) and Ai = Im(G) sqrt(w)
    of A, and one BLAS rank-k update (syrk) forms the symmetric Q = P P^T,
    whose blocks are Ar Ar^T, Ar Ai^T, Ai Ar^T and Ai Ai^T.  Then
    Re R = Ar Ar^T + Ai Ai^T and Im R = M - M^T with M = Ai Ar^T.  That is
    4 N^2 k real flops against 8 N^2 k for a complex matrix product, and
    since syrk fills Q symmetrically, R is exactly Hermitian with an exactly
    real diagonal.  A negative or NaN weight raises ValueError.
    """
    if not weights.min(initial=0.0) >= 0.0:  # false on NaN too
        i = int(np.flatnonzero(~(weights >= 0.0))[0])
        raise ValueError(f"weights[{i}] = {float(weights[i])!r}: received powers must be >= 0")
    planes *= np.sqrt(weights)
    q = np.dot(planes, planes.T)  # numpy calls syrk for a matrix times its transpose
    n = len(planes) // 2
    cov = np.empty((n, n), dtype=complex)
    np.add(q[:n, :n], q[n:, n:], out=cov.real)
    np.subtract(q[n:, :n], q[:n, n:], out=cov.imag)
    return cov


def quadratic_forms(g_t: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """g^H R^{-1} g for each member of a stack, NaN where R is unusable.

    g_t is (B, N) and cov is (B, N, N).  A member is unusable when its
    covariance is not positive definite, its spectral condition number
    exceeds CONDITION_CAP or its spectrum is NaN (a non-finite entry).  The
    usable members go through one batched Cholesky factorization R = L L^H
    and one batched solve y = L^{-1} g, so the form is |y|^2 (never an
    explicit inverse).  Each member's value does
    not depend on the rest of the stack.
    """
    g_t = np.asarray(g_t)
    cov = np.asarray(cov)
    if g_t.ndim != 2 or cov.shape != g_t.shape + g_t.shape[-1:]:
        raise ValueError(f"stack shapes g_t {g_t.shape}, cov {cov.shape} do not match")
    evals = np.linalg.eigvalsh(cov)
    with np.errstate(divide="ignore", invalid="ignore"):
        usable = (evals[:, 0] > 0.0) & (evals[:, -1] / evals[:, 0] <= CONDITION_CAP)
    quad = np.full(g_t.shape[0], np.nan)
    if usable.any():
        quad[usable] = _cholesky_forms(g_t[usable], cov[usable])
    return quad


def _cholesky_forms(g_t: np.ndarray, cov: np.ndarray) -> np.ndarray:
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # the spectrum test admits condition numbers up to CONDITION_CAP,
        # where rounding can still stop a factorization: factor one member at
        # a time, and only the members that fail are unusable
        if len(cov) == 1:
            return np.array([np.nan])
        return np.concatenate([_cholesky_forms(g_t[i:i + 1], cov[i:i + 1])
                               for i in range(len(cov))])
    y = np.linalg.solve(chol, g_t[:, :, None])[:, :, 0]
    return (y.real ** 2 + y.imag ** 2).sum(axis=-1)


def sir_samples(rngs, weights, n_branches: int, scale: float) -> np.ndarray:
    """Exact MMSE output SIR of every member of a stack, NaN where singular.

    Member j makes its one fading draw (_fading_draw) from rngs[j], after
    whatever that generator has already drawn; the tail is the plane matrix
    [Re G; Im G] that _plane_covariance turns into the covariance of the
    received weights weights[j], so no complex interferer matrix is built.
    One quadratic_forms call solves the stack, times scale (the signal
    weight times r_T^-alpha, shared by the stack).
    """
    n = n_branches
    g_t = np.empty((len(rngs), 2 * n))
    cov = np.empty((len(rngs), n, n), dtype=complex)
    for j, (rng, w) in enumerate(zip(rngs, weights)):
        z = _fading_draw(rng, n, w.size)
        g_t[j] = z[:2 * n]
        cov[j] = _plane_covariance(z[2 * n:].reshape(2 * n, w.size), w)
    return scale * quadratic_forms(_complex(g_t[:, :n], g_t[:, n:]), cov)


def _sir_sample(sir, r_t: float, alpha: float, n_branches: int,
                active_count=0, redraw_count=0) -> SirSample:
    """The SirSample of one SIR: beta_n = N^{-alpha/2} r_T^alpha sir, rate = log2(1 + sir)."""
    sir = float(sir)
    scale = float(n_branches) ** (-alpha / 2.0) * r_t ** alpha
    return SirSample(sir=sir, beta_n=scale * sir, rate=math.log2(1.0 + sir),
                     active_count=int(active_count), redraw_count=int(redraw_count))


def mmse_sir(
    g_t: np.ndarray,
    cov: np.ndarray,
    r_t: float,
    alpha: float,
    n_branches: int | None = None,
    signal_weight: float = 1.0,
    active_count: int = 0,
) -> SirSample:
    """Exact MMSE output SIR for one realization, as a SirSample.

    sir = signal_weight * r_t^-alpha * g_t^H cov^{-1} g_t, solved through a
    Hermitian Cholesky factorization (never an explicit inverse) by
    quadratic_forms on a stack of one.  The default signal_weight of 1 is
    the unit-transmit-power case; a power-controlled representative passes
    r_t^alpha, making the received signal power 1; n_branches defaults to len(g_t).

    Raises SingularCovariance where quadratic_forms gives NaN: when the
    covariance is not positive definite or its condition number exceeds
    CONDITION_CAP; the caller is expected to redraw the realization.
    """
    (quad,) = quadratic_forms(np.asarray(g_t)[None], np.asarray(cov)[None])
    sir = signal_weight * r_t ** -alpha * quad
    if math.isnan(sir):
        raise SingularCovariance(
            f"covariance is not positive definite or its condition number "
            f"exceeds {CONDITION_CAP:g}"
        )
    n = np.shape(g_t)[-1] if n_branches is None else n_branches
    return _sir_sample(sir, r_t, alpha, n, active_count)

