"""Large-system limits of the normalized MMSE output SIR.

For a receiver with N diversity branches in a disk network whose active
co-channel interferers have limiting density ``rho``, the normalized SIR
``beta_N = N^{-alpha/2} r_T^alpha SIR`` converges to a deterministic value
``beta``.  This module provides:

* the defining fixed-point equation for ``beta`` and a solver built on its
  Gauss hypergeometric closed form (``solve_beta_fixed_point``),
* an independent quadrature oracle for the same fixed point that never
  touches the hypergeometric code path (``fixed_point_oracle``); the two
  share only the root finder (a bracket expansion, then Brent's method),
* the closed-form value of ``beta`` in the many-interferers-per-branch
  limit (``beta_large_c``) and the rate predictions built on it,
* cell-edge rate expressions with and without distance-proportional power
  control, and the reuse factor maximizing reuse-normalized rate,
* the limiting distribution of scaled received powers (``limiting_edf``).

scipy.special evaluates the special functions, and it is the only scipy
this module uses: ``gauss_2f1`` and ``lambert_w0`` are validating wrappers
over ``scipy.special.hyp2f1`` and ``scipy.special.lambertw``, and
``fixed_point_equation`` also calls ``scipy.special.betaincc``.  The root
finder and the oracle's Gauss-Legendre quadrature are numpy and plain
Python.  scipy.special is imported on first use, by those three functions,
so importing this module, and every simulation path that uses only the
closed-form rate predictions, needs numpy alone.
All functions are pure; none hold state but that import, the cached
Gauss-Legendre nodes and, for the length of one search, the oracle's grids.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoBracket",
    "AsymptoticParams",
    "AsymptoticSolution",
    "gauss_2f1",
    "lambert_w0",
    "beta_large_c",
    "fixed_point_equation",
    "solve_beta_fixed_point",
    "fixed_point_oracle",
    "rate_approx",
    "cell_edge_rate",
    "optimal_reuse",
    "limiting_edf",
]

_BRANCH_POINT = -math.exp(-1.0)  # -1/e, edge of the W0 domain

# decades the fixed-point bracket may grow on each side before giving up
_MAX_EXPAND = 60

# Brent's method: scipy brentq's default relative tolerance (4 eps, its
# floor), an absolute one that never binds, and its step limit
_RTOL = 4.0 * sys.float_info.epsilon
_XTOL = sys.float_info.min
_BRENT_STEPS = 100

# the oracle's quadrature: nodes of the coarser Gauss-Legendre rule, error
# allowed per piece relative to the whole integral, rounds of halving, and
# decades taken below the knee before the last piece from 0
_QUAD_NODES = 20
_QUAD_RTOL = 1e-12
_QUAD_HALVINGS = 10
_DECADES_BELOW = 4


class NoBracket(RuntimeError):
    """The fixed-point bracket never produced a sign change.

    The limit equation has a positive root only when c * nu > 1 (more
    active interferers than diversity branches); hitting this error
    normally means the parameters violate that regime.
    """


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

@functools.cache
def _special():
    """The module scipy.special, imported on first use.

    Cached, because an import statement in a function pays a package
    lookup on every call (about 0.7 us on CPython 3.11) even when the
    module is loaded, and the fixed-point solver calls gauss_2f1 dozens of
    times per solve.  scipy itself is imported first, so that a missing
    scipy always raises ModuleNotFoundError with name "scipy", which the
    command line reports without a traceback.
    """
    importlib.import_module("scipy")
    return importlib.import_module("scipy.special")


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real arguments.

    scipy.special.hyp2f1 evaluates it; this wrapper rejects the undefined
    cases: a nonpositive-integer c, z above 1 or not finite, and the
    divergent z = 1 case with c - a - b <= 0.
    """
    if c <= 0 and c == int(c):
        raise ValueError(f"2F1 undefined for nonpositive integer c={c}")
    if not -math.inf < z <= 1.0:
        raise ValueError(f"2F1 argument z={z} outside the supported range (-inf, 1]")
    if z == 1.0 and c - a - b <= 0:
        raise ValueError(
            f"2F1(a={a}, b={b}; c={c}; 1) diverges: c - a - b = {c - a - b} <= 0"
        )
    return float(_special().hyp2f1(a, b, c, z))


def lambert_w0(z: float) -> float:
    """Principal branch of the Lambert W function, w * exp(w) = z, w >= -1.

    scipy.special.lambertw evaluates it.  The double nearest -1/e lies just
    below the true branch point, where scipy returns NaN, so it and values
    within a relative 1e-12 below it map to -1 exactly.  Raises ValueError
    for NaN and for z < -1/e.
    """
    if math.isnan(z):
        raise ValueError("lambert_w0 is undefined for NaN")
    if z <= _BRANCH_POINT:
        if z > _BRANCH_POINT * (1.0 + 1e-12):
            return -1.0  # the branch point, or rounding right below it
        raise ValueError(f"lambert_w0 domain is z >= -1/e; got z={z}")
    return float(_special().lambertw(z).real)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticParams:
    """Inputs of the large-system limit.

    rho_p is the potential-interferer density, nu the limiting activation
    probability (so the active density is rho = nu * rho_p), c the ratio of
    potential interferers to diversity branches, and alpha the path-loss
    exponent.  The limit regime needs c * nu > 1; the constructor accepts
    any c * nu, and the solvers raise NoBracket at c * nu <= 1.
    """

    rho_p: float
    c: float
    alpha: float
    nu: float = 1.0

    def __post_init__(self):
        if not self.rho_p > 0:
            raise ValueError(f"rho_p must be positive, got {self.rho_p}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not self.alpha > 2:
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")

    @property
    def rho(self) -> float:
        """Limiting density of active interferers."""
        return self.nu * self.rho_p

    @property
    def support_point(self) -> float:
        """Least scaled received power of an in-network node, (pi rho_p / c)^(alpha/2)."""
        return (math.pi * self.rho_p / self.c) ** (self.alpha / 2.0)


@dataclass(frozen=True)
class AsymptoticSolution:
    """A solved normalized-SIR limit plus the residual of its defining equation."""

    beta: float
    residual: float
    params: AsymptoticParams = field(repr=False)

    def rate(self, n_branches: int, r_t: float) -> float:
        """Predicted rate log2(1 + N^{alpha/2} r_T^{-alpha} beta) in bits/symbol."""
        alpha = self.params.alpha
        return math.log2(1.0 + n_branches ** (alpha / 2.0) * r_t ** -alpha * self.beta)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def beta_large_c(rho: float, alpha: float) -> float:
    """Normalized-SIR limit when potential interferers vastly outnumber branches.

    beta = [alpha sin(2 pi / alpha) / (2 pi^2 rho)]^(alpha/2); the finite-c
    correction term of the full fixed point vanishes as c grows.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not alpha > 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    return (alpha * math.sin(2.0 * math.pi / alpha) / (2.0 * math.pi ** 2 * rho)) ** (
        alpha / 2.0
    )


def fixed_point_equation(beta: float, params: AsymptoticParams) -> float:
    """Signed defect of the fixed-point equation; zero at the SIR limit.

    The defect is c nu 2F1(1, d; 1 + d; -1/(x0 beta)) - 1, with d = 2/alpha
    and x0 = (pi rho_p / c)^(alpha/2) the least scaled received power: the
    activity integral beta c Int tau dH(tau) / (1 + tau beta) of
    fixed_point_oracle, in closed form through v = 1/(tau beta).  The same
    term is the large-c limit times the in-network share of the whole-plane
    integral, (beta / beta_large_c)^d Q(1 - d, d; x0 beta / (1 + x0 beta)),
    with Q the complementary regularized incomplete beta.  That form serves
    x0 beta < 1 at alpha < 4: there scipy's 2F1 sums two terms that each
    grow like 1/(1 - d), and at alpha 4 (d = 1/2) scipy's Q rounds
    1 - x0 beta / (1 + x0 beta) away.  It also serves where 1/(x0 beta)
    overflows, as Q tends to 1.  Strictly increasing in beta, negative at
    0+, with a single positive root whenever c * nu > 1.
    """
    d = 2.0 / params.alpha
    xb = params.support_point * beta
    if xb < 1.0 and (d > 0.5 or xb * sys.float_info.max <= 1.0):
        share = float(_special().betaincc(1.0 - d, d, xb / (1.0 + xb)))
        return (beta / beta_large_c(params.rho, params.alpha)) ** d * share - 1.0
    return params.c * params.nu * gauss_2f1(1.0, d, 1.0 + d, -1.0 / xb) - 1.0


def _brent(func, a: float, b: float, fa: float, fb: float) -> float:
    """A root of func in [a, b] by Brent's method, given fa = func(a) and fb = func(b).

    A port of the van Wijngaarden-Dekker-Brent search of scipy's brentq
    (Brent 1973), with its rules: steps of inverse quadratic or secant
    interpolation where they shrink the bracket fast enough, bisection
    otherwise, and a stop once the bracket is narrower than
    _XTOL + _RTOL |x|.  Where the interpolation's denominator is zero (a
    product of defect differences that underflows, or two equal defect
    values), it bisects, as the C code does when its quotient is infinite
    or NaN.  Raises FloatingPointError on a NaN defect, or when
    _BRENT_STEPS steps do not converge.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_STEPS):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            if den != 0.0:
                stry = num / den
        if stry is not None and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = func(xcur)
        if math.isnan(fcur):
            raise FloatingPointError(f"root search in [{a:.3g}, {b:.3g}]: the defect "
                                     f"at {xcur!r} is NaN")
    raise FloatingPointError(f"root search in [{a:.3g}, {b:.3g}] did not converge "
                             f"in {_BRENT_STEPS} steps")


def _solve_root(func, params: AsymptoticParams) -> float:
    """The root in beta of an increasing fixed-point defect.

    Both fixed points share this path: expand [b/10, 10 b] geometrically
    around the large-c value b until func changes sign, then _brent to
    machine relative precision (rtol 4 eps; the negligible xtol keeps the
    stopping rule relative at every scale of beta), handing it the two end
    values already computed.  A search that does not converge raises
    FloatingPointError: the defect is too noisy at these parameters.
    """
    # the activity integral is bounded by c * nu, so no positive root can
    # exist at or below one; the closed form would only produce spurious
    # sign changes through cancellation at absurd beta
    if params.c * params.nu <= 1.0:
        raise NoBracket(
            f"c * nu = {params.c * params.nu:.4g} <= 1: the fixed point has no "
            "positive solution (fewer active interferers than branches)"
        )
    center = beta_large_c(params.rho, params.alpha)
    if center == 0.0:
        raise FloatingPointError(
            f"the large-c value of beta underflows to 0 at rho = {params.rho:.3g}, "
            f"alpha = {params.alpha:.9g}: no bracket can grow from it"
        )
    lo, hi = center / 10.0, center * 10.0
    for _ in range(_MAX_EXPAND):
        f_lo, f_hi = func(lo), func(hi)
        if f_lo * f_hi <= 0.0:
            return _brent(func, lo, hi, f_lo, f_hi)
        lo /= 10.0
        hi *= 10.0
    raise NoBracket(
        f"no sign change in [{lo:.3g}, {hi:.3g}] after {_MAX_EXPAND} expansions; "
        "check that c * nu > 1"
    )


def solve_beta_fixed_point(params: AsymptoticParams) -> AsymptoticSolution:
    """Solve the normalized-SIR fixed point via the hypergeometric closed form.

    Seeded at the large-c value (the exact c -> infinity limit), bracketed by
    geometric expansion, then solved by Brent's method to machine relative
    precision.  The reported residual is |fixed_point_equation| at the
    root; above 1e-10 it raises FloatingPointError.
    """
    beta = _solve_root(lambda b: fixed_point_equation(b, params), params)
    residual = abs(fixed_point_equation(beta, params))
    if residual > 1e-10:
        raise FloatingPointError(f"fixed-point solve stalled: residual {residual:.3g}")
    return AsymptoticSolution(beta=beta, residual=residual, params=params)


@functools.cache
def _legendre() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] of the _QUAD_NODES- and 2 _QUAD_NODES-point
    Gauss-Legendre rules side by side, and the two weight vectors."""
    x_n, w_n = np.polynomial.legendre.leggauss(_QUAD_NODES)
    x_2n, w_2n = np.polynomial.legendre.leggauss(2 * _QUAD_NODES)
    return np.concatenate([x_n, x_2n]), w_n, w_2n


def _activity_integral(gamma: float, params: AsymptoticParams, complement: bool = False,
                       grids: dict | None = None) -> float:
    """The activity integral gamma c Int tau dH(tau) / (1 + tau gamma), or
    with complement=True c nu minus it.

    H is the limiting distribution of scaled received powers: an atom of
    mass 1 - nu at zero (which contributes nothing) and density
    (2 pi rho / (alpha c)) tau^(-2/alpha - 1) above the support point.  The
    substitution u = tau^(-2/alpha) compactifies the tail exactly, and
    pi rho u0 = c nu with u0 = c / (pi rho_p), leaving, with
    k = gamma^(2/alpha) and p = alpha/2,

        pi * rho * Int_0^u0 du / (1 + (u / k)^p)    (the integral),
        pi * rho * Int_0^u0 du / (1 + (k / u)^p)    (its complement),

    bounded integrands that fall from 1 to 0, and rise from 0 to 1, through
    the knee u = k.

    The integral is taken piecewise, decade by decade from the knee (or
    from 1 or u0, if lower) up to u0, and down over _DECADES_BELOW decades
    under it to a last piece from 0; there the complement's integrand is
    below (u / k)^p, so each of its decades down adds at most a hundredth
    of the one above, and the integral's is as close to 1.  Every piece gets the n- and 2n-point Gauss-Legendre rules
    in one numpy call; a piece whose two values differ by more than
    _QUAD_RTOL of the whole integral is halved, for at most _QUAD_HALVINGS
    rounds.  A piece with a non-finite edge or value, or one still off
    after the last round, raises FloatingPointError naming it.  This path
    never calls the hypergeometric code.  grids, one dict per params, keeps
    the edges from each start and each piece set's half widths and nodes,
    so that a root search builds them once; no value depends on it.
    """
    grids = {} if grids is None else grids
    p = params.alpha / 2.0
    u0 = params.c / (math.pi * params.rho_p)
    knee = gamma ** (2.0 / params.alpha)
    cut = min(1.0, u0, knee) if knee > 0.0 else min(1.0, u0)
    if cut not in grids:
        edges = [0.0, *(cut * 10.0 ** -j for j in range(_DECADES_BELOW, 0, -1)), cut]
        while edges[-1] < u0:
            edges.append(min(edges[-1] * 10.0, u0))
        grids[cut] = np.array(edges[:-1]), np.array(edges[1:])
    lo, hi = grids[cut]
    x, w_n, w_2n = _legendre()
    total = 0.0
    halvings = 0
    while True:
        key = lo.tobytes() + hi.tobytes()
        if key not in grids:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            with np.errstate(over="ignore", invalid="ignore"):
                grids[key] = half, mid[:, None] + half[:, None] * x
        half, u = grids[key]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # a ratio that overflows, or divides by an underflowing u or k,
            # is inf and one that underflows is 0, so the integrand stays
            # in [0, 1]
            f = np.divide(knee, u) if complement else np.divide(u, knee)
            f **= p
            np.reciprocal(np.add(f, 1.0, out=f), out=f)
            coarse = half * (f[:, :_QUAD_NODES] @ w_n)
            fine = half * (f[:, _QUAD_NODES:] @ w_2n)
        err = np.abs(fine - coarse)
        # a non-finite edge makes its piece's values non-finite too
        if not (math.isfinite(hi[-1]) and np.isfinite(err).all()):
            bad = ~(np.isfinite(lo) & np.isfinite(hi) & np.isfinite(fine) & np.isfinite(err))
            i = int(np.argmax(bad))
            raise FloatingPointError(f"quadrature did not converge on [{lo[i]:.3g}, {hi[i]:.3g}] "
                                     f"(value {fine[i]:.6g})")
        whole = total + fine.sum()
        off = err > _QUAD_RTOL * whole
        if not off.any():
            return math.pi * params.rho * float(whole)
        total += fine[~off].sum()
        if halvings == _QUAD_HALVINGS:
            break
        halvings += 1
        lo, hi = lo[off], hi[off]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    i = int(np.argmax(np.where(off, err, -1.0)))
    raise FloatingPointError(
        f"quadrature did not converge on [{lo[i]:.3g}, {hi[i]:.3g}] "
        f"(value {fine[i]:.6g}, error estimate {err[i]:.3g})"
    )


def fixed_point_oracle(params: AsymptoticParams) -> float:
    """Independent quadrature solution of the normalized-SIR fixed point.

    Solves gamma * c * Int tau dH(tau)/(1 + tau gamma) = 1 directly; the
    integral is strictly increasing in gamma from 0 to c * nu, so a unique
    root exists exactly when c * nu > 1.  At the root the integral is 1 and
    its complement c nu - 1; the defect integrates whichever is smaller, so
    the quadrature's error, relative to that integral, stays below the part
    of the defect that moves with gamma: next to c nu = 1 it is
    c nu - 1 minus the complement, which never subtracts two numbers near
    one, and elsewhere the integral minus 1, whose error does not grow
    with c nu.  All evaluations of the search share one dict of grids.
    """
    grids = {}
    excess = params.c * params.nu - 1.0
    if excess < 1.0:
        return _solve_root(lambda g: excess - _activity_integral(
            g, params, complement=True, grids=grids), params)
    return _solve_root(lambda g: _activity_integral(g, params, grids=grids) - 1.0, params)


# ---------------------------------------------------------------------------
# rate predictions
# ---------------------------------------------------------------------------

def rate_approx(n_branches: float, rho: float, alpha: float, r_t: float) -> float:
    """Large-system mean-rate approximation, bits/symbol.

    log2(1 + [N alpha sin(2 pi/alpha) / (2 pi^2 rho r_T^2)]^(alpha/2)); equals
    log2(1 + N^(alpha/2) r_T^(-alpha) beta_large_c(rho, alpha)) identically.
    Depends on the activation model only through the active density rho.
    """
    if min(n_branches, rho, r_t) <= 0:
        raise ValueError("n_branches, rho and r_t must be positive")
    if not alpha > 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    arg = (
        n_branches * alpha * math.sin(2.0 * math.pi / alpha)
        / (2.0 * math.pi ** 2 * rho * r_t ** 2)
    )
    return math.log2(1.0 + arg ** (alpha / 2.0))


def cell_edge_rate(
    n_branches: float,
    kappa: float,
    alpha: float,
    rho_p: float,
    rho_c: float,
    power_control: bool = False,
) -> float:
    """Mean rate of a cell-edge uplink user in a hexagonal reuse-kappa network.

    The link length equals the cell circumradius, so rho_c = 2/(3 sqrt(3) r_T^2).
    Without power control the bracket coefficient is 3 sqrt(3)/4; transmitting
    at r_b^alpha to invert the path loss to the serving base station raises it
    to 9 sqrt(3)/5 (a 12/5 ratio of bracket arguments).
    """
    if min(n_branches, kappa, rho_p, rho_c) <= 0:
        raise ValueError("all parameters must be positive")
    if not alpha > 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    coeff = 9.0 * math.sqrt(3.0) / 5.0 if power_control else 3.0 * math.sqrt(3.0) / 4.0
    arg = (
        coeff * n_branches * kappa * alpha * math.sin(2.0 * math.pi / alpha)
        / (math.pi ** 2 * -math.expm1(-rho_p / rho_c))
    )
    return math.log2(1.0 + arg ** (alpha / 2.0))


def optimal_reuse(alpha: float, n_branches: float, rho_p: float, rho_c: float) -> float:
    """Reuse factor (relaxed to the reals) maximizing reuse-normalized rate.

    Stationarity of (1/kappa) log2(1 + (A kappa)^(alpha/2)) gives kappa* in
    terms of the principal Lambert W branch at -(alpha/2) e^(-alpha/2), which
    stays above -1/e for every alpha > 2.  Monotonically decreasing in both
    alpha and N.
    """
    if min(n_branches, rho_p, rho_c) <= 0:
        raise ValueError("all parameters must be positive")
    if not alpha > 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    w = lambert_w0(-(alpha / 2.0) * math.exp(-alpha / 2.0))
    return (
        (-(w + alpha) / w) ** (2.0 / alpha)
        * 5.0 * math.pi ** 2 * -math.expm1(-rho_p / rho_c)
        / (9.0 * math.sqrt(3.0) * n_branches * alpha * math.sin(2.0 * math.pi / alpha))
    )


def limiting_edf(x, params: AsymptoticParams):
    """Limiting distribution H(x) of the scaled received powers.

    An atom of mass 1 - nu at zero (silenced nodes), constant up to the
    support point x0 = (pi rho_p / c)^(alpha/2), then the Pareto-type tail
    1 - (pi rho / c) x^(-2/alpha).  Continuous at x0 and tending to 1.
    """
    x_arr = np.asarray(x, dtype=float)
    x0 = params.support_point
    out = np.full(x_arr.shape, 1.0 - params.nu)
    out[x_arr < 0] = 0.0
    tail = x_arr > x0
    out[tail] = 1.0 - (math.pi * params.rho / params.c) * x_arr[tail] ** (
        -2.0 / params.alpha
    )
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out
