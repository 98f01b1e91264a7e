"""Large-system limits of the normalized MMSE output SIR.

For a receiver with N diversity branches in a disk network whose active
co-channel interferers have limiting density ``rho``, the normalized SIR
``beta_N = N^{-alpha/2} r_T^alpha SIR`` converges to a deterministic value
``beta``.  This module provides:

* the defining fixed-point equation for ``beta`` and a solver built on its
  Gauss hypergeometric closed form (``solve_beta_fixed_point``),
* an independent quadrature oracle for the same fixed point that never
  touches the hypergeometric code path (``fixed_point_oracle``); the two
  share only the root finder (a bracket expansion, then scipy's ``brentq``),
* the closed-form value of ``beta`` in the many-interferers-per-branch
  limit (``beta_large_c``) and the rate predictions built on it,
* cell-edge rate expressions with and without distance-proportional power
  control, and the reuse factor maximizing reuse-normalized rate,
* the limiting distribution of scaled received powers (``limiting_edf``).

scipy evaluates the special functions: ``gauss_2f1`` and ``lambert_w0``
are validating wrappers over ``scipy.special.hyp2f1`` and
``scipy.special.lambertw``, and ``fixed_point_equation`` also calls
``scipy.special.betaincc``.  scipy is imported on first use, by the five
functions that call it (``gauss_2f1``, ``lambert_w0``,
``fixed_point_equation``, ``_solve_root`` and ``_activity_integral``), so
importing this module, and every simulation path that uses only the
closed-form rate predictions, needs numpy alone.
All functions are pure; none hold state but that import.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import warnings
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
def _scipy(name: str):
    """The module scipy.<name>, imported on first use.

    Cached, because an import statement in a function pays a package
    lookup on every call (about 0.7 us on CPython 3.11) even when the
    module is loaded, and the fixed-point solvers call gauss_2f1 dozens of
    times per solve.  scipy itself is imported first, so that a missing
    scipy always raises ModuleNotFoundError with name "scipy", which the
    command line reports without a traceback.
    """
    importlib.import_module("scipy")
    return importlib.import_module(f"scipy.{name}")


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
    return float(_scipy("special").hyp2f1(a, b, c, z))


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
    return float(_scipy("special").lambertw(z).real)


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
        share = float(_scipy("special").betaincc(1.0 - d, d, xb / (1.0 + xb)))
        return (beta / beta_large_c(params.rho, params.alpha)) ** d * share - 1.0
    return params.c * params.nu * gauss_2f1(1.0, d, 1.0 + d, -1.0 / xb) - 1.0


def _solve_root(func, params: AsymptoticParams) -> float:
    """The root in beta of an increasing fixed-point defect.

    Both fixed points share this path: expand [b/10, 10 b] geometrically
    around the large-c value b until func changes sign, then Brent's method
    to machine relative precision (brentq's default rtol, 4 eps, is its
    floor; the negligible xtol keeps the stopping rule relative at every
    scale of beta).  A Brent search that does not converge raises
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
    lo, hi = center / 10.0, center * 10.0
    for _ in range(_MAX_EXPAND):
        ends = {lo: func(lo), hi: func(hi)}
        if ends[lo] * ends[hi] <= 0.0:  # brentq reuses the two known end values
            root, result = _scipy("optimize").brentq(
                lambda x: ends[x] if x in ends else func(x), lo, hi, xtol=sys.float_info.min,
                full_output=True, disp=False,
            )
            if not result.converged:
                raise FloatingPointError(f"root search in [{lo:.3g}, {hi:.3g}] stopped: "
                                         f"{result.flag} after {result.iterations} steps")
            return root
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


def _activity_integral(gamma: float, params: AsymptoticParams) -> float:
    """gamma * c * Int tau dH(tau) / (1 + tau gamma) by adaptive quadrature.

    H is the limiting distribution of scaled received powers: an atom of
    mass 1 - nu at zero (which contributes nothing) and density
    (2 pi rho / (alpha c)) tau^(-2/alpha - 1) above the support point.  The
    substitution u = tau^(-2/alpha) compactifies the tail exactly, leaving

        gamma * pi * rho * Int_0^{c/(pi rho_p)} du / (u^(alpha/2) + gamma),

    a smooth, bounded integrand handled piecewise by scipy's adaptive rule.
    A piece it cannot integrate to 1e-8 raises FloatingPointError.  This
    path never calls the hypergeometric code.
    """
    alpha = params.alpha
    u0 = params.c / (math.pi * params.rho_p)
    p = alpha / 2.0

    def integrand(u):
        return 1.0 / (u ** p + gamma)

    # integrate decade by decade so the adaptive rule never sees a span of
    # more than one order of magnitude; the decades start at the knee
    # u^(alpha/2) = gamma when it lies below 1, and a knee that underflows to
    # 0 (gamma = 0) would never grow
    knee = gamma ** (2.0 / alpha)
    cut = min(1.0, u0, knee) if knee > 0.0 else min(1.0, u0)
    edges = [0.0, cut]
    while edges[-1] < u0:
        edges.append(min(edges[-1] * 10.0, u0))
    quad = _scipy("integrate").quad
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            continue
        val, err = quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)
        if not math.isfinite(val) or val < 0.0 or err > 1e-8 * max(abs(val), 1e-300):
            raise FloatingPointError(
                f"quadrature did not converge on [{a:.3g}, {b:.3g}] "
                f"(value {val:.6g}, error estimate {err:.3g})"
            )
        total += val
    return gamma * math.pi * params.rho * total


def fixed_point_oracle(params: AsymptoticParams) -> float:
    """Independent quadrature solution of the normalized-SIR fixed point.

    Solves gamma * c * Int tau dH(tau)/(1 + tau gamma) = 1 directly; the
    integral is strictly increasing in gamma from 0 to c * nu, so a unique
    root exists exactly when c * nu > 1.  scipy's IntegrationWarning is
    ignored: _activity_integral's own error gate decides convergence.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _scipy("integrate").IntegrationWarning)
        return _solve_root(lambda g: _activity_integral(g, params) - 1.0, params)


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
