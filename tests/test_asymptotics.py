"""Tests for the closed-form/fixed-point layer.

Expected values marked as frozen were computed offline with mpmath at 30
significant digits from the defining formulas and integrals.  gauss_2f1 and
lambert_w0 wrap scipy.special, so they are checked against frozen values
rather than against scipy itself.  The root finder and the oracle's
quadrature are the package's own, so scipy.optimize.brentq and
scipy.integrate.quad serve as their reference implementations.
"""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize

from mmsenet import asymptotics
from mmsenet.asymptotics import (
    AsymptoticParams,
    NoBracket,
    beta_large_c,
    cell_edge_rate,
    fixed_point_equation,
    fixed_point_oracle,
    gauss_2f1,
    lambert_w0,
    limiting_edf,
    optimal_reuse,
    rate_approx,
    solve_beta_fixed_point,
)

# grid used throughout: every activation fraction / branch-ratio regime the
# simulator ships with
ALPHAS = [2.5, 3.0, 4.0, 6.0]
NUS = [0.3, 0.6, 1.0]
CS = [5.0, 50.0, 500.0]


# 2F1(a, a; a + 1; z) with a = 1 - 2/alpha at each z of FROZEN_2F1_Z, by
# alpha; mpmath 30 digits at the same double arguments
FROZEN_2F1_Z = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999)
FROZEN_2F1 = {
    2.5: [1.0, 1.00344828401534067, 1.01116456703053929, 1.02040433962664874,
          1.03218859802170618, 1.04972920903828357, 1.06479531854988514,
          1.06882296448504018],
    3.0: [1.0, 1.00866926990118482, 1.0284380885645273, 1.05285157424912892,
          1.0853724175506476, 1.13770823297767488, 1.1899090784568285,
          1.20816260351309857],
    4.0: [1.0, 1.01746459031529253, 1.05827253674546194, 1.11072073453959156,
          1.18465870843277871, 1.31660984752758605, 1.47803766237477476,
          1.56087420578220948],
    6.0: [1.0, 1.02815234966470432, 1.09560763696019255, 1.18594963683666679,
          1.32102162687672416, 1.58987517614274029, 2.00051083262010812,
          2.32572165270685832],
}


# 2F1(1, d; 1 + d; z) with d = 2/alpha, the fixed point's term, at each z of
# FIXED_POINT_2F1_Z, by alpha; mpmath 50 digits at the same double arguments
FIXED_POINT_2F1_Z = (-0.5, -1.0, -10.0, -1e6, -1e12)
FIXED_POINT_2F1 = {
    2.5: [0.830279173894178443, 0.722583037855225894, 0.284000814900694555,
          6.37674554061776857e-5, 1.07004177687068214e-9],
    3.0: [0.846115681580537231, 0.747101455782848368, 0.325761165370603943,
          2.39839915731228855e-4, 2.41819915231229269e-8],
    4.0: [0.870419751367103197, 0.78539816339744831, 0.399876005055766137,
          1.56979632712822975e-3, 1.57079532679489662e-6],
    6.0: [0.901644258527509676, 0.83564884826472106, 0.513144155875955936,
          1.2091495761761455e-2, 1.20919957115614583e-4],
}

# roots of c nu 2F1(1, d; 1 + d; -1/(x0 beta)) = 1 at rho_p 0.01, by
# (alpha, nu, c); mpmath 50 digits at the same double arguments
FROZEN_ROOTS = {
    (2.5, 0.3, 5.0): 418.48989824460044301, (2.5, 0.3, 50.0): 98.776437958931540702,
    (2.5, 0.3, 500.0): 72.782897512541692346, (2.5, 0.6, 5.0): 76.510021174768962285,
    (2.5, 0.6, 50.0): 36.640952518441634888, (2.5, 0.6, 500.0): 29.105697970284424775,
    (2.5, 1.0, 5.0): 30.570212133935664931, (2.5, 1.0, 50.0): 18.039820101520396,
    (2.5, 1.0, 500.0): 14.912487613370868557, (3.0, 0.3, 5.0): 1271.9054407685473793,
    (3.0, 0.3, 50.0): 369.90818683102056725, (3.0, 0.3, 500.0): 311.09866870048688578,
    (3.0, 0.6, 5.0): 210.65769170131264328, (3.0, 0.6, 50.0): 120.82466424901994615,
    (3.0, 0.6, 500.0): 107.74577112027130649, (3.0, 1.0, 5.0): 77.683460210349807721,
    (3.0, 1.0, 50.0): 53.96506548464915104, (3.0, 1.0, 500.0): 49.528781917212935284,
    (4.0, 0.3, 5.0): 12029.379063511100179, (4.0, 0.3, 50.0): 4827.0611921299785497,
    (4.0, 0.3, 500.0): 4587.4821214414545753, (4.0, 0.6, 5.0): 1605.0709237986189272,
    (4.0, 0.6, 50.0): 1172.5611323495806802, (4.0, 0.6, 500.0): 1143.7570986768051791,
    (4.0, 1.0, 5.0): 494.0770323789214946, (4.0, 1.0, 50.0): 417.433980404150738,
    (4.0, 1.0, 500.0): 411.30634523465439934, (6.0, 0.3, 5.0): 1145630.0387173465623,
    (6.0, 0.3, 50.0): 678164.8638400135701, (6.0, 0.3, 500.0): 675630.17081711125286,
    (6.0, 0.6, 5.0): 93487.072925696150084, (6.0, 0.6, 50.0): 84530.294536918532734,
    (6.0, 0.6, 500.0): 84451.382958128439612, (6.0, 1.0, 5.0): 18888.638174874628956,
    (6.0, 1.0, 50.0): 18247.519883195529171, (6.0, 1.0, 500.0): 18241.38866678677101,
}

# the same roots next to c nu = 1 (nu 1) and at alpha just above 2, with the
# tolerance each must meet: rounding c nu - 1 alone leaves about
# 1e-16 / (c nu - 1)
FROZEN_EDGE_ROOTS = [
    (2.2, 1.0 + 1e-6, 21424769.53029152333118, 1e-9),
    (2.2, 1.0 + 1e-8, 2142475434.740518733665, 1e-7),
    (2.2, 1.0 + 1e-9, 21424752305.31096382145, 1e-6),
    (4.0, 1.0 + 1e-6, 337737684.1203174269842, 1e-9),
    (4.0, 1.0 + 1e-8, 33773728491.32284239181, 1e-7),
    (4.0, 1.0 + 1e-9, 337737251268.5718553524, 1e-6),
    (6.0, 1.0 + 1e-6, 8062897431.051930733445, 1e-9),
    (6.0, 1.0 + 1e-8, 806288379552.2675275018, 1e-7),
    (6.0, 1.0 + 1e-9, 8062882954996.032105833, 1e-6),
    (2.0000001, 50.0, 5.637182039619734636345, 1e-7),
]


# a root at large c (rho_p 0.01, nu 1), by (alpha, c); mpmath 60 digits,
# from the alpha = 4 closed form pi rho sqrt(g) atan(c / (pi rho_p sqrt(g))) = 1
# of the activity integral
LARGE_C_ROOTS = [(4.0, 1e10, 410.63929022065855762)]

# roots where x0 = (pi rho_p / c)^(alpha/2) underflows to 0 or to a
# subnormal (rho_p 0.01, nu 1), by (alpha, c); mpmath 50 digits at the same
# double arguments
UNDERFLOWING_SUPPORT = [
    (4.0, 1e200, 410.63929018737339047),
    (300.0, 50.0, 2.6470153167442784388e225),
    (100.0, 5e4, 1.3434353410402833247e75),
]


def params(alpha=4.0, nu=1.0, c=50.0, rho_p=0.01):
    return AsymptoticParams(rho_p=rho_p, c=c, alpha=alpha, nu=nu)


def spy_brent(monkeypatch):
    """Record (defect, a, b, root) of every search of the package's root finder."""
    searches = []
    brent = asymptotics._brent

    def spy(func, a, b, fa, fb):
        root = brent(func, a, b, fa, fb)
        searches.append((func, a, b, root))
        return root

    monkeypatch.setattr(asymptotics, "_brent", spy)
    return searches


def quad_activity(gamma, p, complement=False):
    """The activity integral gamma pi rho Int_0^u0 du / (u^(alpha/2) + gamma),
    or its complement pi rho Int_0^u0 u^(alpha/2) du / (u^(alpha/2) + gamma),
    by scipy's adaptive quadrature decade by decade from 1 (or u0)."""
    half = p.alpha / 2.0
    u0 = p.c / (math.pi * p.rho_p)
    edges = [0.0, min(1.0, u0)]
    while edges[-1] < u0:
        edges.append(min(edges[-1] * 10.0, u0))
    if complement:
        def integrand(u):
            return u ** half / (u ** half + gamma)
    else:
        def integrand(u):
            return gamma / (u ** half + gamma)
    pieces = [integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
              for a, b in zip(edges, edges[1:])]
    return math.pi * p.rho * math.fsum(pieces)


# ---------------------------------------------------------------------------
# Gauss hypergeometric
# ---------------------------------------------------------------------------

class TestGauss2F1:
    def test_empty_series_at_zero(self):
        assert gauss_2f1(0.5, 0.5, 1.5, 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1,1;2;z) = -ln(1-z)/z
        assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(
            1.3862943611198906, rel=1e-14
        )

    def test_gauss_summation_at_one(self):
        # arcsin kernel: 2F1(1/2,1/2;3/2;1) = pi/2
        assert gauss_2f1(0.5, 0.5, 1.5, 1.0) == pytest.approx(
            math.pi / 2.0, rel=1e-14
        )

    def test_divergent_at_one_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)

    def test_nonpositive_integer_c_rejected(self):
        with pytest.raises(ValueError, match="nonpositive integer"):
            gauss_2f1(0.5, 0.5, -1.0, 0.3)

    @pytest.mark.parametrize("z", [1.5, math.nan, -math.inf])
    def test_z_outside_range_rejected(self, z):
        with pytest.raises(ValueError, match="outside the supported range"):
            gauss_2f1(0.5, 0.5, 1.5, z)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("z", FROZEN_2F1_Z)
    def test_frozen_on_used_family(self, alpha, z):
        a = 1.0 - 2.0 / alpha
        ref = FROZEN_2F1[alpha][FROZEN_2F1_Z.index(z)]
        assert gauss_2f1(a, a, a + 1.0, z) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("z", FIXED_POINT_2F1_Z)
    def test_frozen_on_fixed_point_family(self, alpha, z):
        d = 2.0 / alpha
        ref = FIXED_POINT_2F1[alpha][FIXED_POINT_2F1_Z.index(z)]
        assert gauss_2f1(1.0, d, 1.0 + d, z) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("z", [0.0, 0.1, 0.25, 0.4, 0.45])
    def test_pfaff_transform_roundtrip(self, alpha, z):
        # 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)) on the family the
        # fixed point uses; both sides stay inside the series region here.
        a = b = 1.0 - 2.0 / alpha
        c = 2.0 - 2.0 / alpha
        lhs = gauss_2f1(a, b, c, z)
        rhs = (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1.0)) if z else lhs
        assert lhs == pytest.approx(rhs, rel=1e-10)


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

class TestLambertW0:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_e(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-15)

    def test_branch_point(self):
        # the double nearest -1/e lies below the true branch point
        assert lambert_w0(-math.exp(-1.0)) == -1.0

    def test_one_ulp_above_branch_point(self):
        w = lambert_w0(math.nextafter(-math.exp(-1.0), 0.0))
        assert math.isfinite(w) and -1.0 <= w < -0.9999999

    def test_domain_error(self):
        with pytest.raises(ValueError, match="domain"):
            lambert_w0(-0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            lambert_w0(math.nan)

    @pytest.mark.parametrize(
        "z",
        [-0.367, -0.3, -0.1, -1e-3, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e8],
    )
    def test_roundtrip_residual(self, z):
        w = lambert_w0(z)
        assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))
        assert w >= -1.0

    @pytest.mark.parametrize(
        "z,ref",
        [
            # mpmath 30 digits
            (-0.35, -0.71663881645607369),
            (-0.05, -0.052705983551546351),
            (0.7, 0.447470259269654987),
            (3.0, 1.04990889496403996),
            (50.0, 2.86089017798221087),
        ],
    )
    def test_frozen_values(self, z, ref):
        assert lambert_w0(z) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# fixed point and oracle
# ---------------------------------------------------------------------------

class TestFixedPoint:
    def test_large_c_closed_form_frozen(self):
        # [alpha sin(2pi/alpha)/(2 pi^2 rho)]^(alpha/2), mpmath 30 digits
        assert beta_large_c(0.01, 4.0) == pytest.approx(410.639290187373408, rel=1e-13)
        assert beta_large_c(0.02, 4.0) == pytest.approx(102.659822546843352, rel=1e-13)

    def test_large_c_density_scaling(self):
        # beta scales as rho^(-alpha/2)
        for alpha in ALPHAS:
            ratio = beta_large_c(0.01, alpha) / beta_large_c(0.02, alpha)
            assert ratio == pytest.approx(2.0 ** (alpha / 2.0), rel=1e-12)

    def test_solver_residual_and_frozen_value(self):
        sol = solve_beta_fixed_point(params(alpha=4.0, nu=1.0, c=50.0))
        assert sol.residual < 1e-10
        # mpmath root of the corrected closed form == quadrature root
        assert sol.beta == pytest.approx(417.433980404150755, rel=1e-11)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("nu", NUS)
    @pytest.mark.parametrize("c", CS)
    def test_solver_matches_oracle(self, alpha, nu, c):
        p = params(alpha=alpha, nu=nu, c=c)
        sol = solve_beta_fixed_point(p)
        ora = fixed_point_oracle(p)
        assert sol.beta == pytest.approx(ora, rel=1e-6)

    def test_oracle_frozen_values(self):
        # mpmath quadrature of the limit integral, 30 digits
        assert fixed_point_oracle(params(4.0, 0.6, 50.0)) == pytest.approx(
            1172.56113235, rel=1e-9
        )
        assert fixed_point_oracle(params(3.0, 0.6, 5.0)) == pytest.approx(
            210.657691701, rel=1e-9
        )

    @pytest.mark.parametrize(
        "solve,defect",
        [
            (solve_beta_fixed_point, "fixed_point_equation"),
            (fixed_point_oracle, "_activity_integral"),
        ],
    )
    def test_bracket_ends_evaluated_once(self, monkeypatch, solve, defect):
        # the sign-change test evaluates both ends of the final bracket, and
        # the root finder reuses those two values rather than evaluating them
        # again
        calls = []
        inner = getattr(asymptotics, defect)

        def counted(x, p, **kwargs):
            calls.append(x)
            return inner(x, p, **kwargs)

        monkeypatch.setattr(asymptotics, defect, counted)
        brackets = spy_brent(monkeypatch)
        solve(params(alpha=4.0, nu=0.6, c=50.0))
        ((_, lo, hi, _),) = brackets
        assert (calls.count(lo), calls.count(hi)) == (1, 1)

    @pytest.mark.parametrize("c,expansions,rel", [(1.01, 1, 1e-9), (1.001, 2, 1e-8)])
    def test_bracket_expands_near_unit_c(self, monkeypatch, c, expansions, rel):
        # the root is 83x (c = 1.01) and 823x (c = 1.001) the large-c value b,
        # outside the first bracket [b/10, 10 b]
        brackets = spy_brent(monkeypatch)
        p = params(alpha=4.0, nu=1.0, c=c)
        assert solve_beta_fixed_point(p).beta == pytest.approx(fixed_point_oracle(p), rel=rel)
        width = 10.0 ** (expansions + 1)
        center = beta_large_c(p.rho, p.alpha)
        for _, lo, hi, _ in brackets:
            assert (lo, hi) == pytest.approx((center / width, center * width), rel=1e-12)
        assert len(brackets) == 2

    def test_oracle_frozen_next_to_unit_c(self):
        # c = 1 + 1e-8 (the nearest double), next to the c * nu = 1 edge of
        # the regime (see test_solver_frozen_at_edges); mpmath 60 digits, from the alpha = 4
        # closed form pi rho sqrt(g) atan(c / (pi rho_p sqrt(g))) = 1 of the
        # activity integral
        assert fixed_point_oracle(params(alpha=4.0, nu=1.0, c=1.0 + 1e-8)) == pytest.approx(
            33773728491.3228438, rel=1e-8
        )

    @pytest.mark.parametrize("alpha,nu,c", sorted(FROZEN_ROOTS))
    def test_solver_frozen_on_grid(self, alpha, nu, c):
        beta = solve_beta_fixed_point(params(alpha=alpha, nu=nu, c=c)).beta
        assert beta == pytest.approx(FROZEN_ROOTS[alpha, nu, c], rel=1e-13)

    @pytest.mark.parametrize("alpha,c,root,rel", FROZEN_EDGE_ROOTS)
    def test_solver_frozen_at_edges(self, alpha, c, root, rel):
        sol = solve_beta_fixed_point(params(alpha=alpha, nu=1.0, c=c))
        assert sol.beta == pytest.approx(root, rel=rel)
        assert sol.residual <= 1e-10

    @pytest.mark.parametrize("alpha,c,root", [case[:3] for case in FROZEN_EDGE_ROOTS])
    def test_oracle_frozen_at_edges(self, alpha, c, root):
        # the oracle takes c nu - 1 as it is rounded, as the frozen roots do,
        # and next to c nu = 1 integrates the complement, c nu - 1 at the
        # root, so it meets these to rounding; the integral minus 1 would
        # lose 1e-12 / (c nu - 1)
        assert fixed_point_oracle(params(alpha=alpha, c=c)) == pytest.approx(root, rel=1e-12)

    @pytest.mark.parametrize("alpha,c,root", UNDERFLOWING_SUPPORT)
    def test_solver_where_support_point_underflows(self, alpha, c, root):
        assert params(alpha=alpha, c=c).support_point < sys.float_info.min
        assert solve_beta_fixed_point(params(alpha=alpha, c=c)).beta == pytest.approx(
            root, rel=1e-12
        )

    def test_activity_integral_at_zero_gamma(self):
        # the knee gamma^(2/alpha) is 0 at gamma = 0, so the decades must
        # start at 1 to end at all; the integral's integrand is then 0
        # everywhere and the complement's 1, their gamma -> 0 limits
        p = params()
        assert asymptotics._activity_integral(0.0, p) == 0.0
        complement = asymptotics._activity_integral(0.0, p, complement=True)
        assert complement == pytest.approx(p.c * p.nu, rel=8 * sys.float_info.epsilon)

    @pytest.mark.parametrize("alpha,c,root", [*LARGE_C_ROOTS, *UNDERFLOWING_SUPPORT])
    def test_oracle_frozen_at_large_c(self, alpha, c, root):
        # the integral is 1 at the root however large c nu grows, while its
        # complement is c nu - 1; a defect taken from the complement loses
        # the part that moves with gamma to rounding from c about 1e10 on
        assert fixed_point_oracle(params(alpha=alpha, c=c)) == pytest.approx(root, rel=1e-9)

    def test_solvers_refuse_an_underflowing_large_c_value(self):
        # beta_large_c underflows to 0 at rho_p 1e300, alpha 4; no bracket
        # can grow from it
        p = params(rho_p=1e300)
        for solve in (solve_beta_fixed_point, fixed_point_oracle):
            with pytest.raises(FloatingPointError, match="underflows to 0"):
                solve(p)

    @pytest.mark.parametrize("nu", [0.6, 0.8])
    def test_solvers_refuse_a_subnormal_large_c_value(self, nu):
        # at alpha 100, rho_p 1e6 beta_large_c is a subnormal of few digits;
        # the fixed point and the oracle refuse it alike, naming it
        p = params(alpha=100.0, nu=nu, rho_p=1e6)
        assert 0.0 < beta_large_c(p.rho, p.alpha) < sys.float_info.min
        for solve in (solve_beta_fixed_point, fixed_point_oracle):
            with pytest.raises(FloatingPointError, match="underflows to the subnormal"):
                solve(p)

    def test_large_c_value_overflow_names_it(self):
        with pytest.raises(OverflowError, match="large-c value of beta overflows the float "
                                                "range at rho = 1e-06, alpha = 300$"):
            beta_large_c(1e-6, 300.0)

    @pytest.mark.parametrize(
        "p,gamma,piece",
        [
            # u0 = c / (pi rho_p) overflows: the last decade ends at inf
            (params(c=1e308), 1.0, "[1e+308, inf]"),
            (params(rho_p=5e-324), 1.0, "[1e+308, inf]"),
            # a NaN integrand fails the first piece
            (params(), math.nan, "[0, 0.0001]"),
        ],
        ids=["c-1e308", "rho_p-5e-324", "nan"],
    )
    def test_quadrature_names_a_non_finite_piece(self, p, gamma, piece):
        for complement in (False, True):
            with pytest.raises(FloatingPointError,
                               match=f"did not converge on {re.escape(piece)}"):
                asymptotics._activity_integral(gamma, p, complement=complement)

    def test_no_thinning_equals_unit_nu(self):
        p1 = params(alpha=4.0, nu=1.0, c=50.0)
        assert fixed_point_oracle(p1) == pytest.approx(
            solve_beta_fixed_point(p1).beta, rel=1e-9
        )

    def test_oracle_decreasing_in_rho(self):
        betas = [
            fixed_point_oracle(params(alpha=4.0, nu=nu, c=50.0))
            for nu in (0.3, 0.45, 0.6, 0.8, 1.0)
        ]
        assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))

    def test_large_c_limit_of_solver(self):
        p = params(alpha=4.0, nu=1.0, c=1e6)
        sol = solve_beta_fixed_point(p)
        assert sol.beta == pytest.approx(beta_large_c(p.rho, p.alpha), rel=5e-3)

    def test_unique_sign_change_probe(self):
        for alpha in ALPHAS:
            p = params(alpha=alpha, nu=0.6, c=50.0)
            sol = solve_beta_fixed_point(p)
            grid = np.geomspace(sol.beta / 100.0, sol.beta * 100.0, 64)
            signs = np.sign([fixed_point_equation(b, p) for b in grid])
            changes = int(np.sum(signs[:-1] != signs[1:]))
            assert changes == 1

    def test_no_bracket_when_regime_invalid(self):
        p = params(alpha=4.0, nu=0.3, c=2.0)  # c * nu = 0.6 < 1
        with pytest.raises(NoBracket):
            solve_beta_fixed_point(p)

    def test_constructs_silently_and_solvers_raise_below_the_regime(self):
        # the constructor accepts c * nu <= 1 without a warning; the solvers
        # report the regime, once, through NoBracket
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            p = params(alpha=4.0, nu=0.3, c=2.0)
        assert record == []
        with pytest.raises(NoBracket, match="^c \\* nu = 0.6 <= 1: "):
            solve_beta_fixed_point(p)

    def test_solution_rate_predictor(self):
        p = params(alpha=4.0, nu=1.0, c=50.0)
        sol = solve_beta_fixed_point(p)
        r_t = 5.0
        expect = math.log2(1.0 + 8.0 ** 2 * r_t ** -4.0 * sol.beta)
        assert sol.rate(8, r_t) == pytest.approx(expect, rel=1e-14)


class TestOracleGrids:
    """fixed_point_oracle builds the quadrature grids once per root search;
    the reuse must not show in any value, nor outlive the search."""

    def test_reused_grids_change_no_value(self, monkeypatch):
        # one search after another, as the asymptote grid runs them: each
        # search's defects, evaluated on its own dict of grids, equal the
        # integral taken afresh at the same gamma (the edge roots take the
        # complement path)
        cases = [
            *(params(alpha, nu, c) for alpha, nu, c in sorted(FROZEN_ROOTS)),
            *(params(alpha=alpha, c=c) for alpha, c, _, _ in FROZEN_EDGE_ROOTS),
            *(params(alpha=alpha, c=c) for alpha, c, _ in [*LARGE_C_ROOTS, *UNDERFLOWING_SUPPORT]),
        ]
        inner = asymptotics._activity_integral
        visits = []

        def spy(gamma, p, complement=False, grids=None):
            value = inner(gamma, p, complement=complement, grids=grids)
            visits.append((gamma, p, complement, grids, value))
            return value

        monkeypatch.setattr(asymptotics, "_activity_integral", spy)
        searches = []
        for p in cases:
            visits.clear()
            fixed_point_oracle(p)
            searches.append(list(visits))
        monkeypatch.undo()
        for search in searches:
            for gamma, p, complement, _, value in search:
                assert inner(gamma, p, complement=complement) == value, (p, gamma)
        assert {complement for search in searches for _, _, complement, _, _ in search} == {
            False, True}
        # one dict per search, shared by all its evaluations (the spy keeps
        # every dict alive, so no two share an id by reuse)
        dicts = [{id(grids) for *_, grids, _ in search} for search in searches]
        assert all(len(ids) == 1 for ids in dicts)
        assert len(set.union(*dicts)) == len(cases)

    def test_no_state_outlives_a_search(self):
        a, b = params(4.0, 0.6, 50.0), params(2.5, 1.0, 500.0)
        names = set(vars(asymptotics))
        first = fixed_point_oracle(a)
        assert fixed_point_oracle(b) == pytest.approx(FROZEN_ROOTS[2.5, 1.0, 500.0], rel=1e-9)
        assert fixed_point_oracle(a) == first
        assert set(vars(asymptotics)) == names


ROOT_CASES = [
    *(pytest.param(params(alpha, nu, c), id=f"grid-{alpha}-{nu}-{c}")
      for alpha, nu, c in sorted(FROZEN_ROOTS)),
    *(pytest.param(params(alpha=alpha, c=c), id=f"edge-{alpha}-{c}")
      for alpha, c, _, _ in FROZEN_EDGE_ROOTS),
    *(pytest.param(params(alpha=alpha, c=c), id=f"underflow-{alpha}-{c}")
      for alpha, c, _ in UNDERFLOWING_SUPPORT),
]


class TestAgainstScipy:
    """The root finder against scipy.optimize.brentq on the same defect and
    bracket, and the oracle's quadrature against scipy.integrate.quad."""

    @pytest.mark.parametrize("p", ROOT_CASES)
    def test_root_finder_matches_brentq(self, monkeypatch, p):
        searches = spy_brent(monkeypatch)
        solve_beta_fixed_point(p)
        fixed_point_oracle(p)
        assert len(searches) == 2
        for defect, a, b, root in searches:
            ref = optimize.brentq(defect, a, b, xtol=sys.float_info.min)
            assert abs(root - ref) <= 4 * sys.float_info.epsilon * abs(ref)

    @pytest.mark.parametrize(
        "defect,a,b",
        [
            # defects near the bottom of the float range: the inverse
            # quadratic step's denominator, a product of three differences,
            # underflows to 0, and the search bisects instead of dividing
            (lambda x: 1e-200 * (x ** 3 - 2.0 * x - 5.0), 2.0, 3.0),
            (lambda x: 1e-120 * (math.exp(x) - 2.0), -1.0, 3.0),
            (lambda x: 1e-300 * (math.exp(x) - 2.0), -1.0, 3.0),
            # a step, and the same defects at a scale of one
            (lambda x: -1.0 if x < 1.7 else 1.0, 0.0, 3.0),
            (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
            (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
        ],
        ids=["tiny-cubic", "tiny-exp", "subnormal-exp", "step", "cubic", "exp"],
    )
    def test_root_finder_matches_brentq_where_interpolation_degenerates(self, defect, a, b):
        root = asymptotics._brent(defect, a, b, defect(a), defect(b))
        assert root == optimize.brentq(defect, a, b, xtol=sys.float_info.min)

    def test_root_finder_bracket_end_at_a_root(self):
        # a zero end value is the root, as brentq returns it
        assert asymptotics._brent(math.sin, 0.0, 1.0, 0.0, math.sin(1.0)) == 0.0
        assert asymptotics._brent(math.sin, -1.0, 0.0, math.sin(-1.0), 0.0) == 0.0

    def test_root_finder_raises_where_brentq_stops(self):
        # a triple root at 0, where the relative tolerance is the negligible
        # xtol: 100 steps do not get there
        def cube(x):
            return x ** 3

        _, result = optimize.brentq(cube, -1.0, 2.0, xtol=sys.float_info.min,
                                    full_output=True, disp=False)
        assert not result.converged
        with pytest.raises(FloatingPointError, match="did not converge in 100 steps"):
            asymptotics._brent(cube, -1.0, 2.0, -1.0, 8.0)

    def test_root_finder_raises_on_a_nan_defect(self):
        with pytest.raises(FloatingPointError, match="is NaN"):
            asymptotics._brent(lambda x: math.nan, -1.0, 2.0, -1.0, 1.0)

    @pytest.mark.parametrize("alpha,nu,c", sorted(FROZEN_ROOTS))
    def test_activity_integral_matches_quad_on_grid(self, alpha, nu, c):
        p = params(alpha=alpha, nu=nu, c=c)
        root = FROZEN_ROOTS[alpha, nu, c]
        for gamma in (root / 10.0, root, root * 10.0):
            assert asymptotics._activity_integral(gamma, p) == pytest.approx(
                quad_activity(gamma, p), rel=1e-12
            )

    @pytest.mark.parametrize("alpha,c,root,rel", FROZEN_EDGE_ROOTS)
    def test_activity_complement_matches_quad_at_edge_roots(self, alpha, c, root, rel):
        # next to c nu = 1 the complement is c nu - 1 at the root, down to 1e-9
        p = params(alpha=alpha, c=c)
        assert asymptotics._activity_integral(root, p, complement=True) == pytest.approx(
            quad_activity(root, p, complement=True), rel=1e-13
        )


# ---------------------------------------------------------------------------
# rates, reuse, limiting distribution
# ---------------------------------------------------------------------------

class TestRateFormulas:
    def test_rate_equals_large_c_identity(self):
        for alpha in ALPHAS:
            for n in (1, 4, 16):
                lhs = rate_approx(n, 0.01, alpha, 5.6419)
                rhs = math.log2(
                    1.0 + n ** (alpha / 2.0) * 5.6419 ** -alpha * beta_large_c(0.01, alpha)
                )
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rate_depends_on_n_over_rho(self):
        r1 = rate_approx(8, 0.01, 4.0, 5.0)
        r2 = rate_approx(16, 0.02, 4.0, 5.0)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_cell_edge_coefficient_ratio(self):
        # bracket arguments of the power-controlled and plain variants
        plain = 2.0 ** (cell_edge_rate(8, 3, 4.0, 0.01, 0.001, False)) - 1.0
        pc = 2.0 ** (cell_edge_rate(8, 3, 4.0, 0.01, 0.001, True)) - 1.0
        assert math.sqrt(pc / plain) == pytest.approx(12.0 / 5.0, rel=1e-9)

    def test_cell_edge_saturation(self):
        nearly = cell_edge_rate(8, 3, 4.0, 1.0, 1e-4, False)
        exact = math.log2(
            1.0 + (3.0 * math.sqrt(3.0) / 4.0 * 8 * 3 * 4.0 / math.pi ** 2) ** 2
        )
        assert nearly == pytest.approx(exact, rel=1e-6)

    def test_power_control_always_helps(self):
        for n in (2, 8, 16):
            for kappa in (1, 3):
                assert cell_edge_rate(n, kappa, 4.0, 0.01, 0.001, True) > cell_edge_rate(
                    n, kappa, 4.0, 0.01, 0.001, False
                )

    def test_optimal_reuse_near_one(self):
        # mpmath: 1.00520751100231 at alpha=2.5, N=4, saturated occupancy
        k = optimal_reuse(2.5, 4, 1.0, 1e-4)
        assert k == pytest.approx(1.00520751100231, rel=1e-10)

    def test_optimal_reuse_monotone_in_alpha_and_n(self):
        ks_alpha = [optimal_reuse(a, 4, 1.0, 1e-4) for a in (2.5, 3.0, 4.0, 6.0)]
        assert all(a > b for a, b in zip(ks_alpha, ks_alpha[1:]))
        ks_n = [optimal_reuse(2.5, n, 1.0, 1e-4) for n in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(ks_n, ks_n[1:]))

    # rho_p / rho_c and the occupancy 1 - exp(-rho_p / rho_c)
    @pytest.mark.parametrize("lam,occupancy", [(0.7, 0.5034146962085905), (1e-20, 1e-20)])
    def test_optimal_reuse_occupancy_scaling(self, lam, occupancy):
        k_full = optimal_reuse(3.0, 4, 1.0, 1e-4)
        k_part = optimal_reuse(3.0, 4, lam, 1.0)
        assert k_part / k_full / occupancy == pytest.approx(1.0, rel=1e-9)


class TestInputGuards:
    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("rho_p", 0.0, "rho_p must be positive"),
            ("c", -1.0, "c must be positive"),
            ("alpha", 2.0, "alpha must exceed 2"),
            ("alpha", math.nan, "alpha must exceed 2"),
            ("nu", 0.0, "nu must lie in"),
            ("nu", 1.5, "nu must lie in"),
        ],
    )
    def test_params_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            AsymptoticParams(**{"rho_p": 0.01, "c": 50.0, "alpha": 4.0, field: value})

    @pytest.mark.parametrize(
        "formula,args,message",
        [
            (beta_large_c, (0.0, 4.0), "rho must be positive"),
            (beta_large_c, (0.01, 2.0), "alpha must exceed 2"),
            (rate_approx, (4, 0.01, 4.0, 0.0), "must be positive"),
            (rate_approx, (4, 0.01, 1.5, 5.0), "alpha must exceed 2"),
            (cell_edge_rate, (4, 0, 4.0, 0.01, 0.001), "must be positive"),
            (cell_edge_rate, (4, 3, 2.0, 0.01, 0.001), "alpha must exceed 2"),
            (optimal_reuse, (4.0, 4, 0.01, 0.0), "must be positive"),
            (optimal_reuse, (2.0, 4, 0.01, 0.001), "alpha must exceed 2"),
        ],
        ids=lambda v: v.__name__ if callable(v) else None,
    )
    def test_formula_inputs_rejected(self, formula, args, message):
        with pytest.raises(ValueError, match=message):
            formula(*args)


class TestLimitingEdf:
    def test_shape_and_limits(self):
        p = params(alpha=4.0, nu=0.6, c=50.0)
        x0 = p.support_point
        assert limiting_edf(-1.0, p) == 0.0
        assert limiting_edf(0.0, p) == pytest.approx(0.4)
        assert limiting_edf(x0, p) == pytest.approx(0.4)
        assert limiting_edf(x0 * (1 + 1e-12), p) == pytest.approx(0.4, abs=1e-9)
        assert limiting_edf(1e12 * x0, p) == pytest.approx(1.0, abs=1e-6)

    def test_pure_tail_when_all_active(self):
        p = params(alpha=4.0, nu=1.0, c=50.0)
        assert limiting_edf(p.support_point, p) == pytest.approx(0.0, abs=1e-15)
        xs = np.geomspace(p.support_point * 1.001, p.support_point * 1e6, 50)
        h = limiting_edf(xs, p)
        assert np.all(np.diff(h) > 0)

    def test_vectorized(self):
        p = params()
        xs = np.array([-1.0, 0.0, p.support_point * 2.0])
        out = limiting_edf(xs, p)
        assert out.shape == xs.shape
