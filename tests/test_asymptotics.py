"""Tests for the closed-form/fixed-point layer.

Expected values marked as frozen were computed offline with mpmath at 30
significant digits from the defining formulas and integrals.  gauss_2f1 and
lambert_w0 wrap scipy.special, so they are checked against frozen values
rather than against scipy itself.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy import optimize

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


def params(alpha=4.0, nu=1.0, c=50.0, rho_p=0.01):
    return AsymptoticParams(rho_p=rho_p, c=c, alpha=alpha, nu=nu)


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
        # brentq reuses those two values rather than evaluating them again
        calls = []
        inner = getattr(asymptotics, defect)

        def counted(x, p):
            calls.append(x)
            return inner(x, p)

        brackets = []
        brentq = optimize.brentq

        def spy(f, a, b, **kwargs):
            brackets.append((a, b))
            return brentq(f, a, b, **kwargs)

        monkeypatch.setattr(asymptotics, defect, counted)
        monkeypatch.setattr(optimize, "brentq", spy)
        solve(params(alpha=4.0, nu=0.6, c=50.0))
        ((lo, hi),) = brackets
        assert (calls.count(lo), calls.count(hi)) == (1, 1)

    @pytest.mark.parametrize("c,expansions,rel", [(1.01, 1, 1e-9), (1.001, 2, 1e-8)])
    def test_bracket_expands_near_unit_c(self, monkeypatch, c, expansions, rel):
        # the root is 83x (c = 1.01) and 823x (c = 1.001) the large-c value b,
        # outside the first bracket [b/10, 10 b]
        brackets = []
        brentq = optimize.brentq

        def spy(f, a, b, **kwargs):
            brackets.append((a, b))
            return brentq(f, a, b, **kwargs)

        monkeypatch.setattr(optimize, "brentq", spy)
        p = params(alpha=4.0, nu=1.0, c=c)
        assert solve_beta_fixed_point(p).beta == pytest.approx(fixed_point_oracle(p), rel=rel)
        width = 10.0 ** (expansions + 1)
        center = beta_large_c(p.rho, p.alpha)
        for lo, hi in brackets:
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

    @pytest.mark.parametrize(
        "alpha,c,root",
        [
            # x0 = (pi rho_p / c)^(alpha/2) underflows to 0 or to a subnormal;
            # mpmath 50 digits at the same double arguments
            (4.0, 1e200, 410.63929018737339047),
            (300.0, 50.0, 2.6470153167442784388e225),
            (100.0, 5e4, 1.3434353410402833247e75),
        ],
    )
    def test_solver_where_support_point_underflows(self, alpha, c, root):
        assert params(alpha=alpha, c=c).support_point < sys.float_info.min
        assert solve_beta_fixed_point(params(alpha=alpha, c=c)).beta == pytest.approx(
            root, rel=1e-12
        )

    @pytest.mark.filterwarnings("ignore:The integral is probably divergent")
    def test_activity_integral_at_zero_gamma(self):
        # the bracket reaches gamma = 0 where beta_large_c underflows (rho_p
        # 1e300 at alpha 4); the knee gamma^(2/alpha) is then 0, so the
        # decades must start at 1 to end at all, and 1/u^(alpha/2) is not
        # integrable at 0
        with pytest.raises(FloatingPointError, match="did not converge on \\[0, 1\\]"):
            asymptotics._activity_integral(0.0, params())

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

    def test_regime_warning(self):
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
