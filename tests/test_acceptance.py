"""Acceptance suite: every exit criterion at its stated tolerance.

Each check prints one PASS/FAIL line (run with -s to see them live).  The
shared master seed is fixed once for the whole suite; all runs are
deterministic and thread-count invariant.

Three sub-cases are knife-edge or unattainable as specified and are left to
fail honestly rather than loosened: the large-c tolerance at alpha=2.5 (the
finite-c correction decays like c^{-(alpha-2)/2} and is still 2.65% at
c=1e6), the HC-II N=2 mean gap at h=r_T (true value 6.05% +/- 0.43%,
measured at 16000 replications, against a 6% tolerance), and the Boolean
rate-std at N=12 (intrinsic floor ~11.4% of the asymptote for every cluster
density up to 50x the node density, against a 10% tolerance; an independent
re-implementation reproduces the floor).
"""

import json
import math
import time

import numpy as np
import pytest

from mmsenet import cli
from mmsenet.asymptotics import (
    AsymptoticParams,
    beta_large_c,
    fixed_point_oracle,
    gauss_2f1,
    lambert_w0,
    limiting_edf,
    optimal_reuse,
    solve_beta_fixed_point,
)
from mmsenet.mmse import draw_fading, edf, ks_distance, min_eigenvalue
from mmsenet.montecarlo import (
    ExperimentSpec,
    aip_statistic,
    density_estimate,
    derive_seed,
    realize_scaled_powers,
    run_experiment,
)
from mmsenet.pointproc import ModelSpec, NetworkConfig, as_generator, interference_weights

MASTER_SEED = 20250808
RHO_P = 0.01
R_T = math.sqrt(1.0 / (math.pi * RHO_P))  # pi rho_p r_T^2 = 1
ALPHAS = (2.5, 3.0, 4.0, 6.0)
NUS = (0.3, 0.6, 1.0)
CS = (5.0, 50.0, 500.0)


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def hc_config(kind: str, h_mult: float, n_branches: int = 2) -> NetworkConfig:
    return NetworkConfig(
        rho_p=RHO_P, alpha=4.0, n_branches=n_branches, c=50.0, r_t=R_T,
        model=ModelSpec(kind, h=h_mult * R_T),
    )


# ---------------------------------------------------------------------------
# 1. fixed point vs quadrature oracle
# ---------------------------------------------------------------------------

def test_criterion_1_fixed_point_vs_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in ALPHAS:
        for nu in NUS:
            for c in CS:
                p = AsymptoticParams(rho_p=RHO_P, c=c, alpha=alpha, nu=nu)
                beta = solve_beta_fixed_point(p).beta
                oracle = fixed_point_oracle(p)
                worst = max(worst, abs(beta - oracle) / oracle)
    wall = time.perf_counter() - t0
    check(
        "1 fixed-point vs oracle",
        worst < 1e-6 and wall < 10.0,
        f"worst rel diff {worst:.2e} over 36 grid points in {wall:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. large-c limit (alpha=2.5 is a documented honest failure)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", ALPHAS)
def test_criterion_2_large_c_limit(alpha):
    t0 = time.perf_counter()
    p = AsymptoticParams(rho_p=RHO_P, c=1e6, alpha=alpha, nu=1.0)
    beta = solve_beta_fixed_point(p).beta
    closed = beta_large_c(p.rho, alpha)
    rel = abs(beta - closed) / closed
    wall = time.perf_counter() - t0
    check(
        f"2 large-c alpha={alpha}",
        rel <= 5e-3 and wall < 1.0,
        f"|beta - closed form|/closed = {rel:.2e} in {wall:.2f}s"
        + (" (inherent: correction decays like c^-(alpha-2)/2)" if rel > 5e-3 else ""),
    )


# ---------------------------------------------------------------------------
# 3 + 11. HC-I figure regime through the CLI; byte-identical across threads
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hc1_csv_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("hc1")
    config = {
        "schema_version": 1,
        "network": {"rho_p": RHO_P, "alpha": 4.0, "c": 50.0, "r_T": R_T},
        "model": {"name": "hc1", "h": [0.5 * R_T, 1.0 * R_T]},
        "sweep": {"N": [2, 4, 6, 8, 12, 16]},
        "replications": 1000,
        "master_seed": MASTER_SEED,
    }
    cfg_path = tmp / "hc1.json"
    cfg_path.write_text(json.dumps(config))
    out2 = tmp / "hc1_t2.csv"
    out1 = tmp / "hc1_t1.csv"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--threads", "2"]) == 0
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out1), "--threads", "1"]) == 0
    return out2, out1, tmp


def test_criterion_3_hc1_figure(hc1_csv_runs):
    out2, _, tmp = hc1_csv_runs
    lines = out2.read_text().strip().split("\n")
    cols = cli.CSV_COLUMNS.split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
    gaps = {
        (row["model_params"], int(row["N"])): float(row["rel_gap"]) for row in rows
    }
    worst = max(gaps.values())
    # chart artifact of the run
    svg = tmp / "hc1.svg"
    assert cli.main(["plot", "--report", str(out2), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    check(
        "3 HC-I figure regime",
        len(rows) == 12 and worst <= 0.06,
        f"12 points, worst |mean-asymptote|/asymptote = {worst:.3%} (tolerance 6%)",
    )


def test_criterion_11_thread_determinism(hc1_csv_runs):
    out2, out1, _ = hc1_csv_runs
    same = out2.read_bytes() == out1.read_bytes()
    check("11 determinism across --threads", same, "CSV bytes identical for threads 1 and 2")


# ---------------------------------------------------------------------------
# 4. HC-II figure regime + scatter concentration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hc2_report():
    spec = ExperimentSpec(
        base=hc_config("hc2", 0.5),
        n_values=(2, 4, 6, 8, 12, 16),
        replications=1000,
        master_seed=MASTER_SEED,
        variants=(ModelSpec("hc2", h=0.5 * R_T), ModelSpec("hc2", h=1.0 * R_T)),
    )
    return run_experiment(spec, workers=4)


@pytest.mark.parametrize("h_mult", [0.5, 1.0])
def test_criterion_4_hc2_figure(hc2_report, h_mult):
    offset = 0 if h_mult == 0.5 else 6
    pts = hc2_report.points[offset : offset + 6]
    gaps = {p.n_branches: p.rel_gap for p in pts}
    worst_n = max(gaps, key=gaps.get)
    check(
        f"4 HC-II figure regime h={h_mult}r_T",
        max(gaps.values()) <= 0.06,
        f"worst gap {gaps[worst_n]:.3%} at N={worst_n} (tolerance 6%)"
        + (" (true gap 6.05% +/- 0.43%: at the tolerance boundary)" if max(gaps.values()) > 0.06 else ""),
    )


def test_criterion_4_scatter_concentration():
    spec = ExperimentSpec(
        base=hc_config("hc2", 1.0),
        n_values=(4, 16),
        replications=100,
        master_seed=MASTER_SEED,
    )
    rep = run_experiment(spec, workers=4)
    s4, s16 = rep.points[0].rate.std, rep.points[1].rate.std
    check(
        "4 HC-II scatter concentration",
        s16 < s4,
        f"rate std over 100 seeds: {s4:.3f} at N=4 -> {s16:.3f} at N=16",
    )


# ---------------------------------------------------------------------------
# 5. cellular uplink regime
# ---------------------------------------------------------------------------

def test_criterion_5_cellular_uplink():
    base = NetworkConfig(
        rho_p=RHO_P, alpha=4.0, n_branches=4, c=800.0, r_t=R_T,
        model=ModelSpec("cellular", rho_c=0.001, kappa=3),
    )
    spec = ExperimentSpec(
        base=base, n_values=(4, 6, 8, 10, 12, 16), replications=1000,
        master_seed=MASTER_SEED,
    )
    rep = run_experiment(spec, workers=4)
    gap_fail = [
        (p.n_branches, p.rel_gap) for p in rep.points
        if p.n_branches >= 6 and p.rel_gap > 0.03
    ]
    std_fail = [
        (p.n_branches, p.rate.std / p.asymptote_rate) for p in rep.points
        if p.n_branches >= 10 and p.rate.std / p.asymptote_rate > 0.05
    ]
    detail = "; ".join(
        f"N={p.n_branches}: gap {p.rel_gap:.3%}, std/asym "
        f"{p.rate.std / p.asymptote_rate:.3%} (sem {p.rate.sem / p.asymptote_rate:.3%})"
        for p in rep.points
    )
    check("5 cellular uplink", not gap_fail and not std_fail, detail)


# ---------------------------------------------------------------------------
# 6. cell-edge power control
# ---------------------------------------------------------------------------

def test_criterion_6_cell_edge_power_control():
    rho_c = 0.001
    d = math.sqrt(2.0 / (math.sqrt(3.0) * rho_c))
    r_edge = d / math.sqrt(3.0)  # cell circumradius

    def run(kappa, pc, n_values):
        base = NetworkConfig(
            rho_p=RHO_P, alpha=4.0, n_branches=n_values[0], c=200.0, r_t=r_edge,
            model=ModelSpec("cellular", rho_c=rho_c, kappa=kappa, power_control=pc),
        )
        spec = ExperimentSpec(
            base=base, n_values=n_values, replications=400, master_seed=MASTER_SEED
        )
        return run_experiment(spec, workers=4)

    pc3 = run(3, True, (8, 12, 16))
    pc1 = run(1, True, (8, 12, 16))
    plain3 = run(3, False, (16,))
    boost = pc3.points[2].rate.mean / plain3.points[0].rate.mean - 1.0
    reuse_ok = all(
        p1.rate.mean / 1.0 > p3.rate.mean / 3.0
        for p1, p3 in zip(pc1.points, pc3.points)
    )
    check(
        "6 cell-edge power control",
        0.25 <= boost <= 0.55 and reuse_ok,
        f"power-control boost at N=16: {boost:.1%} (window 25-55%); "
        f"reuse-normalized kappa=1 > kappa=3 at N in (8,12,16): {reuse_ok}",
    )


# ---------------------------------------------------------------------------
# 7. Boolean cluster regime
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def boolean_report():
    rho_b = 0.04
    h = math.sqrt(1.0 / (math.pi * rho_b))  # rho_b pi h^2 = 1
    base = NetworkConfig(
        rho_p=RHO_P, alpha=4.0, n_branches=4, c=50.0, r_t=R_T,
        model=ModelSpec("boolean", h=h, rho_b=rho_b),
    )
    spec = ExperimentSpec(
        base=base, n_values=(4, 6, 8, 12, 16), replications=1000,
        master_seed=MASTER_SEED,
    )
    return run_experiment(spec, workers=4)


def test_criterion_7_boolean_mean_rates(boolean_report):
    bad = []
    for p in boolean_report.points:
        if p.n_branches >= 8 and p.rel_gap > 0.03:
            bad.append((p.n_branches, p.rel_gap))
        elif p.n_branches >= 6 and p.rel_gap > 0.05:
            bad.append((p.n_branches, p.rel_gap))
    detail = " ".join(
        f"N={p.n_branches}:{p.rel_gap:.2%}" for p in boolean_report.points
    )
    check("7 Boolean mean rates", not bad, f"gaps {detail} (5% at N>=6, 3% at N>=8)")


@pytest.mark.parametrize("n_branches", [12, 16])
def test_criterion_7_boolean_std(boolean_report, n_branches):
    p = next(q for q in boolean_report.points if q.n_branches == n_branches)
    ratio = p.rate.std / p.asymptote_rate
    check(
        f"7 Boolean std N={n_branches}",
        ratio <= 0.10,
        f"rate std / asymptote = {ratio:.3%} (tolerance 10%)"
        + (" (intrinsic scatter floor ~11.4% at N=12)" if ratio > 0.10 else ""),
    )


# ---------------------------------------------------------------------------
# 8. limiting densities at 3-sigma binomial error
# ---------------------------------------------------------------------------

def test_criterion_8_limiting_densities():
    t0 = time.perf_counter()
    h_hc = math.sqrt(0.25 / (math.pi * RHO_P))  # pi rho_p h^2 = 0.25
    cases = [
        # (label, config); R >= 100 h (or ~50 lattice spacings for cellular)
        ("hc1", NetworkConfig(rho_p=RHO_P, alpha=4.0, n_branches=125, c=45.0,
                              r_t=R_T, model=ModelSpec("hc1", h=h_hc))),
        ("hc2", NetworkConfig(rho_p=RHO_P, alpha=4.0, n_branches=125, c=45.0,
                              r_t=R_T, model=ModelSpec("hc2", h=h_hc))),
        ("cellular", NetworkConfig(rho_p=RHO_P, alpha=4.0, n_branches=65, c=70.0,
                                   r_t=R_T,
                                   model=ModelSpec("cellular", rho_c=0.02, kappa=3))),
        ("boolean", NetworkConfig(rho_p=0.004, alpha=4.0, n_branches=45, c=50.0,
                                  r_t=R_T,
                                  model=ModelSpec("boolean", h=math.sqrt(1.0 / (math.pi * 0.04)),
                                                  rho_b=0.04))),
    ]
    seeds = 200
    details = []
    ok = True
    for label, cfg in cases:
        est = density_estimate(cfg, seeds, MASTER_SEED)
        target = cfg.predicted_density()
        nu = cfg.nu_expected
        sigma = math.sqrt(cfg.n_nodes * nu * (1 - nu) / seeds) / (
            math.pi * cfg.radius ** 2
        )
        z = abs(est - target) / sigma
        ok = ok and z <= 3.0
        details.append(f"{label}: {z:.2f} sigma")
    wall = time.perf_counter() - t0
    check(
        "8 limiting densities",
        ok and wall < 60.0,
        f"{'; '.join(details)} over {seeds} seeds in {wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. special functions
# ---------------------------------------------------------------------------

def test_criterion_9_special_functions():
    checks = []
    checks.append(abs(gauss_2f1(0.5, 0.5, 1.5, 0.0) - 1.0) < 1e-15)
    checks.append(
        abs(gauss_2f1(1.0, 1.0, 2.0, 0.5) - 2.0 * math.log(2.0)) < 1e-13
    )
    checks.append(abs(gauss_2f1(0.5, 0.5, 1.5, 1.0) - math.pi / 2.0) < 1e-13)
    pfaff_ok = True
    for alpha in ALPHAS:
        a = b = 1.0 - 2.0 / alpha
        c = 2.0 - 2.0 / alpha
        for z in (0.1, 0.25, 0.4, 0.45):
            lhs = gauss_2f1(a, b, c, z)
            rhs = (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1.0))
            pfaff_ok = pfaff_ok and abs(lhs - rhs) <= 1e-10 * abs(lhs)
    checks.append(pfaff_ok)
    w_ok = all(
        abs(lambert_w0(z) * math.exp(lambert_w0(z)) - z) <= 1e-12 * max(1.0, abs(z))
        for z in (-0.36, -0.1, 0.0, 0.5, 1.0, math.e, 20.0, 1e6)
    )
    checks.append(w_ok)
    kappa = optimal_reuse(2.5, 4, 1.0, 1e-4)
    checks.append(abs(kappa - 1.0) <= 0.15)
    check(
        "9 special functions",
        all(checks),
        f"2F1 identities, Pfaff <=1e-10, W roundtrip <=1e-12, kappa*={kappa:.4f}",
    )


# ---------------------------------------------------------------------------
# 10. appendix-level properties
# ---------------------------------------------------------------------------

def test_criterion_10a_edf_convergence_trend():
    h = 1.0 * R_T
    nu = (1.0 - math.exp(-1.0))
    ks_by_scale = []
    for n_branches in (8, 32, 128):  # R, 2R, 4R
        cfg = NetworkConfig(
            rho_p=RHO_P, alpha=4.0, n_branches=n_branches, c=50.0, r_t=R_T,
            model=ModelSpec("hc2", h=h),
        )
        params = AsymptoticParams(rho_p=RHO_P, c=50.0, alpha=4.0, nu=nu)
        x0 = params.support_point
        grid = np.geomspace(x0 / 10.0, 1e3 * x0, 512)
        ref = lambda x: limiting_edf(x, params)
        ks = [
            ks_distance(edf(realize_scaled_powers(cfg, derive_seed(MASTER_SEED, 0, s))), ref, grid)
            for s in range(30)
        ]
        ks_by_scale.append(float(np.mean(ks)))
    decreasing = ks_by_scale[0] > ks_by_scale[1] > ks_by_scale[2]
    check(
        "10a EDF convergence trend",
        decreasing,
        "mean KS over 30 seeds at R, 2R, 4R: "
        + " > ".join(f"{k:.4f}" for k in ks_by_scale),
    )


def test_criterion_10b_min_eigenvalue_bound():
    c, alpha = 50.0, 4.0
    n_branches = 40  # n = c N = 2000
    cfg = NetworkConfig(
        rho_p=RHO_P, alpha=alpha, n_branches=n_branches, c=c, r_t=R_T,
        model=ModelSpec("hc2", h=1.0 * R_T),
    )
    assert cfg.n_nodes == 2000
    nu = cfg.nu_expected
    delta = 2.0
    bound = (
        (math.pi * RHO_P / c) ** (alpha / 2.0)
        * (c * nu / (2.0 * delta))
        * (1.0 - math.sqrt(delta / (c * nu))) ** 2
    )
    seeds = 500
    hits = 0
    rngs = [as_generator(derive_seed(MASTER_SEED, 1, s)) for s in range(seeds)]
    for rng, weights in zip(rngs, interference_weights(cfg, rngs)):
        # unit power: the weights are r_i^-alpha; the fading follows the
        # geometry draws in each seed's stream
        psi = n_branches ** (alpha / 2.0) * weights
        fading = draw_fading(n_branches, weights.size, rng)
        mat = (fading.interferers * psi) @ fading.interferers.conj().T / n_branches
        mat = 0.5 * (mat + mat.conj().T)
        if min_eigenvalue(mat) > bound:
            hits += 1
    frac = hits / seeds
    check(
        "10b minimum-eigenvalue bound",
        frac >= 0.99,
        f"lambda_min exceeded the delta=2 bound in {frac:.1%} of {seeds} seeds "
        f"(bound {bound:.3e})",
    )


def test_criterion_10c_aip_statistic_shrinks():
    h = 0.5 * R_T
    cfg_small = NetworkConfig(
        rho_p=RHO_P, alpha=4.0, n_branches=4, c=50.0, r_t=R_T,
        model=ModelSpec("hc1", h=h),
    )
    cfg_big = NetworkConfig(
        rho_p=RHO_P, alpha=4.0, n_branches=64, c=50.0, r_t=R_T,
        model=ModelSpec("hc1", h=h),
    )
    pooled = np.concatenate(
        [realize_scaled_powers(cfg_small, derive_seed(MASTER_SEED, 2, s)) for s in range(20)]
    )
    x = float(np.median(pooled))
    v_small = aip_statistic(cfg_small, x, 100, MASTER_SEED + 1)
    v_big = aip_statistic(cfg_big, x, 100, MASTER_SEED + 1)
    ratio = v_small / v_big
    check(
        "10c AIP statistic shrinks",
        ratio >= 2.0,
        f"Var[H_n(x)] shrank {ratio:.1f}x from R to 4R (need >= 2x)",
    )
