"""Evaluate the normalized-SIR limit three independent ways.

The limit beta solves a one-dimensional fixed-point equation.  This script
compares the hypergeometric closed-form solver against a quadrature oracle
(same integral equation, sharing only the root finder) and against the simple
many-interferers-per-branch formula, across path-loss exponents and
activation fractions, then prints the reuse factor that maximizes
reuse-normalized cell-edge rate.
"""

from mmsenet import (
    AsymptoticParams,
    beta_large_c,
    fixed_point_oracle,
    optimal_reuse,
    rate_approx,
    solve_beta_fixed_point,
)


def main():
    rho_p = 0.01
    print(f"{'alpha':>5} {'nu':>4} {'c':>6} {'beta fixed-point':>17} "
          f"{'beta oracle':>14} {'beta large-c':>13} {'fp vs oracle':>13}")
    for alpha in (2.5, 3.0, 4.0, 6.0):
        for nu, c in ((1.0, 50.0), (0.6, 50.0), (1.0, 5.0)):
            p = AsymptoticParams(rho_p=rho_p, c=c, alpha=alpha, nu=nu)
            sol = solve_beta_fixed_point(p)
            oracle = fixed_point_oracle(p)
            lc = beta_large_c(p.rho, alpha)
            print(f"{alpha:5.1f} {nu:4.1f} {c:6.0f} {sol.beta:17.6g} "
                  f"{oracle:14.6g} {lc:13.6g} {abs(sol.beta-oracle)/oracle:13.2e}")

    print("\nfinite-c correction fades as c grows (alpha=4, nu=1):")
    for c in (5.0, 50.0, 500.0, 1e6):
        p = AsymptoticParams(rho_p=rho_p, c=c, alpha=4.0)
        b = solve_beta_fixed_point(p).beta
        print(f"  c={c:9.0f}: beta={b:10.4f}  vs large-c {beta_large_c(p.rho, 4.0):9.4f} "
              f"({b/beta_large_c(p.rho, 4.0)-1:+.3%})")

    print("\nrate prediction, bits/symbol, r_T such that pi rho_p r_T^2 = 1:")
    r_t = (1.0 / (3.141592653589793 * rho_p)) ** 0.5
    for n in (2, 4, 8, 16):
        print(f"  N={n:2d}: {rate_approx(n, rho_p, 4.0, r_t):7.3f}")

    print("\nrate-optimal frequency reuse (saturated cell occupancy):")
    for alpha in (2.5, 3.0, 4.0):
        for n in (4, 8, 16):
            k = optimal_reuse(alpha, n, 1.0, 1e-4)
            print(f"  alpha={alpha:3.1f} N={n:2d}: kappa* = {k:6.3f}")


if __name__ == "__main__":
    main()
