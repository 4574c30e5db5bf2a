"""From the exponent ODE to a checked norm inequality.

Walks the hypercontractivity layer end to end: the coefficient function C
on its domain, the shooting solve for the improved norm exponent q(t),
the resulting upper bound psi on the decay exponent, and a direct
numerical check of the norm inequality for a concrete set.
"""

import math
import random

from hyperrect import (
    LN2,
    CubeSet,
    c_function,
    psi_bound,
    solve_q,
    sphere_exponent,
    verify_hc_inequality,
)


def main() -> None:
    print("C maps [0, ln 2] onto [2, 2/ln 2]:")
    print(f"  C(0)    = {c_function(0.0)}")
    print(f"  C(ln 2) = {c_function(LN2)}  (2/ln 2 = {2.0 / LN2})")

    print()
    alpha, q0 = 0.5, 2.0
    print(f"improved norm exponent, alpha = {alpha}, q0 = {q0}:")
    print(f"{'t':>7} {'q(t)':>10} {'residual':>10}")
    for t in (0.005, 0.02, 0.05, 0.1):
        sol = solve_q(alpha, q0, t)
        print(f"{t:>7.3f} {sol.q:>10.6f} {sol.residual:>10.2e}")
    print("  q decreases from q0 = 2; smaller q is a stronger norm bound.")

    print()
    print("psi upper bound vs the sphere exponent near full correlation:")
    print(f"{'rho':>7} {'psi':>10} {'sphere':>10}")
    for rho in (0.9, 0.95, 0.975):
        psi = psi_bound(alpha, rho).value
        sphere = sphere_exponent(alpha, alpha, rho).value
        print(f"{rho:>7.3f} {psi:>10.6f} {sphere:>10.6f}")

    print()
    print("direct certificate on a random 32-point set in 10 dimensions:")
    rng = random.Random(7)
    a = CubeSet(10, tuple(rng.sample(range(1 << 10), 32)))
    cert = verify_hc_inequality(a, 2.0, 0.05)
    print(f"  rate alpha = {cert.alpha} (= log2 32 / 10)")
    print(f"  solved q   = {cert.q:.6f}")
    print(f"  lhs {cert.lhs:.8f} <= rhs {cert.rhs:.8f}, slack {cert.slack:.2e}")
    print(f"  passed: {cert.passed}")

    print()
    print("the noise time and the correlation are the same dial:")
    t = 0.05
    print(f"  t = {t} corresponds to rho = e^(-2t) = {math.exp(-2.0 * t):.6f}")


if __name__ == "__main__":
    main()
