"""Exact rectangle probabilities on small cubes.

Builds a few explicit set pairs, computes P[X in A, Y in B] as an exact
rational through the distance profile, and cross-checks the same value
against a direct double loop over ordered pairs.  The two code paths
share only the kernel's two constants, not the counting, so agreement is
a real check.
"""

from fractions import Fraction

from hyperrect import (
    CubeSet,
    pair_distance_profile,
    rectangle_prob_direct,
    rectangle_prob_fraction,
    sphere_distance_profile,
)


def show(label: str, a: CubeSet, b: CubeSet, rho) -> None:
    profile = pair_distance_profile(a, b)
    via_profile = rectangle_prob_fraction(profile, rho)
    direct = rectangle_prob_direct(a, b, rho)
    match = "agree" if via_profile == direct else "DISAGREE"
    print(f"{label}: P = {via_profile} ({match})")
    print(f"  distance counts: {profile.counts}")


def main() -> None:
    n = 4
    singleton = CubeSet(n, (0,))
    sphere1 = CubeSet.sphere(n, 1)
    print(f"n = {n}, rho = 1/2")
    show("singleton x itself", singleton, singleton, Fraction(1, 2))
    show("weight-1 sphere x itself", sphere1, sphere1, Fraction(1, 2))
    show("singleton x sphere", singleton, sphere1, Fraction(1, 2))

    print()
    print("closed-form sphere profile matches enumeration:")
    closed = sphere_distance_profile(6, 2, 3)
    enumerated = pair_distance_profile(CubeSet.sphere(6, 2), CubeSet.sphere(6, 3))
    print("  closed    ", closed.counts)
    print("  enumerated", enumerated.counts)

    print()
    print("independence check at rho = 0: P = |A||B| / 4^n")
    p = rectangle_prob_fraction(pair_distance_profile(sphere1, sphere1), 0)
    print(f"  P = {p}, |A||B|/4^n = {Fraction(len(sphere1) ** 2, 4 ** n)}")


if __name__ == "__main__":
    main()
