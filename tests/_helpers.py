"""Shared corpus generators for the test suite (seeded, deterministic)."""

from fractions import Fraction

from dunkl_jacobi import OperatorParams, check_nondegenerate, eigenvalue


# the criterion-05 grid, then alpha and beta from {-1/2, -99/100, 1} (not
# both 1) with c at 0 and near 1
_EDGE_EXPONENTS = (Fraction(-1, 2), Fraction(-99, 100), 1)
RECURRENCE_FAMILIES = [
    (a, b, c)
    for a in (0, Fraction(1, 2), 1, 2) for b in (0, Fraction(1, 2), 1, 2)
    for c in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 0)
] + [
    (a, b, c)
    for a in _EDGE_EXPONENTS for b in _EDGE_EXPONENTS if (a, b) != (1, 1)
    for c in (0, Fraction(99999, 100000))
]

#: The golden ``certify`` families: three near the boundary, then two away
#: from it, the golden N = 200 one and a one-interval one.
GOLDEN_FAMILIES = [
    (Fraction(-99, 100), Fraction(0), Fraction(1, 2)),
    (Fraction(1), Fraction(1), Fraction(99999, 100000)),
    (Fraction(-99, 100), Fraction(-99, 100), Fraction(99999, 100000)),
    (Fraction(1), Fraction(1), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(2), Fraction(0)),
]

#: two provably positive families next to the boundary, alpha near -1 and
#: c near 1; both certify at N = 20, where the float Pearson figure once
#: rejected them
NEAR_BOUNDARY_FAMILIES = [(Fraction(-99, 100), 0, Fraction(1, 2)),
                          (1, 1, Fraction(99999, 100000))]


#: 448 valid families next to every parameter boundary: alpha and beta at
#: 1e-2, 1e-4 and 1e-6 above -1, at 0 and 1, and large; c at and next to 0,
#: at 1/2, and next to 1
_GRID_EXPONENTS = [Fraction(-99, 100), Fraction(-9999, 10000), Fraction(-999999, 1000000),
                   Fraction(0), Fraction(1), Fraction(50), Fraction(300), Fraction(3000)]
_GRID_C = [Fraction(0), Fraction(1, 10**6), Fraction(1, 100), Fraction(1, 2),
           1 - Fraction(1, 100), 1 - Fraction(1, 10**5), 1 - Fraction(1, 10**8)]
BOUNDARY_GRID = [(a, b, c) for a in _GRID_EXPONENTS for b in _GRID_EXPONENTS for c in _GRID_C]


def random_rational(rng, lo=-6, hi=6, max_den=4, nonzero=False) -> Fraction:
    while True:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if q != 0 or not nonzero:
            return q


def random_params(rng) -> OperatorParams:
    return OperatorParams(*(random_rational(rng) for _ in range(9)))


def spectrally_simple(params, N) -> bool:
    """All eigenvalues distinct up to N (cross-parity collisions included)."""
    lams = [eigenvalue(params, n) for n in range(N + 1)]
    return len(set(lams)) == N + 1


def random_nondegenerate_params(rng, N) -> OperatorParams:
    """Random parameters passing the exact nondegeneracy test up to N.

    Also screens out even/odd eigenvalue collisions, which the two stated
    restrictions do not rule out but the standing nondegeneracy assumption
    (pairwise distinct eigenvalues) does.
    """
    while True:
        p = random_params(rng)
        if check_nondegenerate(p, N) and spectrally_simple(p, N):
            return p


def random_generic_params(rng, rational_zeros=True) -> OperatorParams:
    """Random symmetrizable parameters in the generic (distinct-zeros) regime.

    Built from random rational zeros so the canonical form is exactly
    representable.
    """
    while True:
        z1 = random_rational(rng, nonzero=True)
        z2 = random_rational(rng, nonzero=True)
        if z1 == z2:
            continue
        g1 = random_rational(rng, nonzero=True)
        # x*G1 = g1 (x - z1)(x - z2)
        tau1 = g1
        rho1 = -g1 * (z1 + z2)
        nu1 = g1 * z1 * z2
        return OperatorParams(
            nu1=nu1, rho1=rho1, tau1=tau1,
            xi=random_rational(rng), eta=random_rational(rng),
        )
