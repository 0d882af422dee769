import random
from itertools import combinations, combinations_with_replacement

import pytest

from chernlab.cyclotomic import Cyclo
from chernlab.errors import InexactDivision, LambdaOutOfRange
from chernlab.lattice import (
    LatticeDivisor,
    Theta,
    fourier,
    fourier_inverse,
    newton_lambda_to_psi,
    newton_psi_to_lambda,
    parse_divisor,
    unit_elementary,
)


@pytest.fixture
def theta():
    return Theta(2, 1, 2)


def test_lambda_two_points(theta):
    a, b = (1, 0), (0, 1)
    D = LatticeDivisor(theta, [a, b])
    assert D.lam(2) == LatticeDivisor(theta, [theta.add(a, b)])


def test_lambda_fixes_special_triple(theta):
    a, b = (1, 0), (0, 1)
    c = theta.add(a, b)
    E = LatticeDivisor(theta, [a, b, c])
    assert E.lam(2) == E
    assert E.lam(3) == LatticeDivisor(theta, [theta.zero()])


def test_psi_fixes_origin_stack(theta):
    D = LatticeDivisor(theta, [theta.zero()] * 4)
    for k in range(1, 6):
        assert D.psi(k) == D


def test_lambda_out_of_range(theta):
    D = LatticeDivisor(theta, [(1, 0)])
    assert D.lam(2).is_zero()  # k > dim is the empty divisor
    with pytest.raises(LambdaOutOfRange):
        D.lam(-1)


def lam_by_enumeration(D, k):
    """lambda^k straight from the definition: one point per k-subset."""
    theta = D.theta
    pts = list(D.points_with_multiplicity())
    counts: dict = {}
    for subset in combinations(range(len(pts)), k):
        s = theta.zero()
        for i in subset:
            s = theta.add(s, pts[i])
        counts[s] = counts.get(s, 0) + 1
    return LatticeDivisor.from_counts(theta, counts)


def test_lambda_enumerate_matches_additive():
    th = Theta(3, 1, 2)
    rng = random.Random(23)
    pts = th.points()
    for dim in range(0, 11):
        for _ in range(3):
            D = LatticeDivisor(th, [rng.choice(pts) for _ in range(dim)])
            for k in range(0, dim + 2):
                assert D.lam(k) == lam_by_enumeration(D, k)


def test_lambda_addition_law_exhaustive_small(theta):
    pts = theta.points()
    divisors = []
    for d in range(0, 3):
        divisors += [LatticeDivisor(theta, c) for c in combinations_with_replacement(pts, d)]
    for D in divisors:
        for E in divisors:
            for k in range(0, D.dim() + E.dim() + 1):
                total = LatticeDivisor(theta)
                for i in range(k + 1):
                    total = total + D.lam(i) * E.lam(k - i)
                assert (D + E).lam(k) == total


def test_text_round_trip():
    th = Theta(2, 2, 2)
    D = parse_divisor(th, "2[0,0] + [1,0] + [1,1]")
    assert D.text() == "2[0,0] + [1,0] + [1,1]"
    assert D.dim() == 4
    assert parse_divisor(th, "0").is_zero()


def test_newton_line_element():
    # a line bundle has lambda^k = 0 above 1, so psi^k = l^k
    lams = [5]  # stand-in ring: plain integers, "l" = 5
    psis = newton_lambda_to_psi(lams, 4)
    assert psis == [5, 25, 125, 625]


def test_newton_round_trip_integers():
    rng = random.Random(2)
    for _ in range(30):
        lams = [rng.randint(-4, 4) for _ in range(5)]
        psis = newton_lambda_to_psi(lams, 5)
        assert newton_psi_to_lambda(psis, 5) == lams


def test_newton_inexact_division_raises():
    with pytest.raises(InexactDivision):
        newton_psi_to_lambda([1, 2], 2)  # 2*lam2 = 1*1 - 2 = -1


def test_xi_over_z8():
    class Z8:
        def __init__(self, v):
            self.v = v % 8

        def __add__(self, o):
            return Z8(self.v + o.v)

        def __mul__(self, o):
            return Z8(self.v * o.v)

        def __eq__(self, o):
            return self.v == o.v

    u, v = Z8(3), Z8(5)
    assert unit_elementary([u, v], 2) == Z8(7)
    assert unit_elementary([u, v], 1) == Z8(0)


def test_psi_pv_collapse():
    for p, v, n in ((2, 1, 2), (2, 2, 2), (3, 1, 2)):
        th = Theta(p, v, n)
        rng = random.Random(p * 10 + v)
        pts = th.points()
        for _ in range(25):
            d = rng.randint(0, 4)
            D = LatticeDivisor(th, [rng.choice(pts) for _ in range(d)])
            expected = LatticeDivisor(th, [th.zero()] * d)
            assert D.psi(p ** v) == expected


@pytest.mark.parametrize("p,v,n,e", [(2, 2, 2, 4), (2, 2, 2, 8), (3, 1, 2, 3), (3, 1, 2, 9)])
def test_fourier_inverse_undoes_fourier(p, v, n, e):
    th = Theta(p, v, n)
    cy = Cyclo(e)
    rng = random.Random(100 * p + e)
    pts = th.points()
    divisors = [
        LatticeDivisor(th, [rng.choice(pts) for _ in range(rng.randint(0, 6))])
        for _ in range(12)
    ]
    assert fourier_inverse(th, cy, fourier(th, cy, divisors)) == divisors


def test_fourier_pairs_points_with_roots_of_unity(theta):
    # over Z[zeta_2], [x] transforms to a -> (-1)^<a,x>
    row = fourier(theta, Cyclo(2), [LatticeDivisor(theta, [(1, 1)])])[0]
    assert row == [((-1) ** (a + b),) for a, b in theta.points()]


def test_fourier_inverse_rejects_a_non_transform(theta):
    cy = Cyclo(2)
    row = [cy.one if a == theta.zero() else cy.zero for a in theta.points()]
    with pytest.raises(InexactDivision):
        fourier_inverse(theta, cy, [row])
