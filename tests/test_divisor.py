from itertools import combinations

import pytest

from chernlab.divisor import (
    DivisorPoly,
    SplitTower,
    divisor_from_roots,
    divisor_lambda,
    divisor_mul,
    divisor_psi,
    tpoly_mul,
)
from chernlab.errors import DegreeCeiling
from chernlab.fgl import FGL, honda_fgl, multiplicative_fgl
from chernlab.field import GF
from chernlab.groebner import assert_groebner, cap_ring
from chernlab.lattice import LatticeDivisor, Theta


@pytest.fixture(scope="module")
def law():
    return honda_fgl(2, 2, 32)


@pytest.fixture()
def Q(law):
    return cap_ring(GF(4), ["x", "y"], [4, 4])


def test_tpoly_mul_of_two_linear_factors(Q):
    x, y = Q.gen("x"), Q.gen("y")
    one = Q.ring.one()
    assert tpoly_mul(Q, [one, -x], [one, -y]) == [one, -(x + y), x * y]


def test_tpoly_mul_gives_normal_forms_of_the_schoolbook_product(Q):
    x, y = Q.gen("x"), Q.gen("y")
    one = Q.ring.one()
    a = [one, x ** 3, x * y ** 2]
    b = [one, x ** 2 + y, y ** 3, x]
    zero = Q.ring.zero()
    schoolbook = [sum((a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)), zero)
                  for k in range(len(a) + len(b) - 1)]
    prod = tpoly_mul(Q, a, b)
    assert prod == [Q.reduce(c) for c in schoolbook]
    assert prod[2] != schoolbook[2]  # x^3 * x^2 = x^5 vanishes in Q


def test_degree_one_product_is_formal_sum(law, Q):
    x, y = Q.gen("x"), Q.gen("y")
    Da = divisor_from_roots(Q, law, [x])
    Db = divisor_from_roots(Q, law, [y])
    prod = divisor_mul(Da, Db)
    assert prod.degree == 1
    assert prod.coeffs[0] == Q.reduce(-law.add_in_ring(x, y, Q))


def test_product_with_origin_is_identity(law, Q):
    x, y = Q.gen("x"), Q.gen("y")
    D = divisor_from_roots(Q, law, [x, y])
    origin = divisor_from_roots(Q, law, [Q.ring.zero()])
    assert divisor_mul(D, origin) == D


def test_lambda_top_is_formal_sum_of_roots(law, Q):
    x, y = Q.gen("x"), Q.gen("y")
    D = divisor_from_roots(Q, law, [x, y])
    lam = divisor_lambda(D, 2)
    assert lam.degree == 1
    assert lam.coeffs[0] == Q.reduce(-law.add_in_ring(x, y, Q))


def test_lambda_zero_is_origin(law, Q):
    D = divisor_from_roots(Q, law, [Q.gen("x"), Q.gen("y")])
    lam0 = divisor_lambda(D, 0)
    assert lam0.degree == 1 and lam0.coeffs[0].is_zero()


def test_psi_one_identity(law, Q):
    D = divisor_from_roots(Q, law, [Q.gen("x"), Q.gen("y")])
    assert divisor_psi(D, 1) == D


def test_psi_frobenius_shortcut_matches_split(law, Q):
    x, y = Q.gen("x"), Q.gen("y")
    for roots in ([x], [x, y], [x, y, Q.reduce(x * y)]):
        D = divisor_from_roots(Q, law, roots)
        fast = divisor_psi(D, 2)
        assert list(fast.coeffs) == [Q.pow(c, 4) for c in D.coeffs]
        direct = divisor_from_roots(Q, law, [law.mul_in_ring(2, r, Q) for r in roots])
        assert fast == direct


def test_psi_generic_k(law, Q):
    x, y = Q.gen("x"), Q.gen("y")
    D = divisor_from_roots(Q, law, [x, y])
    ps3 = divisor_psi(D, 3)
    expect = divisor_from_roots(
        Q, law, [law.mul_in_ring(3, x, Q), law.mul_in_ring(3, y, Q)]
    )
    assert ps3 == expect


def test_a_product_splits_in_one_ring_with_one_growing_basis(law, Q, monkeypatch):
    x, y = Q.gen("x"), Q.gen("y")
    D = divisor_from_roots(Q, law, [x, y])
    E = divisor_from_roots(Q, law, [x, y, Q.reduce(x * y)])
    calls = []
    adjoin = SplitTower.adjoin_root

    def counted(tower, monic_coeffs):
        calls.append(tower)
        return adjoin(tower, monic_coeffs)

    monkeypatch.setattr(SplitTower, "adjoin_root", counted)
    divisor_mul(D, E)
    tower = calls[0]
    assert len(calls) == 3 and all(t is tower for t in calls)
    ring = tower.ext.ring
    assert ring.variables == ("_s3", "_s2", "_s1", "x", "y")
    assert len(tower.ext.basis) == len(Q.basis) + 3
    assert_groebner(tower.ext.basis)
    one = ring.one()
    for coeffs, roots in zip((D.coeffs, E.coeffs), tower.roots, strict=True):
        prod = [one]
        for r in roots:
            prod = tpoly_mul(tower.ext, prod, [one, -r])
        assert prod[1:] == [c.to_ring(ring) for c in coeffs]
    # a square splits its factor once
    calls.clear()
    divisor_mul(D, D)
    assert len(calls) == D.degree - 1 and len(calls[0].roots) == 1



def count_power_tables(monkeypatch):
    calls = []
    build = FGL.powers_in_ring

    def counted(law, a, ring):
        calls.append(a)
        return build(law, a, ring)

    monkeypatch.setattr(FGL, "powers_in_ring", counted)
    return calls


def test_a_product_builds_each_roots_power_table_once(law, monkeypatch):
    Q = cap_ring(GF(4), ["a1", "a2", "b1", "b2"], [2, 2, 2, 2])
    D = DivisorPoly(Q, law, [Q.gen("a1"), Q.gen("a2")])
    E = DivisorPoly(Q, law, [Q.gen("b1"), Q.gen("b2")])
    calls = count_power_tables(monkeypatch)
    divisor_mul(D, E)
    assert len(calls) == 4  # one per root of D and of E, not two per pair
    calls.clear()
    divisor_mul(D, D)
    assert len(calls) == 2


def test_lambda_builds_each_roots_power_table_once(law, monkeypatch):
    Q = cap_ring(GF(4), ["c1", "c2", "c3"], [2, 2, 2])
    D = DivisorPoly(Q, law, [Q.gen("c1"), Q.gen("c2"), Q.gen("c3")])
    calls = count_power_tables(monkeypatch)
    divisor_lambda(D, 2)
    assert len(calls) == 3  # one per root, not two per pair
    calls.clear()
    divisor_lambda(D, 3)
    assert len(calls) == 4  # each root, and the partial sum r1 +_F r2


def test_lambda_one_is_the_divisor_without_a_tower(law, monkeypatch):
    # the tautological divisor of d8's 2-dimensional irreducible
    Q = cap_ring(GF(4), ["c1", "c2"], [4, 4])
    D = DivisorPoly(Q, law, [Q.gen("c1"), Q.gen("c2")])

    def no_tower(*args):
        raise AssertionError("a splitting tower was built")

    monkeypatch.setattr(SplitTower, "adjoin_root", no_tower)
    assert divisor_lambda(D, 1) == D

def split_points(law, Q, theta, coord):
    """Coordinates of the lattice points of the p-torsion inside the ring."""
    return {
        pt: law.sum_in_ring([coord[i] for i, a in enumerate(pt) for _ in range(a)], Q)
        for pt in theta.points()
    }


def test_split_divisor_oracle_exhaustive(law):
    # transport the lattice operations through the coordinate on the
    # 2-torsion points and compare with the tower computations
    Q = cap_ring(GF(4), ["x", "y"], [4, 4])
    theta = Theta(2, 1, 2)
    x, y = Q.gen("x"), Q.gen("y")
    coord = {
        (0, 0): Q.ring.zero(),
        (1, 0): x,
        (0, 1): y,
        (1, 1): law.add_in_ring(x, y, Q),
    }
    pts = theta.points()
    from itertools import combinations_with_replacement

    divisors = [list(c) for c in combinations_with_replacement(pts, 2)]
    for pts_d in divisors:
        D_lat = LatticeDivisor(theta, pts_d)
        D_sch = divisor_from_roots(Q, law, [coord[p] for p in pts_d])
        for pts_e in divisors:
            E_lat = LatticeDivisor(theta, pts_e)
            E_sch = divisor_from_roots(Q, law, [coord[p] for p in pts_e])
            prod_lat = D_lat * E_lat
            prod_sch = divisor_mul(D_sch, E_sch)
            expected = divisor_from_roots(
                Q, law, [coord[p] for p, m in prod_lat.pairs for _ in range(m)]
            )
            assert prod_sch == expected
        for r in range(0, 3):
            lam_lat = D_lat.lam(r)
            lam_sch = divisor_lambda(D_sch, r)
            expected = divisor_from_roots(
                Q, law, [coord[p] for p, m in lam_lat.pairs for _ in range(m)]
            )
            assert lam_sch == expected
        for k in (2, 3):
            psi_lat = D_lat.psi(k)
            psi_sch = divisor_psi(D_sch, k)
            expected = divisor_from_roots(
                Q, law, [coord[p] for p, m in psi_lat.pairs for _ in range(m)]
            )
            assert psi_sch == expected


def test_generic_divisor_product_against_lattice(law):
    # generic (non-split) coefficients: multiply a generic rank-2 divisor by
    # the translation divisor in the order-24 working ring and compare with
    # the hand-checkable degree computation via associativity of the tower
    Q = cap_ring(GF(4), ["a1", "a2", "b1"], [4, 4, 4])
    D = DivisorPoly(Q, law, [Q.gen("a1"), Q.gen("a2")])
    E = DivisorPoly(Q, law, [Q.gen("b1")])
    prod = divisor_mul(D, E)
    assert prod.degree == 2
    # commutativity of the product
    prod2 = divisor_mul(E, D)
    assert prod == prod2


def test_lambda_addition_law_small_degrees(law):
    # lambda^k(D + E) (disjoint-sum divisor = polynomial product of equations)
    Q = cap_ring(GF(4), ["x", "y"], [4, 4])
    x, y = Q.gen("x"), Q.gen("y")
    z = law.add_in_ring(x, y, Q)
    roots_d = [x, y]
    roots_e = [z]
    D = divisor_from_roots(Q, law, roots_d)
    E = divisor_from_roots(Q, law, roots_e)
    total = divisor_from_roots(Q, law, roots_d + roots_e)
    for k in range(0, 4):
        lhs = divisor_lambda(total, k)
        # right side: sum over i+j=k of lambda^i(D) lambda^j(E), assembled as
        # a polynomial product of the split factors
        rhs_roots = []
        for i in range(k + 1):
            j = k - i
            if i > 2 or j > 1:
                continue
            for sub_d in combinations(roots_d, i):
                for sub_e in combinations(roots_e, j):
                    rhs_roots.append(law.sum_in_ring(list(sub_d) + list(sub_e), Q))
        rhs = divisor_from_roots(Q, law, rhs_roots)
        assert lhs.degree == rhs.degree
        assert lhs == rhs


def test_degree_ceiling():
    law = honda_fgl(2, 2, 16)
    Q = cap_ring(GF(2), ["x"], [4])
    D = divisor_from_roots(Q, law, [Q.gen("x")] * 4)
    with pytest.raises(DegreeCeiling):
        divisor_mul(D, D)


def test_multiplicative_law_products(law):
    mult = multiplicative_fgl(2, 32)
    Q = cap_ring(GF(2), ["x", "y"], [4, 4])
    x, y = Q.gen("x"), Q.gen("y")
    D = divisor_from_roots(Q, mult, [x])
    E = divisor_from_roots(Q, mult, [y])
    prod = divisor_mul(D, E)
    # roots add multiplicatively: 1 - (1-x)(1-y) = x + y - xy
    assert prod.coeffs[0] == Q.reduce(-(x + y + x * y))
