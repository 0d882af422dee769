import random

import pytest

from chernlab.errors import NotSymmetric, ValidationError
from chernlab.field import GF
from chernlab.poly import PolyRing, parse_poly
from chernlab.symfunc import elementary_symmetric, symmetrize


def test_power_sum_two_variables():
    # x1^2 + x2^2 = e1^2 - 2 e2
    ring = PolyRing(GF(5), ["x1", "x2"])
    e_ring = PolyRing(GF(5), ["e1", "e2"])
    p = parse_poly(ring, "x1^2 + x2^2")
    q = symmetrize(p, e_ring)
    assert q == parse_poly(e_ring, "e1^2 + 3*e2")  # -2 = 3 over F_5


def test_mixed_cubic():
    # x1^2 x2 + x1 x2^2 = e1 e2
    ring = PolyRing(GF(5), ["x1", "x2"])
    e_ring = PolyRing(GF(5), ["e1", "e2"])
    p = parse_poly(ring, "x1^2*x2 + x1*x2^2")
    assert symmetrize(p, e_ring) == parse_poly(e_ring, "e1*e2")


def test_elementary_fixed_points():
    ring = PolyRing(GF(3), ["x1", "x2", "x3"])
    e_ring = PolyRing(GF(3), ["e1", "e2", "e3"])
    for k in (1, 2, 3):
        p = elementary_symmetric(ring, k)
        q = symmetrize(p, e_ring)
        assert q == e_ring.gen(f"e{k}")


def test_not_symmetric_rejected():
    ring = PolyRing(GF(3), ["x1", "x2"])
    e_ring = PolyRing(GF(3), ["e1", "e2"])
    with pytest.raises(NotSymmetric):
        symmetrize(parse_poly(ring, "x1^2*x2"), e_ring)
    # symmetric in x1, x2 but not under x2 <-> x3
    ring3 = PolyRing(GF(3), ["x1", "x2", "x3"])
    with pytest.raises(NotSymmetric):
        symmetrize(parse_poly(ring3, "x1 + x2"), PolyRing(GF(3), ["e1", "e2", "e3"]))


def test_one_e_variable_per_ring_variable():
    ring = PolyRing(GF(3), ["x1", "x2"])
    p = parse_poly(ring, "x1 + x2")
    for names in (["e1"], ["e1", "e2", "e3"]):
        with pytest.raises(ValidationError):
            symmetrize(p, PolyRing(GF(3), names))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_symmetrize_inverts_the_expansion(q, d):
    # a random F_q-combination E of e-monomials, expanded in x_1..x_d
    rng = random.Random(1000 * q + d)
    fld = GF(q)
    ring = PolyRing(fld, [f"x{i}" for i in range(1, d + 1)])
    e_ring = PolyRing(fld, [f"e{i}" for i in range(1, d + 1)])
    e_polys = [elementary_symmetric(ring, k) for k in range(1, d + 1)]
    for _ in range(4):
        E = e_ring.zero()
        expanded = ring.zero()
        for _ in range(rng.randint(0, 5)):
            exps = tuple(rng.randint(0, 3 if d < 4 else 2) for _ in range(d))
            c = rng.randrange(q)
            E = E + e_ring.monomial(exps, c)
            term = ring.const(c)
            for e_k, a in zip(e_polys, exps):
                term = term * e_k ** a
            expanded = expanded + term
        assert symmetrize(expanded, e_ring) == E
