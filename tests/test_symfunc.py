import pytest

from chernlab.errors import NotSymmetric
from chernlab.field import GF
from chernlab.poly import PolyRing, parse_poly
from chernlab.symfunc import elementary_symmetric, symmetrize


def test_power_sum_two_variables():
    # x1^2 + x2^2 = e1^2 - 2 e2
    ring = PolyRing(GF(5), ["x1", "x2"])
    e_ring = PolyRing(GF(5), ["e1", "e2"])
    p = parse_poly(ring, "x1^2 + x2^2")
    q = symmetrize(p, ["x1", "x2"], e_ring, ["e1", "e2"])
    assert q == parse_poly(e_ring, "e1^2 + 3*e2")  # -2 = 3 over F_5


def test_mixed_cubic():
    # x1^2 x2 + x1 x2^2 = e1 e2
    ring = PolyRing(GF(5), ["x1", "x2"])
    e_ring = PolyRing(GF(5), ["e1", "e2"])
    p = parse_poly(ring, "x1^2*x2 + x1*x2^2")
    assert symmetrize(p, ["x1", "x2"], e_ring, ["e1", "e2"]) == parse_poly(
        e_ring, "e1*e2"
    )


def test_elementary_fixed_points():
    ring = PolyRing(GF(3), ["x1", "x2", "x3"])
    e_ring = PolyRing(GF(3), ["e1", "e2", "e3"])
    for k in (1, 2, 3):
        p = elementary_symmetric(ring, ["x1", "x2", "x3"], k)
        q = symmetrize(p, ["x1", "x2", "x3"], e_ring, ["e1", "e2", "e3"])
        assert q == e_ring.gen(f"e{k}")


def test_not_symmetric_rejected():
    ring = PolyRing(GF(3), ["x1", "x2"])
    e_ring = PolyRing(GF(3), ["e1", "e2"])
    with pytest.raises(NotSymmetric):
        symmetrize(parse_poly(ring, "x1^2*x2"), ["x1", "x2"], e_ring, ["e1", "e2"])


def test_extra_passthrough_variables():
    # coefficients outside the symmetric block ride along
    ring = PolyRing(GF(3), ["t", "x1", "x2"])
    e_ring = PolyRing(GF(3), ["t", "e1", "e2"])
    p = parse_poly(ring, "t*x1*x2 + x1 + x2")
    q = symmetrize(p, ["x1", "x2"], e_ring, ["e1", "e2"])
    assert q == parse_poly(e_ring, "t*e2 + e1")
