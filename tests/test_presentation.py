import pytest

from chernlab import groebner, presentation
from chernlab.errors import DegreeCeiling, ResourceLimit, ValidationError
from chernlab.fgl import honda_fgl
from chernlab.field import GF
from chernlab.groebner import cap_ring
from chernlab.presentation import build_presentation
from chernlab.repring import (
    RepRing,
    builtin_group,
    table_cyclic,
    table_cyclic_product,
    table_extraspecial,
    table_sigma3,
    table_trivial,
)


@pytest.fixture(scope="module")
def law22():
    return honda_fgl(2, 2, 32)


@pytest.fixture(scope="module")
def law32():
    return honda_fgl(3, 2, 64)


def test_trivial_group(law22):
    pres = build_presentation(RepRing(table_trivial()), law22)
    assert pres.dimension() == 1


def test_c2_dimension_four(law22):
    pres = build_presentation(RepRing(table_cyclic(2)), law22)
    assert pres.dimension() == 4
    assert pres.std_monomial_texts() == ["1", "c2_1", "c2_1^2", "c2_1^3"]


def test_c2xc2_dimension(law22):
    # three nontrivial characters, each contributing one rank-four direction,
    # with products pinning the third to the formal sum of the first two
    pres = build_presentation(RepRing(table_cyclic_product(2, 2)), law22)
    assert pres.dimension() == 16


def test_sigma3_presentation(law32):
    pres = build_presentation(RepRing(table_sigma3()), law32)
    assert pres.dimension() == 5
    subs, core, iso = pres.elimination_summary()
    assert iso is not None and (iso[0], iso[2]) == (3, 5)
    assert pres.killed == ["c2_1"]
    gb_texts = [g.text(pres.qring.order) for g in pres.qring.basis.polys]
    assert gb_texts == ["c2_1", "c3_1", "c3_2^5"]


def test_sigma3_v_stability(law32):
    rep = RepRing(table_sigma3())
    assert build_presentation(rep, law32, v=2).dimension() == 5


def test_v_below_group_valuation_rejected(law32):
    rep = RepRing(table_sigma3())
    with pytest.raises(ValidationError):
        build_presentation(rep, law32, v=0)


def test_z_vd_dimensions():
    # the truncation scheme alone has dimension p^{ndv}
    for (p, n, v, d) in ((2, 2, 1, 1), (2, 2, 1, 2), (3, 2, 1, 1)):
        names = [f"c{i}" for i in range(1, d + 1)]
        assert cap_ring(GF(p), names, [p ** (n * v)] * d).dimension() == p ** (n * d * v)


def test_relation_degree_ceiling_before_any_quotient():
    # the 5-dim irreducibles of 5^{1+2} give rho rho of degree 25
    ring = RepRing(table_extraspecial(5, 1))
    pairs = groebner.COUNTS["pairs"]
    with pytest.raises(DegreeCeiling, match="degree 25 "):
        build_presentation(ring, honda_fgl(5, 1, 32))
    assert groebner.COUNTS["pairs"] == pairs


def test_tower_work_ceiling_before_any_quotient():
    # the two 3-dim irreducibles of 3^{1+2}: a tower of rank 3! 3! over the
    # cap_ring on their six generators, each capped at 3
    ring = RepRing(table_extraspecial(3, 1))
    pairs = groebner.COUNTS["pairs"]
    with pytest.raises(ResourceLimit, match=f"work {3 ** 6 * 36}, over ceiling"):
        build_presentation(ring, honda_fgl(3, 1, 32))
    assert groebner.COUNTS["pairs"] == pairs


@pytest.mark.parametrize("group,p", [
    ("sigma3", 3),
    ("c12", 3),  # two kill rounds
    ("c4", 2),
    ("d8", 2),
])
def test_one_divisor_operation_per_relation(monkeypatch, group, p):
    calls = []

    def counted(op):
        def wrapper(*args):
            calls.append(op.__name__)
            return op(*args)
        return wrapper

    for name in ("divisor_mul", "divisor_lambda"):
        monkeypatch.setattr(presentation, name, counted(getattr(presentation, name)))
    rep = RepRing(builtin_group(group))
    build_presentation(rep, honda_fgl(p, 2, 64))
    assert len(calls) == len(rep.relations())


@pytest.mark.parametrize("p,error,match", [
    (5, DegreeCeiling, "degree 25 "),
    (3, ResourceLimit, "over ceiling"),
])
def test_ceilings_refuse_before_any_capped_ring(monkeypatch, p, error, match):
    # cap_ring runs no buchberger, so the pair count alone cannot show this
    def no_quotient(*args):
        raise AssertionError("a capped ring was built")
    monkeypatch.setattr(presentation, "cap_ring", no_quotient)
    with pytest.raises(error, match=match):
        build_presentation(RepRing(table_extraspecial(p, 1)), honda_fgl(p, 1, 32))
