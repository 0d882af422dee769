import random

import pytest

from chernlab.errors import InfiniteDimensional
from chernlab.field import GF
from chernlab.groebner import (
    QuotientRing,
    assert_groebner,
    buchberger,
    cap_ring,
    normal_form,
    standard_monomials,
)
from chernlab.poly import PolyRing, parse_poly


def gb_of(ring, texts, order=None):
    order = order or ring.lex()
    return buchberger([parse_poly(ring, t) for t in texts], order)


def test_single_generator_is_its_own_basis():
    ring = PolyRing(GF(2), ["x", "y"])
    gb = gb_of(ring, ["x"])
    assert [p.text(ring.lex()) for p in gb.polys] == ["x"]


def test_two_generator_example_f3():
    ring = PolyRing(GF(3), ["x", "y"])
    gb = gb_of(ring, ["x^2 + y", "y^2"])
    assert sorted(p.text(ring.lex()) for p in gb.polys) == ["x^2 + y", "y^2"]
    assert_groebner(gb)


def test_normal_form_single_step():
    ring = PolyRing(GF(3), ["x", "y"])
    gb = gb_of(ring, ["x^2 + 2*y"])  # x^2 - y
    assert normal_form(parse_poly(ring, "x^2"), gb).text() == "y"


def test_normal_form_properties():
    ring = PolyRing(GF(3), ["x", "y"])
    gb = gb_of(ring, ["x^2 + y", "y^2"])
    rng = random.Random(3)
    zero = ring.zero()
    assert normal_form(zero, gb) == zero
    for _ in range(30):
        p = ring.zero()
        for _ in range(4):
            p = p + ring.monomial(
                (rng.randrange(4), rng.randrange(4)), rng.randrange(1, 3)
            )
        nf = normal_form(p, gb)
        # idempotent, and no monomial divisible by a leading term
        assert normal_form(nf, gb) == nf
        for e in nf.terms:
            assert not any(
                all(x <= y for x, y in zip(lt, e)) for lt in gb.leading_terms
            )
        # p - nf lies in the ideal
        assert normal_form(p - nf, gb) == zero


def test_normal_form_uniqueness_on_cosets():
    ring = PolyRing(GF(3), ["x", "y"])
    gb = gb_of(ring, ["x^2 + y", "y^2"])
    rng = random.Random(9)
    for _ in range(20):
        p = ring.zero()
        for _ in range(3):
            p = p + ring.monomial((rng.randrange(3), rng.randrange(3)), rng.randrange(1, 3))
        shift = gb.polys[0] * ring.monomial((rng.randrange(2), rng.randrange(2)))
        assert normal_form(p, gb) == normal_form(p + shift, gb)


def test_standard_monomials_of_monomial_ideal():
    ring = PolyRing(GF(2), ["x", "y"])
    gb = gb_of(ring, ["x^2", "x*y", "y^3"])
    assert sorted(standard_monomials(gb)) == [(0, 0), (0, 1), (0, 2), (1, 0)]


def test_standard_monomials_trivial():
    ring = PolyRing(GF(2), ["x"])
    gb = gb_of(ring, ["x"])
    assert standard_monomials(gb) == [(0,)]


def test_standard_monomials_infinite_reported():
    ring = PolyRing(GF(2), ["x", "y"])
    gb = gb_of(ring, ["x*y"])
    with pytest.raises(InfiniteDimensional):
        standard_monomials(gb)
    capped = standard_monomials(gb, cap=3)
    assert (2, 0) in capped and (0, 2) in capped and (1, 1) not in capped


def test_dimension_agrees_with_multiplication_closure():
    # dim = rank of the span of 1 under repeated multiplication by variables
    ring = PolyRing(GF(2), ["x", "y"])
    q = QuotientRing(gb_of(ring, ["x^3 + y", "y^2 + x*y"]))
    std = q.std_monomials()
    span = {q.ring.one().text(q.order)}
    frontier = [q.ring.one()]
    while frontier:
        elem = frontier.pop()
        for v in ring.variables:
            nxt = q.mul(elem, ring.gen(v))
            for e in nxt.terms:
                m = ring.monomial(e)
                if m.text(q.order) not in span:
                    span.add(m.text(q.order))
                    frontier.append(m)
    assert len(span) == len(std)


def test_quotient_multiplication_associative():
    ring = PolyRing(GF(3), ["x", "y"])
    q = QuotientRing(gb_of(ring, ["x^3", "y^3", "x*y^2 + x^2"]))
    rng = random.Random(17)
    elems = []
    for _ in range(6):
        p = ring.zero()
        for _ in range(3):
            p = p + ring.monomial((rng.randrange(3), rng.randrange(3)), rng.randrange(1, 3))
        elems.append(q.reduce(p))
    for a in elems:
        for b in elems:
            for c in elems:
                assert q.mul(q.mul(a, b), c) == q.mul(a, q.mul(b, c))


def test_socle_univariate():
    ring = PolyRing(GF(3), ["x"])
    q = QuotientRing(gb_of(ring, ["x^2"]))
    assert [s.text() for s in q.socle()] == ["x"]
    assert q.is_gorenstein()


def test_socle_two_variables():
    ring = PolyRing(GF(2), ["x", "y"])
    q = QuotientRing(gb_of(ring, ["x^2", "y^2"]))
    assert [s.text() for s in q.socle()] == ["x*y"]
    assert q.is_gorenstein()


def test_socle_non_gorenstein():
    ring = PolyRing(GF(2), ["x", "y"])
    q = QuotientRing(gb_of(ring, ["x^2", "x*y", "y^2"]))
    socle = q.socle()
    assert len(socle) == 2  # both x and y annihilate the maximal ideal
    assert not q.is_gorenstein()


def test_socle_requires_finite_dimension():
    ring = PolyRing(GF(2), ["x", "y"])
    q = QuotientRing(gb_of(ring, ["x*y"]))
    with pytest.raises(InfiniteDimensional):
        q.socle()


def test_cap_ring_dimensions():
    assert cap_ring(GF(2), ["x", "y"], [4, 4]).dimension() == 16
    assert cap_ring(GF(2), ["x", "y"], total=7).dimension() == 28
    assert cap_ring(GF(3), ["x", "y", "z"], total=7).dimension() == 84
    assert cap_ring(GF(2), []).dimension() == 1
