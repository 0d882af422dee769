import random

import pytest

from chernlab.errors import IncompatibleRing, ValidationError
from chernlab.field import GF
from chernlab.poly import (
    PolyRing,
    grlex_order,
    lex_order,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_poly,
)


@pytest.fixture
def ring():
    return PolyRing(GF(3), ["x", "y", "z"])


def test_rings_compare_by_field_and_variables(ring):
    # a ring is equal to itself at once, and to another ring of the same
    # field and variables
    assert ring == ring and ring == PolyRing(GF(3), ["x", "y", "z"])
    assert hash(ring) == hash(PolyRing(GF(3), ["x", "y", "z"]))
    assert ring != PolyRing(GF(5), ["x", "y", "z"])
    assert ring != PolyRing(GF(3), ["x", "y"])
    assert ring != "ring"


def random_poly(ring, rng, terms=4, deg=3):
    p = ring.zero()
    for _ in range(terms):
        exps = tuple(rng.randrange(deg) for _ in range(ring.nvars))
        p = p + ring.monomial(exps, rng.randrange(1, ring.field.q))
    return p


def test_to_ring_matches_variables_by_name():
    small = PolyRing(GF(4), ["x", "y"])
    big = PolyRing(GF(4), ["_s1", "x", "y"])
    p = parse_poly(small, "x*y^2")
    assert p.to_ring(big) == parse_poly(big, "x*y^2")
    assert p.to_ring(big).to_ring(small) == p
    with pytest.raises(ValidationError):
        big.gen("_s1").to_ring(small)
    with pytest.raises(IncompatibleRing):
        p.to_ring(PolyRing(GF(2), ["x", "y"]))


def test_ring_axioms_random(ring):
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (random_poly(ring, rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ring.zero()
        assert a * ring.one() == a


def test_no_zero_coefficients_stored(ring):
    x = ring.gen("x")
    p = x + x + x  # 3x = 0 over F_3
    assert p.terms == {}


def test_orders():
    ring = PolyRing(GF(2), ["a", "b"])
    p = parse_poly(ring, "a*b + b^3")
    lex = lex_order(2)
    grlex = grlex_order(2)
    assert p.leading(lex)[0] == (1, 1)
    assert p.leading(grlex)[0] == (0, 3)


def exponent_pairs(seed, count=400):
    """Random exponent tuples over 1-4 variables, with zero and equal pairs."""
    rng = random.Random(seed)
    for k in range(count):
        n = 1 + k % 4
        a = tuple(rng.randrange(4) for _ in range(n))
        b = tuple(rng.randrange(4) for _ in range(n))
        yield a, b
        yield a, a
        yield (0,) * n, b


def test_monomial_kernels_match_their_definitions():
    for a, b in exponent_pairs(5):
        n = len(a)
        assert mono_mul(a, b) == tuple(a[i] + b[i] for i in range(n))
        # x^a divides x^b iff b - a has no negative entry, and then x^b / x^a
        # is the monomial whose product with x^a is x^b
        divides = min(b[i] - a[i] for i in range(n)) >= 0
        assert mono_divides(a, b) is divides
        if divides:
            assert mono_mul(mono_div(b, a), a) == b
        # a common multiple, and lowering any one exponent loses that
        lcm = mono_lcm(a, b)
        assert mono_divides(a, lcm) and mono_divides(b, lcm)
        for i in range(n):
            if lcm[i]:
                lower = lcm[:i] + (lcm[i] - 1,) + lcm[i + 1:]
                assert not (mono_divides(a, lower) and mono_divides(b, lower))
        # coprime: no variable occurs in both, i.e. lcm(a, b) = a * b
        assert mono_coprime(a, b) is (lcm == mono_mul(a, b))
        assert mono_coprime(a, b) is all(a[i] == 0 or b[i] == 0 for i in range(n))


def textbook_greater(order, a, b):
    """a > b in lex (the leftmost nonzero entry of a - b is positive) or in
    grlex (larger total degree, ties broken by lex)."""
    if order.kind == "grlex" and sum(a) != sum(b):
        return sum(a) > sum(b)
    diff = [x - y for x, y in zip(a, b) if x != y]
    return bool(diff) and diff[0] > 0


def test_order_keys_match_the_textbook_orders():
    for a, b in exponent_pairs(8):
        for order in (lex_order(len(a)), grlex_order(len(a))):
            assert (order.key(a) > order.key(b)) is textbook_greater(order, a, b)
            assert (order.key(a) == order.key(b)) is (a == b)
    # lex keys are the tuples themselves; grlex keys lead with the degree
    assert lex_order(3).key((1, 0, 2)) == (1, 0, 2)
    assert grlex_order(3).key((1, 0, 2)) == (3, 1, 0, 2)


def test_text_round_trip_canonical():
    ring = PolyRing(GF(4), ["c2", "c3", "w"])
    text = "c2^4 + c2^3*w^2 + c2^2*w + c3*w^2"
    p = parse_poly(ring, text)
    assert p.text(ring.lex()) == text
    q = parse_poly(ring, "(g+1)*c2 + g*w^2 + 1")
    assert parse_poly(ring, q.text(ring.lex())) == q


def evaluate(p, images, target):
    """The ring map sending each variable of p's ring to its image in target."""
    out = target.zero()
    for e, c in p.terms.items():
        term = target.const(c)
        for name, k in zip(p.ring.variables, e):
            if k:
                term = term * images[name] ** k
        out = out + term
    return out


def test_substitute_chern_class_images():
    # evaluation maps of the order-24 computation
    from chernlab.fgl import honda_fgl
    from chernlab.groebner import cap_ring

    law = honda_fgl(2, 2, 32)
    source = PolyRing(GF(4), ["c2", "c3"])
    target = PolyRing(GF(4), ["x"])
    tq = cap_ring(GF(4), ["x"], [32])
    x = target.gen("x")
    xbar_series = law.mul_series(-1)
    xbar = target.zero()
    for d, c in xbar_series.items():
        if d < 32:
            xbar = xbar + target.monomial((d,), c)
    assignment = {"c2": tq.reduce(x * xbar), "c3": target.zero()}
    img = evaluate(parse_poly(source, "c2"), assignment, target)
    assert tq.reduce(img) == tq.reduce(
        parse_poly(target, "x^2 + x^5 + x^11 + x^17 + x^23")
    )
    # two-variable evaluation: c2^2 lands on x^2 y^2
    target2 = PolyRing(GF(4), ["x", "y"])
    tq2 = cap_ring(GF(4), ["x", "y"], [4, 4])
    xv, yv = target2.gen("x"), target2.gen("y")
    z = law.add_in_ring(tq2.reduce(xv), tq2.reduce(yv), tq2)
    c2_img = tq2.reduce(xv * yv + yv * z + z * xv)
    img2 = evaluate(parse_poly(source, "c2^2"), {"c2": c2_img, "c3": target2.zero()},
                    target2)
    assert tq2.reduce(img2) == tq2.reduce(parse_poly(target2, "x^2*y^2"))
