import random

import pytest

from chernlab import poly
from chernlab.errors import IncompatibleRing, ResourceLimit, ValidationError
from chernlab.field import GF
from chernlab.groebner import GroebnerBasis, buchberger, normal_form, standard_monomials
from chernlab.poly import Poly, PolyRing, grlex_order, lex_order, parse_poly


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
    assert p.leading(lex)[0] == ring.pack((1, 1))
    assert p.leading(grlex)[0] == ring.pack((0, 3))


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


def key_of(exps):
    """The layout's definition: a 32-bit field per variable, the first variable
    most significant."""
    n = len(exps)
    return sum(e << (32 * (n - 1 - i)) for i, e in enumerate(exps))


def test_key_arithmetic_matches_exponent_tuples():
    for a, b in exponent_pairs(5):
        n = len(a)
        ring = PolyRing(GF(2), [f"x{i}" for i in range(n)])
        ka, kb = ring.pack(a), ring.pack(b)
        assert ka == key_of(a) and ring.exponents(ka) == a
        # x^a x^b is a + b
        assert ka + kb == ring.pack(tuple(a[i] + b[i] for i in range(n)))
        # x^a divides x^b iff b - a has no negative entry, and then x^b / x^a
        # is the key b - a
        divides = min(b[i] - a[i] for i in range(n)) >= 0
        assert (not (kb - ka) & ring.guard) is divides
        if divides:
            assert ring.exponents(kb - ka) == tuple(b[i] - a[i] for i in range(n))
        # lcm: the larger exponent of each variable; coprime iff lcm = a * b
        lcm = ring.lcm(ka, kb)
        assert ring.exponents(lcm) == tuple(max(a[i], b[i]) for i in range(n))
        assert (lcm == ka + kb) is all(a[i] == 0 or b[i] == 0 for i in range(n))
        assert ring.lcm(kb, ka) == lcm


def textbook_greater(order, a, b):
    """a > b in lex (the leftmost nonzero entry of a - b is positive) or in
    grlex (larger total degree, ties broken by lex)."""
    if order.kind == "grlex" and sum(a) != sum(b):
        return sum(a) > sum(b)
    diff = [x - y for x, y in zip(a, b) if x != y]
    return bool(diff) and diff[0] > 0


def test_order_keys_match_the_textbook_orders():
    for a, b in exponent_pairs(8):
        ka, kb = key_of(a), key_of(b)
        for order in (lex_order(len(a)), grlex_order(len(a))):
            assert (order.key(ka) > order.key(kb)) is textbook_greater(order, a, b)
            assert (order.key(ka) == order.key(kb)) is (a == b)
    # lex keys are the monomials' keys; grlex keys put the degree above them
    k = key_of((1, 0, 2))
    assert lex_order(3).key(k) == k
    assert grlex_order(3).key(k) == 3 << 96 | k
    assert grlex_order(3).key(k) & grlex_order(3).low_mask == k


@pytest.mark.parametrize("kind", ["lex", "grlex"])
@pytest.mark.parametrize("nvars", range(5))
def test_packed_keys_match_exponent_tuples(kind, nvars):
    ring = PolyRing(GF(2), [f"x{i}" for i in range(nvars)])
    order = ring.lex() if kind == "lex" else grlex_order(ring.nvars)
    rng = random.Random(100 * nvars + len(kind))
    bound = poly.EXPONENT_CEILING // max(nvars, 1)
    exps = [tuple(rng.choice((rng.randrange(4), rng.randrange(bound + 1)))
                  for _ in range(nvars)) for _ in range(40)]
    exps.append((0,) * nvars)
    packed = {e: ring.pack(e) for e in exps}
    for e in exps:
        assert ring.exponents(packed[e]) == e and packed[e] == key_of(e)
    assert (sorted(exps, key=lambda e: (sum(e), e) if order.graded else e)
            == sorted(exps, key=lambda e: order.key(packed[e])))
    for a in exps:
        for b in exps:
            divides = all(x <= y for x, y in zip(a, b))
            assert (not (packed[b] - packed[a]) & ring.guard) is divides


def test_exponent_ceiling_of_packed_keys():
    assert poly.EXPONENT_CEILING == 2**31 - 1
    ring = PolyRing(GF(2), ["x", "y"])
    assert ring.exponents(ring.pack((2**31 - 1, 0))) == (2**31 - 1, 0)
    with pytest.raises(ResourceLimit, match="packed-key ceiling"):
        ring.pack((0, 2**31))
    # the ceiling bounds the total degree
    with pytest.raises(ResourceLimit, match="packed-key ceiling"):
        ring.pack((2**30, 2**30))
    with pytest.raises(ValidationError):
        ring.pack((1, -1))
    # a reduction step that would make y^(2^31) stops instead
    x, y = ring.gen("x"), ring.gen("y")
    basis = GroebnerBasis(ring, ring.lex(), [x - y ** (2**31 - 1)])
    with pytest.raises(ResourceLimit, match="packed-key ceiling"):
        normal_form(x * y, basis)
    assert normal_form(x, basis) == y ** (2**31 - 1)


def test_a_product_past_the_ceiling_raises_and_does_not_wrap():
    ring = PolyRing(GF(2), ["x", "y"])
    x, y = ring.gen("x"), ring.gen("y")
    for v in (x, y):
        half = v ** (2**30)
        top = (half * v ** (2**30 - 1)).leading(ring.lex())[0]
        assert sum(ring.exponents(top)) == 2**31 - 1
        # x^(2^31) would set x's guard bit; y^(2^31) would carry into x's field
        with pytest.raises(ResourceLimit, match="packed-key ceiling"):
            half * half
        # a zero factor makes a zero product, whatever the other's degree
        assert (half * ring.zero()).is_zero()
    with pytest.raises(ResourceLimit, match="packed-key ceiling"):
        (x ** (2**30) + 1) * (1 + y ** (2**30))


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
        for name, k in zip(p.ring.variables, p.ring.exponents(e)):
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


# -- oracle: the same operations on exponent tuples ---------------------------
# A polynomial is a dict from exponent tuples to coefficients, and each
# function restates one operation by its textbook definition.

def tuple_terms(p):
    """p's terms keyed by exponent tuple, read off each key by the layout's
    definition (key_of)."""
    n = p.ring.nvars
    return {tuple(m >> (32 * (n - 1 - i)) & (2**32 - 1) for i in range(n)): c
            for m, c in p.terms.items()}


def from_terms(ring, terms):
    return Poly(ring, {ring.pack(e): c for e, c in terms.items()})


def order_key(order, e):
    return (sum(e), e) if order.graded else e


def ref_mul(a, b, fld):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = fld.add(out.get(e, 0), fld.mul(ca, cb))
    return {e: c for e, c in out.items() if c}


def ref_leading(terms, order):
    e = max(terms, key=lambda e: order_key(order, e))
    return e, terms[e]


def ref_reduce(terms, divisors, order, fld):
    """Remainder on division by monic divisors, largest term first."""
    terms = dict(terms)
    lts = [ref_leading(g, order)[0] for g in divisors]
    remainder = {}
    while terms:
        e, c = ref_leading(terms, order)
        for lt, g in zip(lts, divisors):
            if all(x <= y for x, y in zip(lt, e)):
                shift = {tuple(y - x for x, y in zip(lt, e)): fld.neg(c)}
                for f, d in ref_mul(shift, g, fld).items():
                    terms[f] = fld.add(terms.get(f, 0), d)
                    if not terms[f]:
                        del terms[f]
                break
        else:
            remainder[e] = c
            del terms[e]
    return remainder


def ref_text(terms, ring, order):
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=lambda e: order_key(order, e), reverse=True):
        factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(ring.variables, e) if k]
        c = ring.field.format_element(terms[e])
        if factors and "+" in c:
            c = f"({c})"
        parts.append("*".join(factors if terms[e] == 1 and factors else [c] + factors))
    return " + ".join(parts)


def ref_to_ring(terms, source, target):
    out = {}
    for e, c in terms.items():
        exps = dict(zip(source.variables, e))
        out[tuple(exps.get(v, 0) for v in target.variables)] = c
    return out


def ref_standard(lts, bounds, order):
    box = [()]
    for bound in bounds:
        box = [m + (k,) for m in box for k in range(bound)]
    std = [m for m in box if not any(all(x <= y for x, y in zip(lt, m)) for lt in lts)]
    return sorted(std, key=lambda e: order_key(order, e))


def random_terms(rng, fld, nvars, count, deg):
    return {tuple(rng.randrange(deg) for _ in range(nvars)): rng.randrange(1, fld.q)
            for _ in range(count)}


NAMES = ["w", "x", "y", "z"]


@pytest.mark.parametrize("kind", ["lex", "grlex"])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 4, 7])
def test_ring_operations_match_the_tuple_oracle(q, nvars, kind):
    fld = GF(q)
    ring = PolyRing(fld, NAMES[:nvars])
    order = ring.lex() if kind == "lex" else grlex_order(ring.nvars)
    rng = random.Random(f"{q}:{nvars}:{kind}")
    # a larger ring holding the variables in another order, among new ones
    big_names = NAMES[:nvars] + ["u", "v"]
    rng.shuffle(big_names)
    big = PolyRing(fld, big_names)
    for _ in range(12):
        a = random_terms(rng, fld, nvars, rng.randrange(1, 7), 5)
        b = random_terms(rng, fld, nvars, rng.randrange(1, 7), 5)
        pa, pb = from_terms(ring, a), from_terms(ring, b)
        assert tuple_terms(pa) == a
        assert tuple_terms(pa * pb) == ref_mul(a, b, fld)
        lt, lc = pa.leading(order)
        assert (tuple_terms(Poly(ring, {lt: lc})).popitem()) == ref_leading(a, order)
        assert pa.text(order) == ref_text(a, ring, order)
        assert parse_poly(ring, pa.text(order)) == pa
        assert tuple_terms(pa.to_ring(big)) == ref_to_ring(a, ring, big)
        assert pa.to_ring(big).to_ring(ring) == pa


@pytest.mark.parametrize("kind", ["lex", "grlex"])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 4, 7])
def test_reduction_matches_the_tuple_oracle(q, nvars, kind):
    fld = GF(q)
    ring = PolyRing(fld, NAMES[:nvars])
    order = ring.lex() if kind == "lex" else grlex_order(ring.nvars)
    rng = random.Random(f"{q}:{nvars}:{kind}:nf")
    # pure powers of all but the last variable, and one or two random
    # relations, so the quotient is finite or capped
    caps = [rng.randrange(2, 5) for _ in range(nvars)]
    gens = [{tuple(c if k == i else 0 for k in range(nvars)): 1}
            for i, c in enumerate(caps[:-1])]
    gens += [random_terms(rng, fld, nvars, 3, 3) for _ in range(rng.randrange(1, 3))]
    gb = buchberger([from_terms(ring, g) for g in gens], order)
    divisors = [tuple_terms(g) for g in gb.polys]
    for _ in range(10):
        p = random_terms(rng, fld, nvars, rng.randrange(0, 8), 6)
        assert tuple_terms(normal_form(from_terms(ring, p), gb)) == ref_reduce(
            p, divisors, order, fld)
    lts = [ref_leading(g, order)[0] for g in divisors]
    bounds = [min([lt[i] for lt in lts if sum(lt) == lt[i] > 0] + [4]) for i in range(nvars)]
    std = [tuple_terms(Poly(ring, {m: 1})).popitem()[0]
           for m in standard_monomials(gb, cap=4)]
    assert std == ref_standard(lts, bounds, order)
