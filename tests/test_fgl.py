from fractions import Fraction

import pytest

from chernlab.errors import (
    IncompatibleRing,
    NonIntegralCoefficient,
    PrecisionExceeded,
    ResourceLimit,
    ValidationError,
)
from chernlab.fgl import FGL, _integral_law, _uni_mul, honda_fgl, multiplicative_fgl
from chernlab.field import GF
from chernlab.groebner import cap_ring


# -- the printed series -------------------------------------------------------

def test_height2_p2_series():
    law = honda_fgl(2, 2, 32)
    assert law.mul_series(2) == {4: 1}
    assert law.mul_series(-1) == {1: 1, 4: 1, 10: 1, 16: 1, 22: 1}
    extra = [k for k in law.terms if k not in ((1, 0), (0, 1), (2, 2))]
    assert law.terms[(2, 2)] == 1
    assert all(i >= 4 and j >= 4 for i, j in extra)


def test_height2_p3_series():
    law = honda_fgl(3, 2, 16)
    assert law.mul_series(3) == {9: 1}
    assert law.mul_series(-1) == {1: 2}
    assert {d: c for d, c in law.mul_series(2).items() if d < 12} == {1: 2, 9: 1}
    extra = [k for k in law.terms if k not in ((1, 0), (0, 1))]
    assert all(i >= 3 and j >= 3 for i, j in extra)


def test_unit_axiom_all_laws():
    for law in (honda_fgl(2, 2, 16), honda_fgl(3, 2, 16), honda_fgl(2, 3, 16),
                multiplicative_fgl(3, 16)):
        assert all(c == 0 for (i, j), c in law.terms.items() if j == 0 and i != 1)
        assert all(c == 0 for (i, j), c in law.terms.items() if i == 0 and j != 1)
        assert law.terms[(1, 0)] == law.terms[(0, 1)] == 1


# -- the integer construction against a rational oracle -------------------------

def _trunc_mul(a, b, prec):
    """Product of truncated series keyed by exponent tuples."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(u + v for u, v in zip(ka, kb))
            if sum(k) < prec:
                out[k] = out.get(k, 0) + ca * cb
    return out


def _rational_honda_terms(p, n, prec):
    """Terms mod p of l^{-1}(l(x) + l(y)) for l(x) = sum_i x^{p^{ni}}/p^i,
    built over the rationals from power tables."""
    log = {p ** (n * i): Fraction(1, p ** i) for i in range(prec) if p ** (n * i) < prec}
    inv = {(1,): Fraction(1)}
    while True:  # inv <- x + inv - l(inv), one more correct degree per pass
        new, power = dict(inv), {(0,): 1}
        new[(1,)] += 1
        for d in range(1, max(log) + 1):
            power = _trunc_mul(power, inv, prec)
            for k, c in power.items():
                new[k] = new.get(k, 0) - log.get(d, 0) * c
        new = {k: c for k, c in new.items() if c}
        if new == inv:
            break
        inv = new
    s = {}
    for d, c in log.items():
        s[(d, 0)] = s[(0, d)] = c
    law, power = {}, {(0, 0): 1}
    for d in range(1, prec):
        power = _trunc_mul(power, s, prec)
        for k, c in power.items():
            law[k] = law.get(k, 0) + inv.get((d,), 0) * c
    assert all(c.denominator == 1 for c in law.values())
    return {k: c.numerator % p for k, c in law.items() if c.numerator % p}


# (2, 9, 64) and (3, 40, 16): p^n past prec, where honda_fgl caps n
@pytest.mark.parametrize("p,n,prec", [(2, 2, 32), (3, 2, 64), (2, 3, 64), (7, 1, 64),
                                      (2, 2, 48), (2, 1, 32), (3, 1, 40), (5, 1, 64),
                                      (2, 9, 64), (3, 40, 16)])
def test_integer_law_matches_rational_oracle(p, n, prec):
    assert honda_fgl(p, n, prec).terms == _rational_honda_terms(p, n, prec)


def _termwise_add_series(law, a, b):
    """F(a, b) mod p as the sum over terms of c_ij a^i b^j, one product each."""
    pa, pb = [{0: 1}], [{0: 1}]
    for _ in range(max(i for i, _ in law.terms)):
        pa.append(_uni_mul(pa[-1], a, law.prec))
    for _ in range(max(j for _, j in law.terms)):
        pb.append(_uni_mul(pb[-1], b, law.prec))
    out = {}
    for (i, j), c in law.terms.items():
        for d, v in _uni_mul(pa[i], pb[j], law.prec).items():
            out[d] = out.get(d, 0) + c * v
    return {d: c % law.p for d, c in out.items() if c % law.p}


@pytest.mark.parametrize("p,n,prec", [(2, 2, 32), (5, 1, 64)])
def test_add_series_matches_termwise_sum(p, n, prec):
    law = honda_fgl(p, n, prec)
    two, neg = law.mul_series(2), law.mul_series(-1)
    for a, b in ((two, two), (two, neg), (neg, {1: 1}), ({1: 1}, neg)):
        assert law.add_series(a, b) == _termwise_add_series(law, a, b)


@pytest.mark.parametrize("make", [
    lambda: honda_fgl(2, 1, 64), lambda: honda_fgl(2, 2, 32), lambda: honda_fgl(3, 2, 16),
    lambda: honda_fgl(5, 1, 64), lambda: multiplicative_fgl(3, 64),
], ids=["honda-2-1-64", "honda-2-2-32", "honda-3-2-16", "honda-5-1-64", "mult-3-64"])
def test_negative_series_cancels(make):
    # [-k] is read as [-k mod p^N], p^N the least power of p >= prec
    law = make()
    period = law.p
    while period < law.prec:
        period *= law.p
    for k in (1, 2, 7, period, period + 1):
        assert law.add_series(law.mul_series(k), law.mul_series(-k)) == {}, k


def _doubling_chain(law, k):
    """[k](x) by binary doubling and adding x, without reading k mod p^N."""
    out = {}
    for bit in bin(k)[2:]:
        out = law.add_series(out, out)
        if bit == "1":
            out = law.add_series(out, {1: 1})
    return out


@pytest.mark.parametrize("make", [
    lambda: honda_fgl(2, 1, 32), lambda: honda_fgl(3, 2, 16), lambda: multiplicative_fgl(2, 64),
], ids=["honda-2-1-32", "honda-3-2-16", "mult-2-64"])
def test_series_past_the_period_reads_k_mod_period(make):
    # [k + p^N] = F([k], [p^N]) = F([k], 0) = [k] mod x^prec; a k past p^N
    # is read mod p^N instead of walking a doubling chain of its bit length
    law = make()
    period = law.p
    while period < law.prec:
        period *= law.p
    for k in (period, period + 1, 3 * period + 5, 2**600 + 3):
        assert law.mul_series(k) == _doubling_chain(law, k), k
    if law.p == 2:
        assert law.mul_series(2**600 + 3) == law.mul_series(3)


def test_negative_series_checks_p_power_torsion():
    # x + y + x^2 y^2 is no formal group law over F_3: [9](x) != 0 mod x^8
    law = FGL(3, 1, 8, {(1, 0): 1, (0, 1): 1, (2, 2): 1}, "test")
    with pytest.raises(ValidationError, match=r"\[9\]\(x\)"):
        law.mul_series(-1)


def test_non_honda_logarithm_is_not_p_integral():
    # l(x) = x + x^3/2 at p = 2 has F = x + y - (3/2) x^2 y + ...; the integer
    # construction takes L(x) = l(2x)/2 = x + 2x^3
    with pytest.raises(NonIntegralCoefficient):
        _integral_law({1: 1, 3: 2}, 2, 8)


# -- axioms checked symbolically in capped rings ------------------------------

@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_associativity_and_commutativity(p, n):
    law = honda_fgl(p, n, 32)
    q = cap_ring(GF(p), ["x", "y", "z"], total=10)
    x, y, z = q.gen("x"), q.gen("y"), q.gen("z")
    left = law.add_in_ring(law.add_in_ring(x, y, q), z, q)
    right = law.add_in_ring(x, law.add_in_ring(y, z, q), q)
    assert left == right
    assert law.add_in_ring(x, y, q) == law.add_in_ring(y, x, q)
    assert law.add_in_ring(x, q.ring.zero(), q) == x


def test_jk_composition():
    law = honda_fgl(2, 2, 32)
    q = cap_ring(GF(2), ["x"], [16])
    x = q.gen("x")
    for j in range(-2, 5):
        for k in range(-2, 5):
            lhs = law.mul_in_ring(j * k, x, q)
            rhs = law.mul_in_ring(j, law.mul_in_ring(k, x, q), q)
            assert lhs == rhs, (j, k)


def test_addition_law_of_series():
    # [j+k](x) = F([j](x), [k](x))
    law = honda_fgl(3, 2, 24)
    q = cap_ring(GF(3), ["x"], [10])
    x = q.gen("x")
    for j in range(-2, 4):
        for k in range(-2, 4):
            lhs = law.mul_in_ring(j + k, x, q)
            rhs = law.add_in_ring(
                law.mul_in_ring(j, x, q), law.mul_in_ring(k, x, q), q
            )
            assert lhs == rhs, (j, k)


def test_height_property():
    for p, n in ((2, 2), (2, 3), (3, 2)):
        law = honda_fgl(p, n, 32)
        expected = {p ** n: 1} if p ** n < 32 else {}
        assert law.mul_series(p) == expected


def test_psi_periodicity():
    # where x^{p^{nw}} = 0, [k] and [l] agree when k = l mod p^w
    law = honda_fgl(2, 2, 32)
    for w, pairs in ((1, [(1, 5), (2, 6), (3, -1)]), (2, [(1, 17), (3, 19)])):
        q = cap_ring(GF(2), ["x"], [2 ** (2 * w)])
        x = q.gen("x")
        for k, l in pairs:
            assert law.mul_in_ring(k, x, q) == law.mul_in_ring(l, x, q), (w, k, l)


def test_p_torsion():
    law = honda_fgl(2, 2, 32)
    q = cap_ring(GF(2), ["x"], [30])
    a = q.gen("x")
    m = 0
    val = a
    while val and m < 10:
        val = law.mul_in_ring(2, val, q)
        m += 1
    assert not val and m <= 5


def test_multiplicative_law():
    law = multiplicative_fgl(2, 16)
    assert law.terms == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    # [k](x) = 1 - (1-x)^k
    q = cap_ring(GF(2), ["x"], [8])
    x = q.gen("x")
    one = q.ring.one()
    for k in range(1, 6):
        expected = q.reduce(one - q.pow(q.reduce(one - x), k))
        assert law.mul_in_ring(k, x, q) == expected


def test_precision_guard():
    law = honda_fgl(2, 2, 8)
    q = cap_ring(GF(2), ["x"], [12])
    with pytest.raises(PrecisionExceeded):
        law.add_in_ring(q.gen("x"), q.gen("x"), q)


def test_every_evaluation_checks_the_characteristic():
    # a 2-typical law has no meaning in a ring of characteristic 3
    law = honda_fgl(2, 2, 32)
    q = cap_ring(GF(3), ["x"], [8])
    x = q.gen("x")
    with pytest.raises(IncompatibleRing):
        law.add_in_ring(x, x, q)
    with pytest.raises(IncompatibleRing):
        law.mul_in_ring(2, x, q)
    with pytest.raises(IncompatibleRing):
        law.eval_series({1: 1}, x, q)


def test_a_lone_summand_comes_back_reduced():
    law = honda_fgl(2, 2, 32)
    q = cap_ring(GF(2), ["x"], [8])
    x = q.ring.gen("x")
    assert law.sum_in_ring([x ** 9 + x], q) == x
    assert law.sum_in_ring([], q) == q.ring.zero()


def test_a_first_summand_past_the_precision_still_raises():
    # x^8 survives in the cap at 12, so x is not nilpotent within 8
    law = honda_fgl(2, 2, 8)
    q = cap_ring(GF(2), ["x"], [12])
    with pytest.raises(PrecisionExceeded):
        law.sum_in_ring([q.gen("x"), q.ring.zero()], q)


def test_precision_ceiling():
    with pytest.raises(ResourceLimit):
        honda_fgl(2, 2, 100)


def test_add_in_big_ring_x_plus_x():
    law = honda_fgl(2, 2, 32)
    q = cap_ring(GF(4), ["x"], [32])
    x = q.gen("x")
    assert law.add_in_ring(x, x, q) == q.pow(x, 4)
