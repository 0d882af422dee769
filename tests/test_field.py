import random

import pytest

from chernlab.errors import DivisionByZero, ValidationError
from chernlab.field import GF, FiniteField


def check_field_axioms(fld, elements):
    for a in elements:
        assert fld.add(a, 0) == a
        assert fld.mul(a, 1) == a
        assert fld.add(a, fld.neg(a)) == 0
        if a:
            assert fld.mul(a, fld.inv(a)) == 1
        for b in elements:
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            for c in elements:
                assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
                assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
                assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_axioms_exhaustive(q):
    fld = GF(q)
    check_field_axioms(fld, list(range(fld.q)))


def test_axioms_f9_sampled():
    fld = GF(9)
    rng = random.Random(1)
    sample = [rng.randrange(9) for _ in range(5)] + [0, 1]
    check_field_axioms(fld, sample)


def test_f4_multiplication():
    # F4 = F2[g]/(g^2+g+1): g*g = g+1
    fld = GF(4)
    g = fld.parse_element("g")
    assert fld.format_element(fld.mul(g, g)) == "g+1"


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        GF(4).inv(0)


def test_reducible_modulus_rejected():
    with pytest.raises(ValidationError):
        FiniteField(2, [0, 0, 1])  # x^2 = x*x
    with pytest.raises(ValidationError):
        FiniteField(3, [2, 0, 1])  # x^2 - 1 = (x-1)(x+1)


def test_element_text_round_trip():
    fld = GF(9)
    for a in range(fld.q):
        assert fld.parse_element(fld.format_element(a)) == a
