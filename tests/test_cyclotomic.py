import random

import pytest

from chernlab.cyclotomic import Cyclo, cyclotomic_polynomial
from chernlab.errors import InexactDivision


def schoolbook_mul(cy, a, b):
    """The power-basis product: convolve, then reduce x^k = zeta^(k mod e)."""
    deg = cy.degree
    conv = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    out = list(conv[:deg])
    for k in range(deg, len(conv)):
        c = conv[k]
        if c:
            red = cy.root_power(k)
            for i in range(deg):
                out[i] += c * red[i]
    return tuple(out)


KERNEL_CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 36)


def random_elements(cy, rng, count):
    """Roots of unity c*zeta^k for c = +-1, +-2, +-3 and every k < e (so k >=
    phi(e) too, which spreads over several coordinates), zero, and random
    non-monomials."""
    out = [cy.zero, cy.one]
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            out.append(cy.root_power(rng.randrange(cy.e)))
        elif kind == 1:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            out.append(cy.scale(c, cy.root_power(rng.randrange(cy.e))))
        else:
            out.append(tuple(rng.randint(-4, 4) for _ in range(cy.degree)))
    return out


@pytest.mark.parametrize("e", KERNEL_CONDUCTORS)
def test_kernel_matches_schoolbook_oracle(e):
    cy = Cyclo(e)
    rng = random.Random(e)
    xs = random_elements(cy, rng, 40)
    ys = random_elements(cy, rng, 40)
    for a, b in zip(xs, ys):
        assert cy.mul(a, b) == schoolbook_mul(cy, a, b)
    for _ in range(20):
        n = rng.randint(0, len(xs))
        weights = [rng.randint(-5, 5) for _ in range(n)]
        expected = cy.zero
        for w, a, b in zip(weights, xs, ys):
            expected = cy.add(expected, cy.scale(w, schoolbook_mul(cy, a, b)))
        lifted_x = [cy.lift(a) for a in xs[:n]]
        lifted_y = [cy.lift(b) for b in ys[:n]]
        assert cy.product_sum(weights, lifted_x, lifted_y) == expected


@pytest.mark.parametrize("e", KERNEL_CONDUCTORS)
def test_lift_reduce_and_conjugate(e):
    cy = Cyclo(e)
    rng = random.Random(100 + e)
    for k in range(e):
        assert cy.lift(cy.root_power(k)) == ((k, 1),)
    for a in random_elements(cy, rng, 60):
        lifted = cy.lift(a)
        assert all(0 <= k < e and c for k, c in lifted)
        assert cy.reduce(dict(lifted)) == a
        assert cy.reduce({-k % e: c for k, c in lifted}) == cy.conjugate(a)


def termwise_conjugate(cy, a):
    """Conjugation one power-basis coordinate at a time: sum_k a_k zeta^(-k)."""
    out = cy.zero
    for k, c in enumerate(a):
        if c:
            out = cy.add(out, cy.scale(c, cy.root_power((-k) % cy.e)))
    return out


@pytest.mark.parametrize("e", (1, 2, 3, 4, 6, 8, 9, 12, 36))
def test_conjugate_matches_termwise_oracle(e):
    cy = Cyclo(e)
    for k in range(e):
        root = cy.root_power(k)
        assert cy.conjugate(root) == termwise_conjugate(cy, root) == cy.root_power(-k)
    for a in random_elements(cy, random.Random(300 + e), 60):
        assert cy.conjugate(a) == termwise_conjugate(cy, a)


@pytest.mark.parametrize("e", [e for e in KERNEL_CONDUCTORS if 36 % e == 0])
def test_embedding_is_exponent_scaling(e):
    small, big = Cyclo(e), Cyclo(36)
    rng = random.Random(200 + e)
    for a in random_elements(small, rng, 30):
        expected = big.zero
        for k, c in enumerate(a):
            expected = big.add(expected, big.scale(c, big.root_power(k * 36 // e)))
        assert big.embed_from(small, a) == expected


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_powers_cycle():
    for e in (3, 4, 6, 12):
        cy = Cyclo(e)
        z = cy.root_power(1)
        acc = cy.one
        for k in range(1, 2 * e + 1):
            acc = cy.mul(acc, z)
            assert acc == cy.root_power(k % e)


def test_ring_axioms_random():
    cy = Cyclo(12)
    rng = random.Random(4)

    def rand():
        return tuple(rng.randint(-3, 3) for _ in range(cy.degree))

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert cy.mul(a, b) == cy.mul(b, a)
        assert cy.mul(cy.mul(a, b), c) == cy.mul(a, cy.mul(b, c))
        assert cy.mul(a, cy.add(b, c)) == cy.add(cy.mul(a, b), cy.mul(a, c))


def test_conjugation_is_ring_automorphism():
    cy = Cyclo(12)
    rng = random.Random(8)
    for _ in range(30):
        a = tuple(rng.randint(-3, 3) for _ in range(cy.degree))
        b = tuple(rng.randint(-3, 3) for _ in range(cy.degree))
        assert cy.conjugate(cy.mul(a, b)) == cy.mul(cy.conjugate(a), cy.conjugate(b))
        assert cy.conjugate(cy.conjugate(a)) == a


def test_rational_recognition():
    cy = Cyclo(3)
    s = cy.add(cy.root_power(1), cy.root_power(2))  # = -1
    assert cy.is_rational(s) and cy.rational_value(s) == -1
    with pytest.raises(InexactDivision):
        cy.rational_value(cy.root_power(1))


def test_embedding():
    big, small = Cyclo(12), Cyclo(3)
    img = big.embed_from(small, small.root_power(1))
    assert img == big.root_power(4)


def test_exact_division():
    cy = Cyclo(4)
    assert cy.divide_exact((4, -8), 4) == (1, -2)
    with pytest.raises(InexactDivision):
        cy.divide_exact((3, 0), 2)
