"""The builtin group models' derived tables against brute-force oracles
computed here from the multiplication table alone."""

from math import lcm

import pytest

from chernlab.groups import builtin_model, p_part_exponent, power_exceeds

MODELS = ["trivial", "c4", "c2xc4", "c3xc6", "sigma3", "sigma4", "d8",
          "extraspecial(3,1)", "extraspecial(5,1)"]


def order_oracle(model, i):
    acc = model.table[model.identity][i]
    k = 1
    while acc != model.identity:
        acc = model.table[acc][i]
        k += 1
    return k


def power_oracle(model, i, k):
    base = model.inverse[i] if k < 0 else i
    acc = model.identity
    for _ in range(abs(k)):
        acc = model.table[acc][base]
    return acc


def is_p_power(o, p):
    while o % p == 0:
        o //= p
    return o == 1


@pytest.fixture(scope="module", params=MODELS)
def model(request):
    return builtin_model(request.param)


def test_orders_and_exponent(model):
    orders = [order_oracle(model, i) for i in range(model.size)]
    assert model.orders == orders
    assert model.exponent == lcm(*orders)


def test_conj_is_g_x_g_inverse(model):
    t, inv = model.table, model.inverse
    assert model.conj == [[t[t[g][x]][inv[g]] for x in range(model.size)]
                          for g in range(model.size)]


def test_classes_are_the_sorted_orbits(model):
    t, inv = model.table, model.inverse
    orbits = {frozenset(t[t[g][x]][inv[g]] for g in range(model.size))
              for x in range(model.size)}
    orders = [order_oracle(model, i) for i in range(model.size)]
    expected = sorted((sorted(o) for o in orbits),
                      key=lambda c: (orders[c[0]], len(c), model.elements[c[0]]))
    assert model.classes == expected
    assert model.classes == model.conjugacy_classes()
    assert [next(ci for ci, c in enumerate(expected) if x in c)
            for x in range(model.size)] == model.class_of


def test_class_power(model):
    e = model.exponent
    for ci, cls in enumerate(model.classes):
        for k in range(-e, e + 1):
            expected = model.class_of[power_oracle(model, cls[0], k)]
            assert model.class_power(ci, k) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_p_power_elements_and_classes(model, p):
    orders = [order_oracle(model, i) for i in range(model.size)]
    elems = [i for i, o in enumerate(orders) if is_p_power(o, p)]
    assert model.p_power_elements(p) == elems
    assert model.p_power_class_indices(p) == sorted({model.class_of[i] for i in elems})


@pytest.mark.parametrize("m, p, expected", [
    (1, 2, 0), (7, 3, 0), (8, 2, 3), (12, 2, 2), (-12, 2, 2), (-1, 5, 0),
    (2 * 3 ** 50, 3, 50), (5 ** 4, 5, 4),
])
def test_p_part_exponent(m, p, expected):
    assert p_part_exponent(m, p) == expected


def test_power_exceeds_matches_the_power_on_a_grid():
    for p in (2, 3, 5, 7):
        for e in range(0, 14):
            for bound in (0, 1, 2, 3, 7, 8, 9, 1000, 1023, 1024, 1025, 2 ** 20):
                assert power_exceeds(p, e, bound) == (p ** e > bound), (p, e, bound)


def test_power_exceeds_at_a_huge_exponent():
    # decided from the bound's bit length, without building p^e
    assert power_exceeds(2, 10 ** 100, 10 ** 6)
    assert power_exceeds(3, 10 ** 18, 0)
    assert not power_exceeds(10 ** 100, 0, 1)
