"""The builtin group models' derived tables against brute-force oracles
computed here from the multiplication table alone."""

import random
from itertools import product
from math import lcm

import pytest

from chernlab.groups import (
    GroupModel, builtin_model, orbit_of, p_part_exponent, parse_group_name,
    power_exceeds, symplectic_form,
)
from chernlab.omega import enumerate_omega

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


@pytest.mark.parametrize("name", MODELS + ["c1000"])
def test_orders_and_exponent(name):
    model = builtin_model(name)
    orders = [order_oracle(model, i) for i in range(model.size)]
    assert model.orders == orders
    assert model.exponent == lcm(*orders)


def test_conj_is_g_x_g_inverse(model):
    # a row is kept for each generator s only: x -> s x s^-1
    t, inv = model.table, model.inverse
    assert len(model.gen_conj) == len(model.gens)
    for s, row in zip(model.gens, model.gen_conj):
        assert s != model.identity
        assert row == [t[t[s][x]][inv[s]] for x in range(model.size)]
    assert model.closure(model.gens) == set(range(model.size))


@pytest.mark.parametrize("name", ["sigma6", "c1000"])
def test_the_model_keeps_few_conjugation_rows(name):
    # each generator at least doubles the subgroup reached, and the
    # identity is no generator, so there are at most log2(n) of them
    model = builtin_model(name)
    assert not hasattr(model, "conj")
    assert len(model.gen_conj) <= model.size.bit_length()
    assert all(len(row) == model.size for row in model.gen_conj)


def brute_orbit(seed, perms):
    orbit = {seed}
    while True:
        grown = orbit | {tuple(s[x] for x in t) for t in orbit for s in perms}
        if grown == orbit:
            return orbit
        orbit = grown


def test_orbit_of_matches_the_brute_force_closure():
    rng = random.Random(20261019)
    for _ in range(200):
        degree = rng.randint(1, 7)
        perms = [rng.sample(range(degree), degree) for _ in range(rng.randint(0, 3))]
        seed = tuple(rng.randrange(degree) for _ in range(rng.randint(1, 3)))
        assert orbit_of(seed, perms) == brute_orbit(seed, perms), (seed, perms)
    assert orbit_of((2, 0), []) == {(2, 0)}


def omega_oracle(model, p, n):
    """Least image under all |G| conjugations of each commuting n-tuple of
    p-power elements."""
    t, inv = model.table, model.inverse
    pelems = [i for i in range(model.size) if is_p_power(order_oracle(model, i), p)]
    reps = set()
    for tup in product(pelems, repeat=n):
        if all(t[a][b] == t[b][a] for a in tup for b in tup):
            reps.add(min(tuple(t[t[g][x]][inv[g]] for x in tup)
                         for g in range(model.size)))
    return sorted(reps)


@pytest.mark.parametrize("n", [1, 2])
def test_enumerate_omega_matches_the_brute_force(model, n):
    for p in (2, 3, 5, 7):
        if model.size % p == 0:
            assert enumerate_omega(model, p, n) == omega_oracle(model, p, n), p


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


def group_law(name):
    """The group law of a builtin model, rebuilt here from its definition."""
    kind, args = parse_group_name(name)
    if kind == "trivial":
        return lambda a, b: 0
    if kind == "c":
        (m,) = args
        return lambda a, b: (a + b) % m
    if kind == "cxc":
        m, k = args
        return lambda x, y: ((x[0] + y[0]) % m, (x[1] + y[1]) % k)
    if kind in ("sigma", "d8"):
        # (a*b)(x) = a(b(x))
        return lambda a, b: tuple(a[i] for i in b)
    p, d = args
    form = symplectic_form(d)
    return lambda g, h: ((g[0] + h[0] + form(g[1:], h[1:], p)) % p,) + tuple(
        (a + c) % p for a, c in zip(g[1:], h[1:]))


@pytest.mark.parametrize("name", MODELS + ["sigma5", "extraspecial(3,2)"])
def test_the_table_is_the_law(name):
    model = builtin_model(name)
    law, elems, index = group_law(name), model.elements, model.index
    assert model.table == [[index[law(a, b)] for b in elems] for a in elems]


@pytest.mark.parametrize("name", ["extraspecial(5,1)", "c2xc4", "sigma4"])
def test_the_table_takes_few_law_calls(name):
    # each generator row costs n calls, and each generator at least doubles
    # the subgroup reached, so there are at most k = log2(n) + 1 of them
    law, calls = group_law(name), []

    def counted(a, b):
        calls.append(1)
        return law(a, b)

    reference = builtin_model(name)
    n = reference.size
    model = GroupModel(name, reference.elements, counted)
    assert model.table == reference.table
    assert len(calls) <= n.bit_length() * n < n * n


def test_an_element_list_that_is_not_closed_raises():
    with pytest.raises(KeyError):
        GroupModel("not closed", [0, 1, 2], lambda a, b: (a + b) % 4)


def brute_closure(model, gens):
    closure = {model.identity, *gens}
    while True:
        grown = closure | {model.table[a][b] for a in closure for b in closure}
        if grown == closure:
            return closure
        closure = grown


def test_closure_matches_the_brute_force_on_every_pair_of_sigma4():
    s4 = builtin_model("sigma4")
    for g in range(s4.size):
        for h in range(s4.size):
            assert s4.closure([g, h]) == brute_closure(s4, [g, h]), (g, h)
    assert s4.closure([]) == {s4.identity}


def test_d8_is_the_closure_of_a_4_cycle_and_a_reflection():
    s4, d8 = builtin_model("sigma4"), builtin_model("d8")
    r, s = (1, 2, 3, 0), (2, 1, 0, 3)
    gens = [s4.index[r], s4.index[s]]
    assert d8.elements == [s4.elements[i] for i in sorted(brute_closure(s4, gens))]
    assert d8.elements == s4.subgroup([r, s], "d8").elements
    assert d8.size == 8


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
