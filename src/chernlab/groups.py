"""Explicit finite group models: element tables, conjugacy, power maps.

Elements are hashable encodings (ints for cyclic groups, tuples for
permutations and extraspecial groups).  The multiplication table, the
generators' conjugation rows, element orders and conjugacy classes are
built once with the model (the multiplication table from a few generators'
rows, k·n law calls rather than n^2), so enumeration loops run on plain
list lookups.  Every conjugation orbit and subgroup closure is one walk,
``orbit_of``, under a generating set.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations, product
from math import factorial, gcd, lcm

from .errors import ResourceLimit, UnknownGroup, ValidationError
from .field import is_prime

GROUP_ORDER_CEILING = 1000  # largest order a builtin model is built for


def p_part_exponent(m: int, p: int) -> int:
    """The exponent of the prime p in the integer m != 0."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def power_exceeds(p: int, e: int, bound: int) -> bool:
    """Whether p^e > bound (p >= 2, e >= 0), never building p^e past the
    bound: p^e >= 2^e passes it once e reaches the bound's bit length."""
    return e >= bound.bit_length() or p ** e > bound


def orbit_of(seed: tuple, perms) -> set[tuple]:
    """The orbit of a tuple of indices under the group generated by the
    index permutations ``perms``, each acting on every entry: |orbit| x
    len(perms) steps (inverses are powers, as the group is finite)."""
    orbit = {seed}
    work = [seed]
    while work:
        t = work.pop()
        for s in perms:
            u = tuple(s[x] for x in t)
            if u not in orbit:
                orbit.add(u)
                work.append(u)
    return orbit


class GroupModel:
    """A finite group on element indices 0..size-1 (in sorted element
    order), with its derived data as plain attributes: ``table``, ``gens``
    (the table fill's generators, less the identity) and ``gen_conj``
    (gen_conj[j][x] = s x s^{-1} for s = gens[j]), ``inverse``, ``orders``,
    ``exponent``, ``classes`` (as conjugacy_classes() sorts them) and
    ``class_of`` (element index -> class index).

    ``table[g]`` is the row x -> g x.  Each element not reached yet is a
    generator whose row the law gives (n calls); the others' rows are
    composed, row_{hs} = [row_h[x] for x in row_s].  Each generator at least
    doubles the subgroup reached, so there are at most log2(n) + 1.  This
    rests on every builtin law being associative; a product outside the
    element list lies in a generator's row and raises KeyError."""

    def __init__(self, name: str, elements: list, mult_fn):
        self.name = name
        self.elements = elems = sorted(elements)
        self.size = n = len(elems)
        self.index = index = {e: i for i, e in enumerate(elems)}
        table = self.table = [None] * n
        gens = []
        for g in range(n):
            if table[g] is not None:
                continue
            table[g] = [index[mult_fn(elems[g], b)] for b in elems]
            gens.append(g)
            # close the rows under right multiplication by every generator
            work = [h for h in range(n) if table[h] is not None]
            while work:
                row = table[work.pop()]
                for s in gens:
                    hs = row[s]
                    if table[hs] is None:
                        table[hs] = [row[x] for x in table[s]]
                        work.append(hs)
        self.identity = e = table[0].index(0)
        self.inverse = inverse = [row.index(e) for row in table]
        self.gens = gens = [s for s in gens if s != e]
        self.gen_conj = [[table[t][inverse[s]] for t in table[s]] for s in gens]
        # walk each <g> once: ord(g^k) = m / gcd(k, m) for m = ord(g)
        self.orders = orders = [0] * n
        for i in range(n):
            if orders[i]:
                continue
            cycle, g = [e], i
            while g != e:
                cycle.append(g)
                g = table[g][i]
            m = len(cycle)
            for k, g in enumerate(cycle):
                orders[g] = m // gcd(k, m)
        self.exponent = lcm(*orders)
        self.classes = self.conjugacy_classes()
        self.class_of = [0] * n
        for ci, cls in enumerate(self.classes):
            for x in cls:
                self.class_of[x] = ci

    def power(self, i: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse[i], -k)
        r = self.identity
        b = i
        while k:
            if k & 1:
                r = self.table[r][b]
            b = self.table[b][b]
            k >>= 1
        return r

    def conjugacy_classes(self) -> list[list[int]]:
        """The orbits under the generators' conjugation rows, sorted by
        (element order, size, least member); members sorted.  Read it as
        ``classes``."""
        seen, classes = set(), []
        for i in range(self.size):
            if i not in seen:
                classes.append(sorted(x for (x,) in orbit_of((i,), self.gen_conj)))
                seen.update(classes[-1])
        orders = self.orders
        classes.sort(key=lambda c: (orders[c[0]], len(c), self.elements[c[0]]))
        return classes

    def class_power(self, ci: int, k: int) -> int:
        return self.class_of[self.power(self.classes[ci][0], k)]

    def p_power_class_indices(self, p: int) -> list[int]:
        return [ci for ci, cls in enumerate(self.classes)
                if (o := self.orders[cls[0]]) == p ** p_part_exponent(o, p)]

    def p_power_elements(self, p: int) -> list[int]:
        return [i for i, o in enumerate(self.orders) if o == p ** p_part_exponent(o, p)]

    def closure(self, indices) -> set[int]:
        """The subgroup generated by the given element indices: the identity's
        orbit under left multiplication by them, the rows ``table[g]``."""
        return {x for (x,) in orbit_of((self.identity,), [self.table[g] for g in indices])}

    def subgroup(self, generator_elems: list, name: str) -> "GroupModel":
        """Closure of the generators, as a standalone model."""
        closure = self.closure(self.index[e] for e in generator_elems)
        elems = [self.elements[i] for i in sorted(closure)]

        def mult(a, b):
            return self.elements[self.table[self.index[a]][self.index[b]]]

        return GroupModel(name, elems, mult)

    def fusion_into(self, parent: "GroupModel") -> list[int]:
        """Class fusion map (self classes -> parent classes) for a subgroup
        whose elements are encoded identically in the parent."""
        return [parent.class_of[parent.index[self.elements[cls[0]]]] for cls in self.classes]

    def __repr__(self):
        return f"GroupModel({self.name}, order {self.size})"


# -- builtin models -----------------------------------------------------------

def _perm_mult(a: tuple, b: tuple) -> tuple:
    # (a*b)(x) = a(b(x))
    return tuple(a[b[i]] for i in range(len(a)))


def _check_order(name: str, order: int) -> None:
    """Refuse a builtin model before its N x N table is filled."""
    if order > GROUP_ORDER_CEILING:
        raise ResourceLimit(f"{name} is past the group-order ceiling {GROUP_ORDER_CEILING}")


@lru_cache(maxsize=None)
def model_symmetric(k: int) -> GroupModel:
    _check_order(f"sigma{k}", factorial(k))
    return GroupModel(f"sigma{k}", list(permutations(range(k))), _perm_mult)


@lru_cache(maxsize=None)
def model_trivial() -> GroupModel:
    return GroupModel("trivial", [0], lambda a, b: 0)


@lru_cache(maxsize=None)
def model_cyclic(m: int) -> GroupModel:
    _check_order(f"c{m}", m)
    return GroupModel(f"c{m}", list(range(m)), lambda a, b: (a + b) % m)


@lru_cache(maxsize=None)
def model_cyclic_product(m: int, k: int) -> GroupModel:
    _check_order(f"c{m}xc{k}", m * k)
    elems = [(a, b) for a in range(m) for b in range(k)]
    return GroupModel(
        f"c{m}xc{k}", elems, lambda x, y: ((x[0] + y[0]) % m, (x[1] + y[1]) % k)
    )


@lru_cache(maxsize=None)
def model_dihedral8() -> GroupModel:
    s4 = model_symmetric(4)
    r = (1, 2, 3, 0)  # the 4-cycle (0123)
    s = (2, 1, 0, 3)  # the transposition (02)
    return s4.subgroup([r, s], "d8")


def symplectic_form(d: int):
    """Gram data of the standard alternating form on F_p^{2d}: hyperbolic
    pairs (e_i, f_i)."""

    def b(u: tuple, v: tuple, p: int) -> int:
        total = 0
        for i in range(d):
            total += u[i] * v[d + i] - u[d + i] * v[i]
        return total % p

    return b


@lru_cache(maxsize=None)
def model_extraspecial(p: int, d: int) -> GroupModel:
    """Order p^{2d+1}, exponent p: F_p x F_p^{2d} with multiplication twisted
    by the standard symplectic form."""
    if d < 1:
        raise ValidationError("extraspecial model requires d >= 1")
    # 3^21 is past the ceiling, so capping d at 10 changes no verdict for p >= 3
    _check_order(f"extraspecial({p},{d})", p ** (2 * min(d, 10) + 1))
    if p == 2 or not is_prime(p):
        raise ValidationError("extraspecial model requires an odd prime")
    b = symplectic_form(d)
    elems = list(product(range(p), repeat=2 * d + 1))

    def mult(g, h):
        x, u = g[0], g[1:]
        y, v = h[0], h[1:]
        return ((x + y + b(u, v, p)) % p,) + tuple((a + c) % p for a, c in zip(u, v))

    return GroupModel(f"extraspecial({p},{d})", elems, mult)


# name grammar of the builtin groups: (kind, pattern with integer groups)
_GROUP_NAMES = (
    ("trivial", r"trivial"),
    ("c", r"c(\d+)"),
    ("cxc", r"c(\d+)xc(\d+)"),
    ("sigma", r"sigma(\d)"),
    ("d8", r"d8"),
    ("extraspecial", r"extraspecial\((\d+),(\d+)\)"),
)


def parse_group_name(name: str) -> tuple[str, tuple[int, ...]] | None:
    """(kind, integer parameters) of a builtin group name, or None.

    Kinds: trivial, c (cyclic of order m), cxc (C_m x C_k), sigma (symmetric
    of degree k), d8, extraspecial (p^{1+2d}; spaces inside are ignored).
    """
    key = name.strip().lower()
    for kind, pattern in _GROUP_NAMES:
        m = re.fullmatch(pattern, key.replace(" ", "") if kind == "extraspecial" else key)
        if m:
            args = tuple(int(g) for g in m.groups())
            if kind in ("c", "cxc") and min(args) < 1:
                raise ValidationError(f"cyclic factors need order at least 1: {name!r}")
            return kind, args
    return None


def builtin_model(name: str) -> GroupModel:
    kind, args = parse_group_name(name) or ("", ())
    make = {
        "trivial": model_trivial,
        "c": model_cyclic,
        "cxc": model_cyclic_product,
        "sigma": model_symmetric,
        "d8": model_dihedral8,
        "extraspecial": model_extraspecial,
    }.get(kind)
    if make is None:
        raise UnknownGroup(f"no builtin group model {name.strip().lower()!r}")
    return make(*args)
