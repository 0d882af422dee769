"""Exact arithmetic in Z[zeta_e] = Z[x]/Phi_e(x).

Elements are int tuples of length phi(e) in the power basis 1, zeta, ...,
zeta^{phi(e)-1}.  Conjugation is zeta -> zeta^{-1}; rational elements are
recognized exactly (unique coordinates in the power basis).

Products go through the group ring Z[C_e]: ``lift`` writes an element as
terms (k, c) meaning c*zeta^k, ``product_sum`` adds every product of terms
into one coefficient per exponent and reduces to the power basis once.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InexactDivision, ValidationError


def _poly_divmod_z(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials (den monic), low degree first."""
    num = list(num)
    q = [0] * max(1, len(num) - len(den) + 1)
    d = len(den) - 1
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        lead = num[-1]
        shift = len(num) - 1 - d
        q[shift] = lead
        for i, c in enumerate(den):
            num[shift + i] -= lead * c
    while num and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Phi_e as an integer coefficient tuple, low degree first."""
    if e == 1:
        return (-1, 1)
    num = [0] * (e + 1)
    num[0], num[e] = -1, 1
    den = [1]
    for d in range(1, e):
        if e % d == 0:
            phi_d = list(cyclotomic_polynomial(d))
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            den = new
    q, r = _poly_divmod_z(num, den)
    if r:
        raise ValidationError("cyclotomic polynomial division left a remainder")
    while q and q[-1] == 0:
        q.pop()
    return tuple(q)


class CyclotomicRing:
    """Z[zeta_e]; shared per conductor via Cyclo(e)."""

    def __init__(self, e: int):
        self.e = e
        self.phi_poly = cyclotomic_polynomial(e)
        self.degree = len(self.phi_poly) - 1
        # reduction table: zeta^k for 0 <= k < e as basis vectors
        self._root_powers: list[tuple[int, ...]] = []
        vec = [0] * self.degree
        vec[0] = 1
        for k in range(e):
            self._root_powers.append(tuple(vec))
            # multiply by zeta
            carry = vec[-1]
            vec = [0] + vec[:-1]
            if carry:
                for i in range(self.degree):
                    vec[i] -= carry * self.phi_poly[i]
        self.zero = (0,) * self.degree
        self.one = self._root_powers[0]
        self._root_index = {v: k for k, v in enumerate(self._root_powers)}
        # zeta^k (k < 2e - 1) as its nonzero power-basis coordinates (i, c)
        self._root_terms = [
            tuple((i, c) for i, c in enumerate(self._root_powers[k % e]) if c)
            for k in range(2 * e - 1)
        ]

    def root_power(self, k: int) -> tuple[int, ...]:
        return self._root_powers[k % self.e]

    def from_int(self, n: int) -> tuple[int, ...]:
        return (n,) + (0,) * (self.degree - 1)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def scale(self, n: int, a):
        return tuple(n * x for x in a)

    def lift(self, a) -> tuple[tuple[int, int], ...]:
        """a as terms (k, c) of Z[C_e], meaning c*zeta^k: a root of unity
        zeta^k is the single term (k, 1), anything else its nonzero
        power-basis coordinates."""
        k = self._root_index.get(a)
        if k is not None:
            return ((k, 1),)
        return tuple((i, c) for i, c in enumerate(a) if c)

    def product_sum(self, weights, xs, ys):
        """sum_c w_c*x_c*y_c in the power basis, for lifted elements xs and ys.

        Each product of terms is added into one coefficient per exponent of
        Z[C_e], and the sum is reduced once.  Exponents of xs and ys lie below e.
        """
        acc: dict[int, int] = {}
        get = acc.get
        for w, x, y in zip(weights, xs, ys):
            for i, a in x:
                a *= w
                for j, b in y:
                    k = i + j
                    acc[k] = get(k, 0) + a * b
        return self.reduce(acc)

    def reduce(self, acc: dict[int, int]):
        """The power-basis image of sum_k acc[k]*zeta^k, for 0 <= k < 2e - 1."""
        out = [0] * self.degree
        terms = self._root_terms
        for k, c in acc.items():
            if c:
                for i, r in terms[k]:
                    out[i] += c * r
        return tuple(out)

    def mul(self, a, b):
        return self.product_sum((1,), (self.lift(a),), (self.lift(b),))

    def conjugate(self, a):
        """Complex conjugation zeta -> zeta^{-1}."""
        return self.reduce({-k % self.e: c for k, c in self.lift(a)})

    def is_rational(self, a) -> bool:
        return all(x == 0 for x in a[1:])

    def rational_value(self, a) -> int:
        if not self.is_rational(a):
            raise InexactDivision(f"{a} is not a rational integer")
        return a[0]

    def divide_exact(self, a, n: int):
        out = []
        for x in a:
            q, r = divmod(x, n)
            if r:
                raise InexactDivision(f"{x} not divisible by {n}")
            out.append(q)
        return tuple(out)

    def embed_from(self, other: "CyclotomicRing", a):
        """Image of a in this ring; requires other.e | self.e.  The identity
        embedding returns a as it is."""
        if self.e % other.e:
            raise ValidationError(f"no embedding Q(zeta_{other.e}) -> Q(zeta_{self.e})")
        if other.e == self.e:
            return a
        step = self.e // other.e
        return self.reduce({k * step: c for k, c in other.lift(a)})

    def __repr__(self):
        return f"CyclotomicRing(e={self.e})"


@lru_cache(maxsize=None)
def Cyclo(e: int) -> CyclotomicRing:
    return CyclotomicRing(e)
