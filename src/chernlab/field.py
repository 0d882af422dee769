"""Small finite fields with exact table-driven arithmetic.

Elements of F_{p^k} are encoded as integers in ``range(p**k)``: the integer
``sum(a_i * p**i)`` stands for ``a_0 + a_1*g + ... + a_{k-1}*g^{k-1}`` where
``g`` is the class of ``x`` modulo the defining polynomial.  Encoded elements
are plain ints, so polynomial layers above this one can use them directly as
dictionary values.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .errors import DivisionByZero, IncompatibleField, ValidationError


def is_prime(n: int) -> bool:
    """Primality by trial division."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by monic den, coefficients mod p (lists, low degree first)."""
    num = [c % p for c in num]
    d = len(den) - 1
    while len(num) > d:
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - d
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _is_irreducible(modulus: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    k = len(modulus) - 1
    if k < 1 or modulus[-1] != 1:
        return False
    if k == 1:
        return True
    for deg in range(1, k // 2 + 1):
        for code in range(p ** deg):
            den = []
            c = code
            for _ in range(deg):
                den.append(c % p)
                c //= p
            den.append(1)
            if not _poly_mod(list(modulus), den, p):
                return False
    return True


class FiniteField:
    """F_{p^k} defined by an irreducible monic modulus over F_p.

    For the field sizes GF builds (p and p^2 with p <= 13, so q <= 169) full
    addition/multiplication tables are precomputed, so element operations
    are list lookups.
    """

    def __init__(self, p: int, modulus: list[int] | None = None):
        if not is_prime(p):
            raise ValidationError(f"characteristic {p} is not prime")
        if modulus is None:
            modulus = [0, 1]  # x, i.e. the prime field
        modulus = [c % p for c in modulus]
        if not _is_irreducible(modulus, p):
            raise ValidationError(f"modulus {modulus} is not irreducible over F_{p}")
        self.p = p
        self.degree = len(modulus) - 1
        self.modulus = tuple(modulus)
        self.q = p ** self.degree
        self._build_tables()

    def _build_tables(self):
        p, k, q = self.p, self.degree, self.q
        self.add_table = [[0] * q for _ in range(q)]
        self.mul_table = [[0] * q for _ in range(q)]
        vecs = [self._decode(a) for a in range(q)]
        for a in range(q):
            for b in range(a, q):
                s = [(x + y) % p for x, y in zip(vecs[a], vecs[b])]
                v = self._encode(s)
                self.add_table[a][b] = v
                self.add_table[b][a] = v
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(vecs[a]):
                    if x:
                        for j, y in enumerate(vecs[b]):
                            prod[i + j] = (prod[i + j] + x * y) % p
                r = _poly_mod(prod, list(self.modulus), p)
                r += [0] * (k - len(r))
                v = self._encode(r)
                self.mul_table[a][b] = v
                self.mul_table[b][a] = v
        self.neg_table = [0] * q
        for a in range(q):
            for b in range(q):
                if self.add_table[a][b] == 0:
                    self.neg_table[a] = b
                    break
        self.inv_table = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul_table[a][b] == 1:
                    self.inv_table[a] = b
                    break

    def _decode(self, a: int) -> list[int]:
        out = []
        for _ in range(self.degree):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, vec: list[int]) -> int:
        a = 0
        for c in reversed(vec):
            a = a * self.p + (c % self.p)
        return a

    # -- arithmetic on encoded elements ------------------------------------
    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise IncompatibleField(f"{a!r} is not an element of {self}")
        return a

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self.inv_table[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul_table[r][a]
            a = self.mul_table[a][a]
            e >>= 1
        return r

    def from_int(self, n: int) -> int:
        """Image of the rational integer n under Z -> F_q."""
        return n % self.p

    # -- text form ----------------------------------------------------------
    def format_element(self, a: int) -> str:
        if self.degree == 1:
            return str(a)
        vec = self._decode(a)
        parts = []
        for i in range(self.degree - 1, -1, -1):
            c = vec[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                gpow = "g" if i == 1 else f"g^{i}"
                parts.append(gpow if c == 1 else f"{c}*{gpow}")
        return "+".join(parts) if parts else "0"

    def parse_element(self, text: str) -> int:
        text = text.strip().replace(" ", "")
        if not text:
            raise ValidationError("empty field element")
        vec = [0] * self.degree
        for part in text.split("+"):
            try:
                if "g" in part:
                    coeff, _, gpart = part.partition("g")
                    c = int(coeff.rstrip("*")) if coeff.rstrip("*") else 1
                    e = int(gpart[1:]) if gpart.startswith("^") else 1
                else:
                    c, e = int(part), 0
            except ValueError:
                raise ValidationError(f"bad field element {text!r}") from None
            if not 0 <= e < self.degree:
                raise ValidationError(f"power g^{e} out of range for {self}")
            vec[e] = (vec[e] + c) % self.p
        return self._encode(vec)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return f"GF({self.p})"
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def GF(q: int) -> FiniteField:
    """The standard copy of F_q for the sizes this library uses.

    F_4 is F_2[g]/(g^2+g+1) and F_9 is F_3[g]/(g^2+1); other prime powers
    of degree 2 use the smallest irreducible x^2+c or x^2+x+c.
    """
    for p in (2, 3, 5, 7, 11, 13):
        if q == p:
            return FiniteField(p)
        if q == p * p:
            if p == 2:
                return FiniteField(2, [1, 1, 1])
            if p == 3:
                return FiniteField(3, [1, 0, 1])
            for c in range(1, p):
                try:
                    return FiniteField(p, [c, 0, 1])
                except ValidationError:
                    continue
    raise ValidationError(f"no builtin field of order {q}")
