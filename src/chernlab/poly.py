"""Sparse multivariate polynomials over a finite field.

A polynomial is a dict mapping monomial keys (see PolyRing) to nonzero
encoded field elements.  Rings are lightweight objects pairing a field with an
ordered variable tuple; all arithmetic stays inside one ring.  Exponent tuples
appear only at the edges: ``PolyRing.pack``, ``exponents`` and ``monomial``,
``text`` and ``parse_poly``.
"""

from __future__ import annotations

import re
import struct
from typing import Iterable

from .errors import IncompatibleRing, ResourceLimit, UnassignedVariable, ValidationError
from .field import FiniteField

EXPONENT_BITS = 32  # width of one key field, its guard bit included
EXPONENT_CEILING = (1 << (EXPONENT_BITS - 1)) - 1  # largest total degree of a monomial
# one field of ones; k % FIELD_MASK is the sum of k's fields, its degree, as
# no degree reaches it
FIELD_MASK = (1 << EXPONENT_BITS) - 1


def ceiling_exceeded() -> ResourceLimit:
    return ResourceLimit(f"an exponent or degree exceeds the packed-key ceiling {EXPONENT_CEILING}")


class MonomialOrder:
    """Lexicographic or graded-lex order on monomial keys.

    Variables rank in ring order, the first most significant, so the lex key
    of a monomial is the key itself.  The grlex key puts the degree above
    the key's fields; grlex keys add as monomials multiply.
    """

    def __init__(self, kind: str, nvars: int):
        if kind not in ("lex", "grlex"):
            raise ValidationError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.nvars = nvars
        self.graded = kind == "grlex"
        self._top = EXPONENT_BITS * nvars
        self.low_mask = (1 << self._top) - 1  # the monomial of a grlex key

    def key(self, m: int) -> int:
        if self.graded:
            return (m % FIELD_MASK) << self._top | m
        return m

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.nvars == other.nvars
        )

    def __hash__(self):
        return hash((self.kind, self.nvars))

    def __repr__(self):
        return f"MonomialOrder({self.kind!r}, {self.nvars})"


def lex_order(nvars: int) -> MonomialOrder:
    return MonomialOrder("lex", nvars)


def grlex_order(nvars: int) -> MonomialOrder:
    return MonomialOrder("grlex", nvars)


class PolyRing:
    """F_q[x_1..x_m] with named variables in a fixed order.

    A monomial is one int, its key (Monagan and Pearce, J. Symbolic Comput.
    46 (2011)): a field of EXPONENT_BITS bits per variable, the first
    variable most significant, so integer order is lex order and x^a x^b is
    a + b.  No monomial's degree passes EXPONENT_CEILING, so the top bit of
    every field, ``guard``, stays clear: x^a divides x^b iff
    ``not (b - a) & guard``.
    """

    def __init__(self, field: FiniteField, variables: Iterable[str]):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError("duplicate variable names")
        self.nvars = len(self.variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        self.shifts = tuple(EXPONENT_BITS * (self.nvars - 1 - i) for i in range(self.nvars))
        self.guard = sum(1 << (s + EXPONENT_BITS - 1) for s in self.shifts)
        self._struct = struct.Struct(f">{self.nvars}I")  # "I": one unsigned 32-bit field

    def pack(self, exps: tuple[int, ...]) -> int:
        """The key of an exponent tuple; ResourceLimit past EXPONENT_CEILING."""
        if sum(exps) > EXPONENT_CEILING:
            raise ceiling_exceeded()
        try:
            return int.from_bytes(self._struct.pack(*exps), "big")
        except struct.error:  # a negative exponent, or the wrong count
            raise ValidationError(f"bad exponents {tuple(exps)!r} for {self}") from None

    def exponents(self, m: int) -> tuple[int, ...]:
        """The exponent tuple of key m."""
        return self._struct.unpack(m.to_bytes(self._struct.size, "big"))

    def lcm(self, a: int, b: int) -> int:
        """The key of lcm(x^a, x^b): in each field the larger exponent."""
        guard = self.guard
        ge = ((a | guard) - b) & guard  # a guard bit where a's field >= b's
        return b ^ ((a ^ b) & (ge - (ge >> (EXPONENT_BITS - 1))))

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {0: 1})

    def const(self, a: int) -> "Poly":
        a = self.field.check(a) if a else 0
        return Poly(self, {0: a} if a else {})

    def from_int(self, n: int) -> "Poly":
        return self.const(self.field.from_int(n))

    def gen(self, name: str) -> "Poly":
        return Poly(self, {1 << self.shifts[self.var_index(name)]: 1})

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnassignedVariable(f"no variable {name!r} in {self}") from None

    def monomial(self, exps: tuple[int, ...], coeff: int = 1) -> "Poly":
        return Poly(self, {self.pack(exps): coeff} if coeff else {})

    def lex(self) -> MonomialOrder:
        return lex_order(self.nvars)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"PolyRing({self.field!r}, {list(self.variables)})"


class Poly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- helpers ------------------------------------------------------------
    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise IncompatibleRing("mixed polynomial rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        raise TypeError(f"cannot coerce {other!r}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        fld = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = fld.add(out.get(e, 0), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        fld = self.ring.field
        return Poly(self.ring, {e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        """The product; keys add.  A product's degree is the sum of its
        factors' degrees, so one check, not one per term, keeps every
        exponent and degree within EXPONENT_CEILING."""
        other = self._coerce(other)
        fld = self.ring.field
        mul = fld.mul
        add = fld.add
        out: dict = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        degree = FIELD_MASK.__rmod__  # m % FIELD_MASK, the degree of key m
        if (max(map(degree, a.terms), default=0) + max(map(degree, b.terms), default=0)
                > EXPONENT_CEILING):
            raise ceiling_exceeded()
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                p = mul(ca, cb)
                if not p:
                    continue
                e = ea + eb
                s = add(out.get(e, 0), p)
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c: int) -> "Poly":
        fld = self.ring.field
        if not c:
            return self.ring.zero()
        return Poly(self.ring, {e: fld.mul(coef, c) for e, coef in self.terms.items()})

    # -- structure ----------------------------------------------------------
    def leading(self, order: MonomialOrder):
        """(key, coeff) of the leading term, or None for 0."""
        if not self.terms:
            return None
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def constant_term(self) -> int:
        return self.terms.get(0, 0)

    def monic(self, order: MonomialOrder) -> "Poly":
        lt = self.leading(order)
        if lt is None:
            return self
        return self.scale(self.ring.field.inv(lt[1]))

    def to_ring(self, ring: PolyRing) -> "Poly":
        """The same polynomial in ``ring``, variables matched by name.

        ``ring`` must be over the same field and hold every variable that
        occurs in self.  A variable at the same place from the last in both
        rings keeps its field, so a ring's keys are unchanged in a ring that
        puts new variables first.
        """
        if ring.field != self.ring.field:
            raise IncompatibleRing(f"{self.ring} and {ring} have different fields")
        kept = absent = 0
        moves = []
        for v, s in zip(self.ring.variables, self.ring.shifts):
            slot = ring._index.get(v)
            if slot is None:
                absent |= FIELD_MASK << s
            elif ring.shifts[slot] == s:
                kept |= FIELD_MASK << s
            else:
                moves.append((s, ring.shifts[slot]))
        out = {}
        for m, c in self.terms.items():
            if m & absent:
                missing = next(v for v, s in zip(self.ring.variables, self.ring.shifts)
                               if m & absent & FIELD_MASK << s)
                raise ValidationError(f"variable {missing!r} is not in {ring}")
            key = m & kept
            for s, t in moves:
                key |= (m >> s & FIELD_MASK) << t
            out[key] = c
        return Poly(ring, out)

    # -- text ----------------------------------------------------------------
    def text(self, order: MonomialOrder | None = None) -> str:
        """Canonical text: terms sorted descending in the active order."""
        if not self.terms:
            return "0"
        if order is None:
            order = self.ring.lex()
        fld = self.ring.field
        parts = []
        for m in sorted(self.terms, key=order.key, reverse=True):
            c = self.terms[m]
            factors = []
            for v, exp in zip(self.ring.variables, self.ring.exponents(m)):
                if exp:
                    factors.append(v if exp == 1 else f"{v}^{exp}")
            ctext = fld.format_element(c)
            if not factors:
                parts.append(ctext)
            elif c == 1:
                parts.append("*".join(factors))
            else:
                if "+" in ctext:
                    ctext = f"({ctext})"
                parts.append("*".join([ctext] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.text()}>"


def _split_terms(text: str) -> list[str]:
    """Split on '+' at parenthesis depth zero."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0:
            terms.append(text[start:i].strip())
            start = i + 1
    terms.append(text[start:].strip())
    return terms


def parse_poly(ring: PolyRing, text: str) -> Poly:
    """Parse the canonical text format produced by Poly.text()."""
    text = text.strip()
    if text in ("", "0"):
        return ring.zero()
    fld = ring.field
    out = ring.zero()
    for term in _split_terms(text):
        coeff = 1
        exps = [0] * ring.nvars
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValidationError(f"bad term {term!r}")
            if factor.startswith("("):
                if not factor.endswith(")"):
                    raise ValidationError(f"bad coefficient in {term!r}")
                coeff = fld.mul(coeff, fld.parse_element(factor[1:-1]))
                continue
            m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?", factor)
            if m and m.group(1) in ring._index:
                exps[ring.var_index(m.group(1))] += int(m.group(2) or 1)
            else:
                coeff = fld.mul(coeff, fld.parse_element(factor))
        out = out + ring.monomial(tuple(exps), coeff)
    return out
