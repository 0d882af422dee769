"""Sparse multivariate polynomials over a finite field.

A polynomial is a dict mapping exponent tuples to nonzero encoded field
elements.  Rings are lightweight objects pairing a field with an ordered
variable tuple; all arithmetic stays inside one ring.
"""

from __future__ import annotations

import re
from operator import add, le, mul, sub
from typing import Iterable

from .errors import IncompatibleRing, UnassignedVariable, ValidationError
from .field import FiniteField


# Exponent-tuple kernels: x^a x^b, x^a / x^b (b dividing a), whether x^a
# divides x^b, lcm(x^a, x^b) and whether x^a and x^b share no variable
# (Buchberger's product criterion).  Each loops at C level, by map over an
# operator function.

def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def mono_coprime(a: tuple, b: tuple) -> bool:
    return not any(map(mul, a, b))


class MonomialOrder:
    """Lexicographic or graded-lex order on exponent tuples.

    Variables rank in ring order, the first most significant, so the lex key
    of an exponent tuple is the tuple itself.
    """

    def __init__(self, kind: str, nvars: int):
        if kind not in ("lex", "grlex"):
            raise ValidationError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.nvars = nvars
        self.graded = kind == "grlex"

    def key(self, exps: tuple[int, ...]):
        if self.graded:
            return (sum(exps),) + exps
        return exps

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
    """F_q[x_1..x_m] with named variables in a fixed order."""

    def __init__(self, field: FiniteField, variables: Iterable[str]):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError("duplicate variable names")
        self.nvars = len(self.variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        self._zero_exp = (0,) * self.nvars

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {self._zero_exp: 1})

    def const(self, a: int) -> "Poly":
        a = self.field.check(a) if a else 0
        return Poly(self, {self._zero_exp: a} if a else {})

    def from_int(self, n: int) -> "Poly":
        return self.const(self.field.from_int(n))

    def gen(self, name: str) -> "Poly":
        i = self.var_index(name)
        exps = [0] * self.nvars
        exps[i] = 1
        return Poly(self, {tuple(exps): 1})

    def gens(self) -> list["Poly"]:
        return [self.gen(v) for v in self.variables]

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnassignedVariable(f"no variable {name!r} in {self}") from None

    def monomial(self, exps: tuple[int, ...], coeff: int = 1) -> "Poly":
        return Poly(self, {tuple(exps): coeff} if coeff else {})

    def lex(self) -> MonomialOrder:
        return lex_order(self.nvars)

    def grlex(self) -> MonomialOrder:
        return grlex_order(self.nvars)

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

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        fld = self.ring.field
        mul = fld.mul
        add = fld.add
        out: dict = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                p = mul(ca, cb)
                if not p:
                    continue
                e = mono_mul(ea, eb)
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
        """(exponent, coeff) of the leading term, or None for 0."""
        if not self.terms:
            return None
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def constant_term(self) -> int:
        return self.terms.get(self.ring._zero_exp, 0)

    def monic(self, order: MonomialOrder) -> "Poly":
        lt = self.leading(order)
        if lt is None:
            return self
        return self.scale(self.ring.field.inv(lt[1]))

    def to_ring(self, ring: PolyRing) -> "Poly":
        """The same polynomial in ``ring``, variables matched by name.

        ``ring`` must be over the same field and hold every variable that
        occurs in self.
        """
        if ring.field != self.ring.field:
            raise IncompatibleRing(f"{self.ring} and {ring} have different fields")
        slots = [ring._index.get(v) for v in self.ring.variables]
        out = {}
        for e, c in self.terms.items():
            exps = list(ring._zero_exp)
            for i, a in enumerate(e):
                if a:
                    if slots[i] is None:
                        raise ValidationError(
                            f"variable {self.ring.variables[i]!r} is not in {ring}"
                        )
                    exps[slots[i]] = a
            out[tuple(exps)] = c
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
        for e in sorted(self.terms, key=order.key, reverse=True):
            c = self.terms[e]
            factors = []
            for i, exp in enumerate(e):
                if exp == 0:
                    continue
                v = self.ring.variables[i]
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
