"""Truncated formal group laws over F_p.

The height-n law at p is F = l^{-1}(l(x) + l(y)) for the Honda logarithm
l(x) = sum_i x^{p^{ni}}/p^i.  It is built over the integers: L(x) = l(px)/p is
integral and starts with x, so its compositional inverse G is integral too, and
G(L(x) + L(y)) = F(px, py)/p.  One table of the powers L^k gives both G, by a
triangular solve, and that law, as a bilinear sum over rows L^k(x).  Dividing
the coefficient of x^i y^j there exactly by p^{i+j-1} proves F p-integral;
only the quotient is reduced mod p.  The multiplicative law x + y - xy is
available for height-one work.  Series are kept modulo x^prec (total degree
prec in two variables).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import (
    IncompatibleRing,
    NonIntegralCoefficient,
    PrecisionExceeded,
    ResourceLimit,
    ValidationError,
)
from .field import GF
from .groebner import QuotientRing
from .groups import power_exceeds
from .poly import Poly, PolyRing

PREC_CEILING = 64


# -- truncated integer series (dicts deg -> int or (i, j) -> int) ------------

def _uni_mul(a: dict, b: dict, prec: int) -> dict:
    out: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            if i + j < prec:
                out[i + j] = out.get(i + j, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


class FGL:
    """A truncated one-dimensional formal group law over F_p.

    ``terms`` maps (i, j) to the coefficient of x^i y^j in F(x, y); the
    [k]-series cache maps k to dicts deg -> coefficient.  Instances are
    immutable after construction and safe to share.
    """

    def __init__(self, p: int, n: int, prec: int, terms: dict, kind: str):
        self.p = p
        self.n = n
        self.prec = prec
        self.terms = terms
        self.kind = kind
        self._mul_cache: dict[int, dict] = {0: {}, 1: {1: 1}}
        if terms.get((1, 0)) != 1 or terms.get((0, 1)) != 1:
            raise ValidationError("formal group law must start x + y")
        for (i, j), c in terms.items():
            if (j == 0 and i != 1 and c) or (i == 0 and j != 1 and c):
                raise ValidationError("F(x,0) or F(0,y) is not the identity")
            if terms.get((j, i), 0) != c:
                raise ValidationError("formal group law is not commutative")

    # -- series access -------------------------------------------------------
    def add_series(self, a: dict, b: dict) -> dict:
        """F(a(x), b(x)) for univariate truncated series without constant term,
        as sum_i a^i (sum_j c_ij b^j) by Horner's rule in a: one product per
        power of a."""
        prec = self.prec
        pb = [{0: 1}]
        rows: dict[int, dict] = {}
        for (i, j), c in self.terms.items():
            while len(pb) <= j:
                pb.append(_uni_mul(pb[-1], b, prec))
            row = rows.setdefault(i, {})
            for d, v in pb[j].items():
                row[d] = row.get(d, 0) + c * v
        out: dict = {}
        for i in range(max(rows), -1, -1):
            out = _uni_mul(out, a, prec)
            for d, v in rows.get(i, {}).items():
                out[d] = out.get(d, 0) + v
        return {d: c % self.p for d, c in out.items() if c % self.p}

    def mul_series(self, k: int) -> dict:
        """The [k]-series, cached, by doubling and adding x.

        A k outside 0..p^N is read as k mod p^N, p^N the least power of p
        that is at least prec: over F_p, [p](x) starts in degree p or higher,
        so [p^N](x) = 0 mod x^prec and [k] depends only on k mod p^N.  That
        zero is checked on the same chain before it is used.
        """
        if k < 0 or k > self.prec:
            period = self.p
            while period < self.prec:
                period *= self.p
            if k < 0 or k > period:
                if self.mul_series(period):
                    raise ValidationError(f"[{period}](x) is not 0 mod x^{self.prec}")
                k %= period
        if k in self._mul_cache:
            return dict(self._mul_cache[k])
        if k % 2 == 0:
            half = self.mul_series(k // 2)
            out = self.add_series(half, half)
        else:
            out = self.add_series(self.mul_series(k - 1), {1: 1})
        self._mul_cache[k] = out
        return dict(out)

    # -- evaluation in quotient rings -----------------------------------------
    def powers_in_ring(self, a: Poly, ring: QuotientRing) -> list[Poly]:
        """The table [1, a, a^2, ...] of normal forms, up to the first zero
        power, of an element a nilpotent within prec; ``add_powers`` and
        ``eval_series`` read it."""
        if ring.field.p != self.p:
            raise IncompatibleRing("ring characteristic differs from the law's prime")
        powers = [ring.reduce(ring.ring.one()), ring.reduce(a)]
        while powers[-1]:
            if len(powers) > self.prec:
                raise PrecisionExceeded(
                    f"nilpotency degree of input exceeds precision {self.prec}"
                )
            powers.append(ring.mul(powers[-1], a))
        return powers

    def add_in_ring(self, a: Poly, b: Poly, ring: QuotientRing) -> Poly:
        """F(a, b) evaluated exactly; a and b must be nilpotent within prec."""
        return self.add_powers(self.powers_in_ring(a, ring), self.powers_in_ring(b, ring), ring)

    def add_powers(self, pa: list[Poly], pb: list[Poly], ring: QuotientRing) -> Poly:
        """F(a, b) from the power tables of a and b (``powers_in_ring``), so
        that a caller adding each of several elements to several others
        builds each table once.

        Terms of F beyond the precision are unknown, so the evaluation is
        exact only when every product a^i b^j in that range vanishes; this is
        checked and PrecisionExceeded raised otherwise.  Normal forms are
        linear, so the rows B_i = sum_j c_ij b^j are combinations of normal
        forms, and sum_i a^i B_i is reduced once.
        """
        na, nb = len(pa) - 1, len(pb) - 1
        if na + nb > self.prec:
            for i in range(1, na):
                if not pa[i]:
                    continue
                for j in range(max(1, self.prec - i), nb):
                    if pb[j] and ring.mul(pa[i], pb[j]):
                        raise PrecisionExceeded(
                            f"need F at ({i},{j}) beyond precision {self.prec}"
                        )
        zero = ring.ring.zero()
        fld = ring.field
        rows: dict[int, Poly] = {}
        for (i, j), c in self.terms.items():
            if i < len(pa) and j < len(pb) and pa[i] and pb[j]:
                rows[i] = rows.get(i, zero) + pb[j].scale(fld.from_int(c))
        out = zero
        for i, row in rows.items():
            out = out + pa[i] * row
        return ring.reduce(out)

    def eval_series(self, series: dict, a: Poly, ring: QuotientRing) -> Poly:
        """Evaluate a univariate truncated series at a nilpotent element: a
        combination of the normal forms a^d, so itself a normal form."""
        pa = self.powers_in_ring(a, ring)
        if len(pa) - 1 >= self.prec and series:
            raise PrecisionExceeded("element not nilpotent within precision")
        out = ring.ring.zero()
        fld = ring.field
        for d, c in series.items():
            if d < len(pa) and pa[d]:
                out = out + pa[d].scale(fld.from_int(c))
        return out

    def mul_in_ring(self, k: int, a: Poly, ring: QuotientRing) -> Poly:
        return self.eval_series(self.mul_series(k), a, ring)

    def sum_in_ring(self, elems: list[Poly], ring: QuotientRing) -> Poly:
        """Iterated formal sum a_1 +_F ... +_F a_m (empty sum is 0)."""
        out = ring.reduce(elems[0]) if elems else ring.ring.zero()  # F(0, a_1) = a_1
        for e in elems[1:]:
            out = self.add_in_ring(out, e, ring)
        return out

    # -- text ------------------------------------------------------------------
    def series_text(self, k: int) -> str:
        ring = PolyRing(GF(self.p), ["x"])
        s = self.mul_series(k)
        poly = Poly(ring, {ring.pack((d,)): c for d, c in s.items() if c})
        return poly.text(ring.lex())

    def __repr__(self):
        return f"FGL({self.kind}, p={self.p}, n={self.n}, prec={self.prec})"


def _integral_law(log: dict, p: int, prec: int) -> dict:
    """Terms mod p of F = l^{-1}(l(x) + l(y)), given log = L(x) = l(px)/p.

    One table powers[k] = L^k mod x^prec serves both steps.  L^d starts with
    x^d, so G = L^{-1} is integral: g_1 = 1, g_m = -sum_{d<m} g_d [x^m] L^d.
    Then G(L(x) + L(y)) = F(px, py)/p has x^i y^j coefficient
    sum_{k,l} g_{k+l} C(k+l, k) [x^i] L^k [y^j] L^l, summed one row k at a
    time; it must divide exactly by p^{i+j-1}, else NonIntegralCoefficient.
    """
    powers = [{0: 1}]
    for _ in range(1, prec):
        powers.append(_uni_mul(powers[-1], log, prec))
    g = [0, 1]
    for m in range(2, prec):
        g.append(-sum(g[d] * powers[d].get(m, 0) for d in range(1, m)))
    scaled: dict = {}
    for k in range(prec):
        row: dict = {}  # B_k(y) = sum_l g_{k+l} C(k+l, k) L^l(y)
        for l in range(prec - k):
            coeff = g[k + l] * comb(k + l, k)
            if coeff:
                for j, c in powers[l].items():
                    if j < prec - k:
                        row[j] = row.get(j, 0) + coeff * c
        for i, a in powers[k].items():
            for j, b in row.items():
                if i + j < prec:
                    scaled[(i, j)] = scaled.get((i, j), 0) + a * b
    terms = {}
    for (i, j), c in scaled.items():
        q, r = divmod(c, p ** (i + j - 1))
        if r:
            raise NonIntegralCoefficient(
                f"coefficient {c}/{p}^{i + j - 1} of x^{i} y^{j} is not p-integral"
            )
        if q % p:
            terms[(i, j)] = q % p
    return terms


def _check_precision(prec: int) -> None:
    """2 <= prec <= PREC_CEILING, the precisions a law may be built to."""
    if prec > PREC_CEILING:
        raise ResourceLimit(f"precision {prec} exceeds ceiling {PREC_CEILING}")
    if prec < 2:
        raise ValidationError(f"precision {prec} is below 2")


@lru_cache(maxsize=None)
def honda_fgl(p: int, n: int, prec: int = 32) -> FGL:
    """Height-n formal group law at p with [p](x) = x^{p^n}, to precision prec.

    Built over the integers from L(x) = l(px)/p = sum_i p^{q^i-1-i} x^{q^i},
    q = p^n (see the module docstring); a coefficient of F that is not
    p-integral raises NonIntegralCoefficient.
    """
    _check_precision(prec)
    if n < 1:
        raise ValidationError("need height >= 1")
    # only the powers q^i below prec count: any q past prec builds the same law
    q = prec if power_exceeds(p, n, prec) else p ** n
    log, i = {}, 0
    while q ** i < prec:
        log[q ** i] = p ** (q ** i - 1 - i)
        i += 1
    law = FGL(p, n, prec, _integral_law(log, p, prec), "honda")
    series = law.mul_series(p)
    if series != ({q: 1} if q < prec else {}):
        raise NonIntegralCoefficient(f"[p](x) != x^{{p^n}} at precision {prec}: got {series}")
    return law


@lru_cache(maxsize=None)
def multiplicative_fgl(p: int, prec: int = 32) -> FGL:
    """The multiplicative law x + y - xy (height one at every prime)."""
    _check_precision(prec)
    terms = {(1, 0): 1, (0, 1): 1}
    if (p - 1) % p:
        terms[(1, 1)] = p - 1
    return FGL(p, 1, prec, terms, "multiplicative")
