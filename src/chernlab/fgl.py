"""Truncated formal group laws over F_p.

The height-n law is built from its logarithm l(x) = sum_i x^{p^{ni}}/p^i with
exact rational arithmetic, checked for p-integrality and reduced mod p.  The
multiplicative law x + y - xy is available for height-one work.  Series are
kept modulo x^prec (total degree prec in two variables).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import (
    IncompatibleRing,
    NonIntegralCoefficient,
    PrecisionExceeded,
    ResourceLimit,
    ValidationError,
)
from .field import GF
from .groebner import QuotientRing
from .poly import Poly, PolyRing

PREC_CEILING = 64


# -- rational truncated series helpers (dicts deg -> Fraction) ---------------

def _uni_mul(a: dict, b: dict, prec: int) -> dict:
    out: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            k = i + j
            if k >= prec:
                continue
            v = out.get(k, 0) + ca * cb
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def _bi_mul(a: dict, b: dict, prec: int) -> dict:
    out: dict = {}
    for (i1, j1), ca in a.items():
        for (i2, j2), cb in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j >= prec:
                continue
            key = (i, j)
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


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
        """F(a(x), b(x)) for univariate truncated series without constant term."""
        prec = self.prec
        p = self.p
        max_i = max((i for i, _ in self.terms), default=0)
        max_j = max((j for _, j in self.terms), default=0)
        pow_a = {0: {0: 1}, 1: dict(a)}
        pow_b = {0: {0: 1}, 1: dict(b)}
        for k in range(2, max_i + 1):
            pow_a[k] = _uni_mul(pow_a[k - 1], a, prec)
        for k in range(2, max_j + 1):
            pow_b[k] = _uni_mul(pow_b[k - 1], b, prec)
        out: dict = {}
        for (i, j), c in self.terms.items():
            term = _uni_mul(pow_a[i], pow_b[j], prec)
            for d, cc in term.items():
                v = (out.get(d, 0) + c * cc) % p
                if v:
                    out[d] = v
                else:
                    out.pop(d, None)
        return out

    def negation_series(self) -> dict:
        """The series m with F(x, m(x)) = 0, solved degree by degree."""
        p, prec = self.p, self.prec
        m = {1: p - 1}
        for _ in range(prec + 2):
            s = self.add_series({1: 1}, m)
            if not s:
                return m
            d = min(s)
            if d >= prec:
                return m
            # correct the lowest wrong degree: F(x, m + e x^d) = F(x,m) + e x^d + h.o.t.
            m[d] = (m.get(d, 0) - s[d]) % p
            if not m[d]:
                del m[d]
        raise ResourceLimit("negation series did not converge")

    def mul_series(self, k: int) -> dict:
        """The [k]-series, cached; negative k via composition with [-1]."""
        if k in self._mul_cache:
            return dict(self._mul_cache[k])
        if k == -1:
            out = self.negation_series()
        elif k < 0:
            pos = self.mul_series(-k)
            neg = self.mul_series(-1)
            out = _compose_uni(neg, pos, self.prec, self.p)
        else:
            if k == 2:
                out = self.add_series({1: 1}, {1: 1})
            elif k % 2 == 0:
                half = self.mul_series(k // 2)
                out = self.add_series(half, half)
            else:
                out = self.add_series(self.mul_series(k - 1), {1: 1})
        self._mul_cache[k] = out
        return dict(out)

    # -- evaluation in quotient rings -----------------------------------------
    def _nilpotent_powers(self, a: Poly, ring: QuotientRing, bound: int) -> list[Poly]:
        powers = [ring.ring.one(), ring.reduce(a)]
        while powers[-1]:
            if len(powers) > bound:
                raise PrecisionExceeded(
                    f"nilpotency degree of input exceeds precision {self.prec}"
                )
            powers.append(ring.mul(powers[-1], a))
        return powers

    def add_in_ring(self, a: Poly, b: Poly, ring: QuotientRing) -> Poly:
        """F(a, b) evaluated exactly; a and b must be nilpotent within prec.

        Terms of F beyond the precision are unknown, so the evaluation is
        exact only when every product a^i b^j in that range vanishes; this is
        checked and PrecisionExceeded raised otherwise.
        """
        if ring.field.p != self.p:
            raise IncompatibleRing("ring characteristic differs from the law's prime")
        pa = self._nilpotent_powers(a, ring, self.prec)
        pb = self._nilpotent_powers(b, ring, self.prec)
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
        out = ring.ring.zero()
        fld = ring.field
        for (i, j), c in self.terms.items():
            if i >= len(pa) or j >= len(pb):
                continue
            term = ring.mul(pa[i], pb[j])
            if term:
                out = out + term.scale(fld.from_int(c))
        return ring.reduce(out)

    def eval_series(self, series: dict, a: Poly, ring: QuotientRing) -> Poly:
        """Evaluate a univariate truncated series at a nilpotent element."""
        pa = self._nilpotent_powers(a, ring, self.prec)
        if len(pa) - 1 >= self.prec and series:
            raise PrecisionExceeded("element not nilpotent within precision")
        out = ring.ring.zero()
        fld = ring.field
        for d, c in series.items():
            if d < len(pa) and pa[d]:
                out = out + pa[d].scale(fld.from_int(c))
        return ring.reduce(out)

    def mul_in_ring(self, k: int, a: Poly, ring: QuotientRing) -> Poly:
        return self.eval_series(self.mul_series(k), a, ring)

    def sum_in_ring(self, elems: list[Poly], ring: QuotientRing) -> Poly:
        """Iterated formal sum a_1 +_F ... +_F a_m (empty sum is 0)."""
        out = ring.ring.zero()
        for e in elems:
            out = self.add_in_ring(out, e, ring)
        return out

    # -- text ------------------------------------------------------------------
    def series_text(self, k: int) -> str:
        ring = PolyRing(GF(self.p), ["x"])
        s = self.mul_series(k)
        poly = Poly(ring, {(d,): c for d, c in s.items() if c})
        return poly.text(ring.lex())

    def __repr__(self):
        return f"FGL({self.kind}, p={self.p}, n={self.n}, prec={self.prec})"


def _compose_uni(outer: dict, inner: dict, prec: int, p: int) -> dict:
    """outer(inner(x)) for truncated series over F_p, inner without constant term."""
    if any(d == 0 for d in inner):
        raise ValidationError("inner series must have no constant term")
    max_d = max(outer, default=0)
    powers = {0: {0: 1}}
    for k in range(1, max_d + 1):
        powers[k] = _uni_mul(powers[k - 1], inner, prec)
    out: dict = {}
    for d, c in outer.items():
        for e, cc in powers[d].items():
            v = (out.get(e, 0) + c * cc) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _honda_log(p: int, n: int, prec: int) -> dict:
    log = {}
    i = 0
    while p ** (n * i) < prec:
        log[p ** (n * i)] = Fraction(1, p ** i)
        i += 1
    return log


def _series_inverse(log: dict, prec: int) -> dict:
    """Compositional inverse of x + higher, by fixed-point iteration."""
    g = {1: Fraction(1)}
    max_d = max(log)
    for _ in range(prec + 2):
        # g <- x - (log(g) - g); converges degree by degree
        powers = {1: g}
        for k in range(2, max_d + 1):
            powers[k] = _uni_mul(powers[k - 1], g, prec)
        lg: dict = {}
        for d, c in log.items():
            lg = _add(lg, {k: c * v for k, v in powers[d].items()})
        tail = _add(lg, {k: -v for k, v in g.items()})  # log(g) - g
        new = _add({1: Fraction(1)}, {k: -v for k, v in tail.items()})
        if new == g:
            return g
        g = new
    raise ResourceLimit("series inversion did not converge")


def _check_precision(prec: int) -> None:
    """2 <= prec <= PREC_CEILING, the precisions a law may be built to."""
    if prec > PREC_CEILING:
        raise ResourceLimit(f"precision {prec} exceeds ceiling {PREC_CEILING}")
    if prec < 2:
        raise ValidationError(f"precision {prec} is below 2")


@lru_cache(maxsize=None)
def honda_fgl(p: int, n: int, prec: int = 32) -> FGL:
    """Height-n formal group law at p with [p](x) = x^{p^n}, to precision prec.

    Built as F = l^{-1}(l(x) + l(y)) over the rationals; construction fails
    loudly if any coefficient is not p-integral.
    """
    _check_precision(prec)
    if n < 1:
        raise ValidationError("need height >= 1")
    log = _honda_log(p, n, prec)
    log_inv = _series_inverse(log, prec)
    # s = l(x) + l(y) as a bivariate series
    s = {}
    for d, c in log.items():
        s[(d, 0)] = c
        s[(0, d)] = c
    # F = log_inv(s) by Horner: acc <- acc*s + b_d for d = top..1, then *s
    top = max(log_inv)
    F: dict = {}
    for d in range(top, 0, -1):
        F = _bi_mul(F, s, prec)
        if d in log_inv:
            F = _add(F, {(0, 0): log_inv[d]})
    F = _bi_mul(F, s, prec)
    terms = {}
    for key, c in F.items():
        if c.denominator != 1:
            raise NonIntegralCoefficient(f"coefficient {c} at {key} is not p-integral")
        v = c.numerator % p
        if v:
            terms[key] = v
    law = FGL(p, n, prec, terms, "honda")
    _check_height(law)
    return law


def _check_height(law: FGL) -> None:
    series = law.mul_series(law.p)
    expected = {}
    q = law.p ** law.n
    if q < law.prec:
        expected[q] = 1
    if series != expected:
        raise NonIntegralCoefficient(
            f"[p](x) != x^{{p^n}} at precision {law.prec}: got {series}"
        )


@lru_cache(maxsize=None)
def multiplicative_fgl(p: int, prec: int = 32) -> FGL:
    """The multiplicative law x + y - xy (height one at every prime)."""
    _check_precision(prec)
    terms = {(1, 0): 1, (0, 1): 1}
    if (p - 1) % p:
        terms[(1, 1)] = p - 1
    return FGL(p, 1, prec, terms, "multiplicative")
