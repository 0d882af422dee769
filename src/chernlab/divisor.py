"""Scheme-side divisors: monic polynomials over Artinian quotient rings.

A degree-d divisor is f_D(t) = t^d + c_1 t^{d-1} + ... + c_d.  Products,
lambda and psi operations are computed exactly by adjoining roots (a
splitting tower of free extensions), forming the required symmetric
functions of formal-group expressions in the roots, and extracting the
coefficients back into the base ring.  No truncation beyond the ring's own
relations is introduced, so results are exact whenever the formal group law
carries enough precision for the (nilpotent) roots.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import DegreeCeiling, IncompatibleRing, ValidationError
from .fgl import FGL
from .groebner import GroebnerBasis, QuotientRing
from .groups import p_part_exponent
from .poly import Poly, PolyRing, lex_order

DEGREE_CEILING = 9


class DivisorPoly:
    def __init__(self, qring: QuotientRing, law: FGL, coeffs):
        self.qring = qring
        self.law = law
        self.coeffs = tuple(qring.reduce(c) for c in coeffs)
        if law.p != qring.field.p:
            raise IncompatibleRing("law and ring characteristics differ")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def poly_coeffs(self):
        """[1, c_1, ..., c_d]: the monic t-polynomial, descending in t."""
        return [self.qring.ring.one()] + list(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, DivisorPoly)
            and self.qring is other.qring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def text(self) -> str:
        parts = ["t^%d" % self.degree]
        for k, c in enumerate(self.coeffs, start=1):
            if c:
                deg = self.degree - k
                tpow = "" if deg == 0 else ("*t" if deg == 1 else f"*t^{deg}")
                parts.append(f"({c.text(self.qring.order)}){tpow}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<divisor {self.text()}>"


def divisor_from_roots(qring: QuotientRing, law: FGL, roots) -> DivisorPoly:
    """The split divisor with the given (nilpotent) root values."""
    coeffs = _coeffs_from_roots(qring, [qring.reduce(r) for r in roots])
    return DivisorPoly(qring, law, coeffs)


def tpoly_mul(q: QuotientRing, a: list[Poly], b: list[Poly]) -> list[Poly]:
    """Product of two t-polynomials over q, coefficient lists descending in t.

    Each output coefficient is reduced once: normal forms are linear."""
    out = [q.ring.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return [q.reduce(c) for c in out]


def _coeffs_from_roots(qring: QuotientRing, roots) -> list[Poly]:
    """Coefficients c_1..c_d of prod (t - r_i)."""
    one = qring.ring.one()
    coeffs = [one]
    for r in roots:
        coeffs = tpoly_mul(qring, coeffs, [one, -r])
    return coeffs[1:]


# -- splitting towers ----------------------------------------------------------

class SplitTower:
    """A free extension of the base quotient ring where a set of monic
    divisor polynomials splits into linear factors.

    New root variables are prepended (later adjunctions get higher lex
    precedence), so the base Groebner basis stays a Groebner basis and the
    extended basis is again reduced with pairwise-coprime new leading terms.
    Extraction back to the base is reading off normal forms with no root
    variables.
    """

    def __init__(self, base: QuotientRing):
        self.base = base
        self.ext = base
        self._counter = 0

    def extract(self, p: Poly) -> Poly:
        return self.ext.reduce(p).to_ring(self.base.ring)

    def _extend_ring(self, name: str) -> PolyRing:
        ring = self.ext.ring
        return PolyRing(ring.field, (name,) + ring.variables)

    def adjoin_root(self, monic_coeffs: list[Poly]) -> Poly:
        """Adjoin a root of t^m + a_1 t^{m-1} + ... + a_m (a_i in the current
        extension); returns the root as an element of the new extension."""
        m = len(monic_coeffs)
        self._counter += 1
        name = f"_s{self._counter}"
        new_ring = self._extend_ring(name)
        order = lex_order(new_ring.nvars)

        root = new_ring.gen(name)
        rel = root ** m
        for k, a in enumerate(monic_coeffs, start=1):
            rel = rel + a.to_ring(new_ring) * root ** (m - k)
        # rel leads with root^m, above every old member: root is the first lex variable
        new_polys = [rel] + [g.to_ring(new_ring) for g in self.ext.basis.polys]
        self.ext = QuotientRing(GroebnerBasis(new_ring, order, new_polys))
        return root

    def split(self, coeffs: list[Poly]) -> list[Poly]:
        """Adjoin roots until the monic polynomial with the given c_1..c_d
        splits; returns the d root values in the final extension."""
        work = list(coeffs)
        roots: list[Poly] = []
        while len(work) > 1:
            root = self.adjoin_root(work)
            roots = [r.to_ring(self.ext.ring) for r in roots]
            work = [c.to_ring(self.ext.ring) for c in work]
            # divide by (t - root): quotient coefficients by Horner
            quotient = []
            prev = self.ext.ring.one()
            for a in work:
                quotient.append(prev)
                prev = self.ext.reduce(a + root * prev)
            # prev is now f(root); it must reduce to zero
            if prev:
                raise ValidationError("adjoined root does not annihilate the polynomial")
            roots.append(root)
            work = quotient[1:]
        if work:
            roots = roots + [self.ext.reduce(-work[0])]
        return roots


def _check_ceiling(deg: int):
    if deg > DEGREE_CEILING:
        raise DegreeCeiling(f"divisor degree {deg} exceeds ceiling {DEGREE_CEILING}")


def _extract_divisor(base: QuotientRing, law: FGL, tower: SplitTower, roots) -> DivisorPoly:
    coeffs = _coeffs_from_roots(tower.ext, roots)
    return DivisorPoly(base, law, [tower.extract(c) for c in coeffs])


def divisor_mul(D: DivisorPoly, E: DivisorPoly) -> DivisorPoly:
    """The degree-de divisor with roots r_i +_F s_j."""
    if D.qring is not E.qring or D.law is not E.law:
        raise IncompatibleRing("divisors over different rings or laws")
    _check_ceiling(D.degree * E.degree)
    law = D.law
    tower = SplitTower(D.qring)
    roots_d = tower.split(list(D.coeffs))
    if E.coeffs == D.coeffs:
        roots_e = roots_d
    else:
        roots_e = tower.split([c.to_ring(tower.ext.ring) for c in E.coeffs])
    # move every root into the final extension
    roots_d = [tower.ext.reduce(r.to_ring(tower.ext.ring)) for r in roots_d]
    roots_e = [tower.ext.reduce(r.to_ring(tower.ext.ring)) for r in roots_e]
    sums = []
    for r in roots_d:
        for s in roots_e:
            sums.append(law.add_in_ring(r, s, tower.ext))
    return _extract_divisor(D.qring, law, tower, sums)


def divisor_lambda(D: DivisorPoly, r: int) -> DivisorPoly:
    """The divisor with roots sum_F over r-element subsets of the roots."""
    if not 0 <= r <= D.degree:
        raise ValidationError(f"lambda^{r} of a degree-{D.degree} divisor")
    _check_ceiling(comb(D.degree, r))
    law = D.law
    if r == 0:
        return DivisorPoly(D.qring, law, [D.qring.ring.zero()])
    tower = SplitTower(D.qring)
    roots = tower.split(list(D.coeffs))
    new_roots = []
    for subset in combinations(roots, r):
        new_roots.append(law.sum_in_ring(list(subset), tower.ext))
    return _extract_divisor(D.qring, law, tower, new_roots)


def divisor_psi(D: DivisorPoly, k: int) -> DivisorPoly:
    """The divisor with roots [k](r_i).

    For the Honda laws [p](x) = x^{p^n} exactly, so psi^{p^m} acts on
    coefficients as c -> c^{p^{nm}}; other k go through the splitting tower.
    """
    if k == 1:
        return D
    law = D.law
    # k > 1 also keeps k = 0 out of p_part_exponent, whose loop never ends there
    if law.kind == "honda" and k > 1:
        m = p_part_exponent(k, law.p)
        if k == law.p ** m:
            q = law.p ** (law.n * m)
            return DivisorPoly(D.qring, law, [D.qring.pow(c, q) for c in D.coeffs])
    _check_ceiling(D.degree)
    tower = SplitTower(D.qring)
    roots = tower.split(list(D.coeffs))
    series = law.mul_series(k)
    new_roots = [law.eval_series(series, r, tower.ext) for r in roots]
    return _extract_divisor(D.qring, law, tower, new_roots)
