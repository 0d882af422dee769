"""Scheme-side divisors: monic polynomials over Artinian quotient rings.

A degree-d divisor is f_D(t) = t^d + c_1 t^{d-1} + ... + c_d.  Products,
lambda and psi operations are computed exactly by adjoining roots (a
splitting tower: one ring and one growing Groebner basis), forming the
required symmetric functions of formal-group expressions in the roots, and
extracting the coefficients back into the base ring.  No truncation beyond
the ring's own relations is introduced, so results are exact whenever the
formal group law carries enough precision for the (nilpotent) roots.
"""

from __future__ import annotations

from functools import cache
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
    """The base quotient ring with roots adjoined until each of a list of
    monic divisor polynomials splits into linear factors; ``roots[i]`` holds
    the roots of ``polys[i]``, given by its coefficients c_1..c_d.

    One ring holds every root: the root variables _sK, ..., _s1 come first
    (later adjunctions get higher lex precedence), then the base variables.
    Each relation ``adjoin_root`` adds is led by a pure power of its own
    root, coprime to every other leading term, so the one basis stays a
    Groebner basis as it grows and normal forms in the base variables are
    those of the base.  Coefficients are read back by normal form.
    """

    def __init__(self, base: QuotientRing, polys: list[list[Poly]]):
        count = sum(max(len(coeffs) - 1, 0) for coeffs in polys)
        names = tuple(f"_s{k}" for k in range(count, 0, -1))
        ring = PolyRing(base.field, names + base.ring.variables)
        basis = [g.to_ring(ring) for g in base.basis.polys]
        self.ext = QuotientRing(GroebnerBasis(ring, lex_order(ring.nvars), basis))
        self._counter = 0
        self.roots = [self.split([c.to_ring(ring) for c in coeffs]) for coeffs in polys]

    def adjoin_root(self, monic_coeffs: list[Poly]) -> Poly:
        """Adjoin a root of t^m + a_1 t^{m-1} + ... + a_m, the a_i in the
        roots adjoined so far and the base; returns the root."""
        m = len(monic_coeffs)
        self._counter += 1
        root = self.ext.ring.gen(f"_s{self._counter}")
        rel = root ** m
        for k, a in enumerate(monic_coeffs, start=1):
            rel = rel + a * root ** (m - k)
        self.ext.basis.add(rel)
        return root

    def split(self, coeffs: list[Poly]) -> list[Poly]:
        """Adjoin roots until the monic polynomial with the given c_1..c_d
        splits; returns its d roots."""
        work = list(coeffs)
        roots: list[Poly] = []
        while len(work) > 1:
            root = self.adjoin_root(work)
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
            roots.append(self.ext.reduce(-work[0]))
        return roots


def _check_ceiling(deg: int):
    if deg > DEGREE_CEILING:
        raise DegreeCeiling(f"divisor degree {deg} exceeds ceiling {DEGREE_CEILING}")


def _extract_divisor(base: QuotientRing, law: FGL, tower: SplitTower, roots) -> DivisorPoly:
    coeffs = _coeffs_from_roots(tower.ext, roots)
    return DivisorPoly(base, law, [c.to_ring(base.ring) for c in coeffs])


def _root_powers(law: FGL, tower: SplitTower):
    """root -> its power table in the tower, built once, when first asked
    for: a sum of roots builds its tables, and fails its checks, in the
    order ``FGL.add_in_ring`` would."""
    return cache(lambda root: law.powers_in_ring(root, tower.ext))


def divisor_mul(D: DivisorPoly, E: DivisorPoly) -> DivisorPoly:
    """The degree-de divisor with roots r_i +_F s_j."""
    if D.qring is not E.qring or D.law is not E.law:
        raise IncompatibleRing("divisors over different rings or laws")
    _check_ceiling(D.degree * E.degree)
    law = D.law
    tower = SplitTower(D.qring, [D.coeffs] if E.coeffs == D.coeffs else [D.coeffs, E.coeffs])
    powers = _root_powers(law, tower)
    sums = [law.add_powers(powers(r), powers(s), tower.ext)
            for r in tower.roots[0] for s in tower.roots[-1]]
    return _extract_divisor(D.qring, law, tower, sums)


def divisor_lambda(D: DivisorPoly, r: int) -> DivisorPoly:
    """The divisor with roots sum_F over r-element subsets of the roots."""
    if not 0 <= r <= D.degree:
        raise ValidationError(f"lambda^{r} of a degree-{D.degree} divisor")
    _check_ceiling(comb(D.degree, r))
    law = D.law
    if r == 0:
        return DivisorPoly(D.qring, law, [D.qring.ring.zero()])
    if r == 1:  # lambda^1 D = D, whose coefficients are normal forms already
        return D
    tower = SplitTower(D.qring, [D.coeffs])
    powers = _root_powers(law, tower)
    new_roots = []
    for first, second, *rest in combinations(tower.roots[0], r):
        out = law.add_powers(powers(first), powers(second), tower.ext)
        for s in rest:
            out = law.add_powers(law.powers_in_ring(out, tower.ext), powers(s), tower.ext)
        new_roots.append(out)
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
    tower = SplitTower(D.qring, [D.coeffs])
    series = law.mul_series(k)
    new_roots = [law.eval_series(series, r, tower.ext) for r in tower.roots[0]]
    return _extract_divisor(D.qring, law, tower, new_roots)
