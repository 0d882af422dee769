"""Presentations of the Chern-class ring by generators and coefficient relations.

Generators c_{i,k} (one per nontrivial irreducible i and 1 <= k <= d_i) with
relations equating the coefficients of the divisor product / exterior-power
polynomials against the tensor / lambda decompositions of the representation
ring (RepRing.relations()), plus nilpotence truncations.  Every relation's
degree, d_i d_j or C(d_i, r), must be at most divisor.DEGREE_CEILING, and
every product's splitting tower must be within TOWER_WORK_CEILING; both are
checked before any quotient is built.  The truncation exponent is
p^{n*v(G)} with v(G) the p-part of the group exponent, which the finiteness
theory makes harmless; raising v cannot change the presented quotient.  A
truncation past the law's precision is refused before it is built, since the
law is unknown on a generator whose prec-th power survives.

Each relation is computed once.  Products of two line characters come first;
a generator one equates to zero (times a unit) is killed, and those relations
are reduced into the narrower capped ring: a divisor operation is ring
operations and normal forms, so that is what the narrower ring would compute
(base change, as in Strickland's "Formal schemes and formal groups")."""

from __future__ import annotations

from math import comb, factorial

from .divisor import DEGREE_CEILING, DivisorPoly, divisor_lambda, divisor_mul, tpoly_mul
from .errors import DegreeCeiling, PrecisionExceeded, ResourceLimit, ValidationError
from .fgl import FGL
from .field import GF
from .groebner import QuotientRing, buchberger, cap_ring
from .groups import p_part_exponent, power_exceeds
from .poly import Poly
from .repring import RepRing

# D_i * D_j splits in a tower free of rank d_i! d_j! over the cap_ring on the
# d_i + d_j generators of D_i and D_j (d_i when i = j), each capped at the
# truncation exponent; the work is that dimension times the rank
TOWER_WORK_CEILING = 1 << 14


class Presentation:
    def __init__(self, qring, generators, killed):
        self.qring = qring
        self.generators = generators
        self.killed = killed

    def dimension(self) -> int:
        return self.qring.dimension()

    def std_monomial_texts(self) -> list[str]:
        ring = self.qring.ring
        return [ring.monomial(e).text(self.qring.order) for e in self.qring.std_monomials()]

    def elimination_summary(self):
        """(subs, core_vars, iso): the variable substitutions in the reduced
        basis, the variables they leave, and iso = (q, y, m) when one variable
        y is left with one pure-power relation (F_q[y]/(y^m)), else None."""
        subs = {}
        core_rels = []
        ring = self.qring.ring
        for g in self.qring.basis.polys:
            lt = ring.exponents(g.leading(self.qring.order)[0])
            if sum(lt) == 1:
                var = ring.variables[lt.index(1)]
                subs[var] = g - ring.gen(var)  # var = -(tail)
            else:
                core_rels.append(g)
        core_vars = [v for v in ring.variables if v not in subs]
        iso = None
        if len(core_vars) == 1 and len(core_rels) == 1:
            rel = core_rels[0]
            if len(rel.terms) == 1:
                m = max(ring.exponents(rel.leading(self.qring.order)[0]))
                iso = (self.qring.field.q, core_vars[0], m)
        return subs, core_vars, iso


def _product_coeffs(ambient_q: QuotientRing, divisors, mults) -> list[Poly]:
    """Coefficients of prod_k f_k(t)^{m_k}, descending in t, monic."""
    coeffs = [ambient_q.ring.one()]
    for div, m in zip(divisors, mults):
        for _ in range(m):
            coeffs = tpoly_mul(ambient_q, coeffs, div.poly_coeffs())
    return coeffs


def _unit_times_variable(poly: Poly, qring: QuotientRing):
    """If poly = x * u with u a unit of the local quotient, return x's name."""
    ring = poly.ring
    guard = ring.guard
    for name, s in zip(ring.variables, ring.shifts):
        x = 1 << s
        if all(not (m - x) & guard for m in poly.terms):
            quotient = Poly(ring, {m - x: c for m, c in poly.terms.items()})
            if qring.reduce(quotient).constant_term():
                return name
    return None


def build_presentation(
    rep: RepRing,
    law: FGL,
    v: int | None = None,
) -> Presentation:
    """Generators, relations and the Groebner-reduced quotient of the
    Chern-class ring of a representation ring over a finite field."""
    p = law.p
    v_g = p_part_exponent(rep.table.exponent, p)
    if v is not None and v < v_g:
        raise ValidationError(f"v={v} is below the p-part {v_g} of the exponent")
    field = GF(p)

    h = rep.h
    dims = rep.dims
    relations = rep.relations()
    for i, j, r, _ in relations:
        degree = comb(dims[i], r) if r else dims[i] * dims[j]
        if degree > DEGREE_CEILING:
            raise DegreeCeiling(f"relation degree {degree} exceeds ceiling {DEGREE_CEILING}")
    e = law.n * v_g
    if power_exceeds(p, e, law.prec):
        raise PrecisionExceeded(f"truncation exponent {p}^{e} exceeds precision {law.prec}")
    trunc = p ** e
    for i, j, r, _ in relations:
        rank = factorial(dims[i]) * factorial(dims[j])
        # a product of two line characters splits at once: it adjoins no root
        if not r and rank > 1:
            work = trunc ** (dims[i] + (dims[j] if j != i else 0)) * rank
            if work > TOWER_WORK_CEILING:
                raise ResourceLimit(
                    f"splitting tower of V{i + 1}*V{j + 1} has work {work}, "
                    f"over ceiling {TOWER_WORK_CEILING}")
    var_names = []
    var_of = {}
    for i in range(1, h):
        for k in range(1, dims[i] + 1):
            name = f"c{i+1}_{k}"
            var_of[(i, k)] = name
            var_names.append(name)
    killed: set[str] = set()

    def make_quotient():
        return cap_ring(field, var_names, [1 if nm in killed else trunc for nm in var_names])

    def tautological(q: QuotientRing):
        divs = [DivisorPoly(q, law, [q.ring.zero()])]  # trivial representation
        for i in range(1, h):
            coeffs = [q.gen(var_of[(i, k)]) for k in range(1, dims[i] + 1)]
            divs.append(DivisorPoly(q, law, coeffs))
        return divs

    def relations_for(q, divs, relations):
        rels = []
        for i, j, r, coeffs in relations:
            lhs = divisor_lambda(divs[i], r) if r else divisor_mul(divs[i], divs[j])
            rhs = _product_coeffs(q, divs, coeffs)
            for k in range(1, lhs.degree + 1):
                diff = q.reduce(lhs.coeffs[k - 1] - rhs[k])
                if diff:
                    rels.append(diff)
        return rels

    # phase A: products of two line characters, reduced as generators are killed
    ambient_q = make_quotient()
    divs = tautological(ambient_q)
    line_products, others = [], []
    for rel in relations:
        (line_products if dims[rel[0]] == dims[rel[1]] == 1 else others).append(rel)
    rels = relations_for(ambient_q, divs, line_products)
    while True:
        names = {name for rel in rels if (name := _unit_times_variable(rel, ambient_q))}
        names -= killed
        if not names:
            break
        killed |= names
        ambient_q = make_quotient()
        rels = [rel for rel in map(ambient_q.reduce, rels) if rel]

    # phase B: every other product and lambda relation
    if killed:
        divs = tautological(ambient_q)
    rels += relations_for(ambient_q, divs, others)

    final_q = ambient_q
    if rels:
        final_q = QuotientRing(buchberger(ambient_q.basis.polys + rels, ambient_q.order))
    final_q.dimension()
    return Presentation(final_q, var_names, sorted(killed))
