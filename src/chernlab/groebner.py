"""Buchberger Groebner bases, normal forms, quotient rings and socles."""

from __future__ import annotations

import heapq
import math
import os
from itertools import combinations_with_replacement
from operator import itemgetter

from .errors import (
    IncompatibleRing,
    InfiniteDimensional,
    NotLocal,
    ResourceLimit,
    ValidationError,
)
from .poly import (
    EXPONENT_CEILING,
    FIELD_MASK,
    MonomialOrder,
    Poly,
    PolyRing,
    ceiling_exceeded,
)


# Running totals over every buchberger call in the process: pairs popped,
# pairs skipped by the product and by the chain criterion, S-polynomials
# reduced, and reductions to zero.  pairs == product + chain + reduced.
COUNTS = {"pairs": 0, "product": 0, "chain": 0, "reduced": 0, "zero": 0}

BUCHBERGER_PAIRS = 200000  # pairs one buchberger call may pop, skipped ones included
REDUCTION_TERMS = 1 << 23  # terms normal_form may push within one buchberger call
STANDARD_MONOMIALS_CEILING = 1 << 20  # cells of the exponent box standard_monomials scans
GENERATOR_DEGREE_CEILING = 64  # total degree of a generator the groebner command takes


class GroebnerBasis:
    """A Groebner basis, or one being grown, together with its order.

    Members are monic and ``normal_form`` tries them in insertion order.  Only
    the reduced basis ``buchberger`` returns is sorted, by descending leading
    term, so that it is canonical; normal forms and assert_groebner's verdict
    do not depend on the order.

    Beside each member the basis keeps its leading monomial's key and a
    reducer: the leading term and the tail as keys of the order
    (MonomialOrder.key, the monomial's own key for lex), so integer order is
    the monomial order, and by how much the tail's degree passes the leading
    term's.  ``budget`` is the count of terms normal_form may still push
    against the basis.
    """

    def __init__(self, ring: PolyRing, order: MonomialOrder, polys: list[Poly]):
        self.ring = ring
        self.order = order
        self.polys: list[Poly] = []
        self.leading_terms: list[int] = []
        # (leading term, [(tail term, coefficient)], degree excess) per member
        self.reducers: list[tuple] = []
        self.budget = math.inf
        for g in polys:
            self.add(g)

    def add(self, g: Poly) -> None:
        """Append nonzero g, made monic."""
        lt, lc = g.leading(self.order)
        if lc != 1:
            g = g.scale(self.ring.field.inv(lc))
        tail = [(m, c) for m, c in g.terms.items() if m != lt]
        excess = max((m % FIELD_MASK for m, _ in tail), default=0) - lt % FIELD_MASK
        self.polys.append(g)
        self.leading_terms.append(lt)
        if self.order.graded:
            key = self.order.key
            self.reducers.append((key(lt), [(key(m), c) for m, c in tail], excess))
        else:
            self.reducers.append((lt, tail, excess))

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return f"GroebnerBasis({[p.text(self.order) for p in self.polys]})"


def normal_form(p: Poly, basis: GroebnerBasis) -> Poly:
    """Full reduction: no monomial of the result is divisible by a leading term.

    The work terms sit in a heap of negated order keys (see GroebnerBasis),
    so the largest pops first; for lex these are p's own keys.  Every term a
    reduction step adds lies below the term it reduces, so each monomial
    enters the heap once; a cancelled term keeps a zero coefficient and is
    skipped when popped.  Members are tried in insertion order.  Raises
    ResourceLimit when a step would form a term of degree past
    EXPONENT_CEILING (only a lex tail can outrank its leading term's
    degree), or push more terms than the basis's budget.
    """
    if p.ring != basis.ring:
        raise IncompatibleRing("polynomial not in the basis ring")
    fld = p.ring.field
    fsub, fmul = fld.sub, fld.mul
    heappop, heappush = heapq.heappop, heapq.heappush
    guard = p.ring.guard
    order = basis.order
    budget = basis.budget
    remainder: dict = {}
    if order.graded:
        key = order.key
        work = {key(m): c for m, c in p.terms.items()}
    else:
        work = dict(p.terms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    reducers = basis.reducers
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        for lt, tail, excess in reducers:
            shift = m - lt
            if not shift & guard:
                if excess > 0 and m % FIELD_MASK + excess > EXPONENT_CEILING:
                    raise ceiling_exceeded()
                budget -= len(tail)
                if budget < 0:
                    raise ResourceLimit(f"Buchberger reduction ceiling {REDUCTION_TERMS} "
                                        "terms exceeded")
                # subtract c * x^shift * g; g is monic
                for ge, gc in tail:
                    me = ge + shift
                    old = work.get(me)
                    if old is None:
                        old = 0
                        heappush(heap, -me)
                    work[me] = fsub(old, fmul(c, gc))
                break
        else:
            remainder[m] = c
    basis.budget = budget
    if order.graded:
        low = order.low_mask
        remainder = {m & low: c for m, c in remainder.items()}
    return Poly(p.ring, remainder)


def _spoly(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    ef, cf = f.leading(order)
    eg, cg = g.leading(order)
    ring = f.ring
    lcm = ring.lcm(ef, eg)
    fld = ring.field
    mf = Poly(ring, {lcm - ef: fld.inv(cf)})
    mg = Poly(ring, {lcm - eg: fld.inv(cg)})
    return mf * f - mg * g


def buchberger(generators: list[Poly], order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis; normal pair strategy, deterministic output.

    Pending pairs sit in a heap keyed by (deg lcm, lcm, i, j).  A popped pair
    is skipped when its leading terms are coprime (product criterion) or when
    some other member's leading term divides their lcm and neither pair with
    that member is still pending (chain criterion; Gebauer and Moeller, J.
    Symbolic Comput. 6 (1988)).  Raises ResourceLimit when the count of
    popped pairs, skipped ones included, exceeds BUCHBERGER_PAIRS, or when
    the normal forms, interreduction included, push more than
    REDUCTION_TERMS terms.  Adds to COUNTS.
    """
    gens = [g for g in generators if g]
    if not gens:
        raise ValidationError("no nonzero generators")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise IncompatibleRing("generators in mixed rings")
    basis = GroebnerBasis(ring, order, [])
    basis.budget = REDUCTION_TERMS
    lts = basis.leading_terms
    guard = ring.guard
    lcm_of = ring.lcm
    heap: list = []
    pending: set = set()

    def add(g: Poly) -> None:
        k = len(lts)
        basis.add(g)
        for i in range(k):
            lcm = lcm_of(lts[i], lts[k])
            heapq.heappush(heap, (lcm % FIELD_MASK, lcm, i, k))
            pending.add((i, k))

    for g in gens:
        add(g)
    processed = 0
    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        processed += 1
        COUNTS["pairs"] += 1
        if processed > BUCHBERGER_PAIRS:
            raise ResourceLimit(f"Buchberger pair ceiling {BUCHBERGER_PAIRS} exceeded")
        if lcm == lts[i] + lts[j]:
            COUNTS["product"] += 1
            continue
        if any(
            k != i and k != j and not (lcm - lt) & guard
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, lt in enumerate(lts)
        ):
            COUNTS["chain"] += 1
            continue
        COUNTS["reduced"] += 1
        r = normal_form(_spoly(basis.polys[i], basis.polys[j], order), basis)
        if r:
            add(r)
        else:
            COUNTS["zero"] += 1
    result = _interreduce(basis)
    if os.environ.get("CHERNLAB_VERIFY_GB"):
        assert_groebner(result)
    return result


def _interreduce(basis: GroebnerBasis) -> GroebnerBasis:
    """The reduced basis of a Groebner basis's ideal, by descending leading term.

    Members are taken by ascending leading term: one whose leading term a kept
    member's divides is dropped, any other is reduced against the kept ones.
    No later member could reduce a kept one, as a larger leading term divides
    no smaller monomial (Cox, Little and O'Shea, IVA, section 2.7).  The
    reductions draw on what is left of the basis's budget.
    """
    guard = basis.ring.guard
    reduced = GroebnerBasis(basis.ring, basis.order, [])
    reduced.budget = basis.budget
    keys = map(basis.order.key, basis.leading_terms)
    ascending = sorted(zip(keys, basis.leading_terms, basis.polys), key=itemgetter(0))
    for _, lt, g in ascending:
        if not any(not (lt - kept) & guard for kept in reduced.leading_terms):
            reduced.add(normal_form(g, reduced))
    for members in (reduced.polys, reduced.leading_terms, reduced.reducers):
        members.reverse()
    reduced.budget = math.inf
    return reduced


def assert_groebner(basis: GroebnerBasis) -> None:
    """Check that every S-polynomial of the basis reduces to zero."""
    for i in range(len(basis.polys)):
        for j in range(i + 1, len(basis.polys)):
            s = _spoly(basis.polys[i], basis.polys[j], basis.order)
            if normal_form(s, basis):
                raise AssertionError(f"S-polynomial of members {i},{j} does not reduce to 0")


def standard_monomials(basis: GroebnerBasis, cap: int | None = None) -> list[int]:
    """Keys of the monomials no leading term divides, sorted ascending.

    A constant leading term (the unit ideal) divides every monomial, so
    there are none.  Otherwise, when some variable has no pure-power
    leading-term bound the complement is infinite: raises
    InfiniteDimensional unless ``cap`` bounds every exponent.  Raises
    ResourceLimit when the box of exponents below the bounds has more than
    STANDARD_MONOMIALS_CEILING cells.  The box is walked one variable at a
    time, and a monomial's multiples are skipped once a leading term
    divides it.
    """
    ring = basis.ring
    lts = basis.leading_terms
    if 0 in lts:
        return []
    bounds = []
    for name, s in zip(ring.variables, ring.shifts):
        bound = min((lt >> s for lt in lts if lt and not lt & ~(FIELD_MASK << s)), default=None)
        if bound is None:
            if cap is None:
                raise InfiniteDimensional(f"no pure power of {name!r} among leading terms")
            bound = cap
        elif cap is not None:
            bound = min(bound, cap)
        bounds.append(bound)
    cells = math.prod(bounds)
    if cells > STANDARD_MONOMIALS_CEILING:
        raise ResourceLimit(
            f"standard-monomial ceiling {STANDARD_MONOMIALS_CEILING} exceeded by {cells} cells"
        )
    guard = ring.guard
    out = [0]
    for s, bound in zip(ring.shifts, bounds):
        grown = []
        for prefix in out:
            for e in range(bound):
                m = prefix + (e << s)
                if any(not (m - lt) & guard for lt in lts):
                    break
                grown.append(m)
        out = grown
    out.sort(key=basis.order.key)
    return out


class QuotientRing:
    """F_q[x..]/I presented by a reduced Groebner basis.

    Elements are normal-form Poly values of the ambient ring; ``mul``/``add``
    keep results in normal form.  The standard-monomial basis is cached when
    the quotient is finite dimensional.
    """

    def __init__(self, basis: GroebnerBasis):
        self.basis = basis
        self.ring = basis.ring
        self.order = basis.order
        self._std: list[int] | None = None

    @property
    def field(self):
        return self.ring.field

    def reduce(self, p: Poly) -> Poly:
        return normal_form(p, self.basis)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return self.reduce(a * b)

    def pow(self, a: Poly, n: int) -> Poly:
        if n < 0:
            raise ValidationError("negative power in a quotient ring")
        result = self.ring.one()
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            if n > 1:
                base = self.mul(base, base)
            n >>= 1
        return result

    def gen(self, name: str) -> Poly:
        return self.reduce(self.ring.gen(name))

    def _standard(self) -> list[int]:
        if self._std is None:
            self._std = standard_monomials(self.basis)
        return self._std

    def std_monomials(self) -> list[tuple[int, ...]]:
        """The standard monomials' exponent tuples, ascending."""
        return list(map(self.ring.exponents, self._standard()))

    def dimension(self) -> int:
        return len(self._standard())

    # -- local-ring analysis -------------------------------------------------
    def socle(self) -> list[Poly]:
        """Basis of the annihilator of the maximal ideal, by exact linear algebra.

        Requires a finite-dimensional local quotient, and raises NotLocal
        unless every variable is nilpotent.  Then the quotient by the
        variables is the field, so the non-constant standard monomials span
        the unique maximal ideal.  The returned normal forms are sorted and
        normalized.  The ring is Gorenstein iff the result has length one.
        """
        std = self._standard()
        fld = self.field
        dim = len(std)
        index = {m: k for k, m in enumerate(std)}
        rows: list[list[int]] = []
        for vname in self.ring.variables:
            x = self.ring.gen(vname)
            power = self.reduce(x)
            for _ in range(dim):
                if not power:
                    break
                power = self.mul(power, x)
            if power:
                raise NotLocal(f"variable {vname!r} is not nilpotent")
            cols = []
            for m in std:
                prod = self.mul(Poly(self.ring, {m: 1}), x)
                col = [0] * dim
                for e, c in prod.terms.items():
                    col[index[e]] = c
                cols.append(col)
            for r in range(dim):
                rows.append([cols[c][r] for c in range(dim)])
        kernel = _field_kernel(rows, dim, fld)
        out = []
        for vec in kernel:
            terms = {std[k]: c for k, c in enumerate(vec) if c}
            out.append(Poly(self.ring, terms).monic(self.order))
        out.sort(key=lambda p: self.order.key(p.leading(self.order)[0]))
        return out

    def is_gorenstein(self) -> bool:
        return len(self.socle()) == 1

    def __repr__(self):
        return f"QuotientRing({self.ring!r}, {len(self.basis)} relations)"


def cap_ring(field, names, caps=(), total=None) -> QuotientRing:
    """field[names]/(x_i^caps[i], every monomial of total degree ``total``).

    Monomials form a Groebner basis, and those no other one divides form the
    reduced basis (Cox, Little and O'Shea, IVA, sections 2.4 and 2.7); they are
    kept by descending lex leading term, as ``buchberger`` orders its output.
    With no relations this is field[names] itself: the field when ``names``
    is empty.
    """
    n = len(names)
    ring = PolyRing(field, names)
    monos = {ring.pack(tuple(c if k == i else 0 for k in range(n)))
             for i, c in zip(range(n), caps)}
    if total is not None:
        monos.update(ring.pack(tuple(picks.count(i) for i in range(n)))
                     for picks in combinations_with_replacement(range(n), total))
    guard = ring.guard
    minimal = [m for m in monos if not any(d != m and not (m - d) & guard for d in monos)]
    return QuotientRing(GroebnerBasis(ring, ring.lex(),
                                      [Poly(ring, {m: 1}) for m in sorted(minimal, reverse=True)]))


def _field_kernel(rows: list[list[int]], ncols: int, fld) -> list[list[int]]:
    """Kernel basis of the matrix over the finite field (row-reduced echelon)."""
    mat = [row[:] for row in rows if any(row)]
    pivots: dict[int, list[int]] = {}
    for row in mat:
        for col, piv in pivots.items():
            c = row[col]
            if c:
                for k in range(ncols):
                    row[k] = fld.sub(row[k], fld.mul(c, piv[k]))
        lead = next((k for k in range(ncols) if row[k]), None)
        if lead is None:
            continue
        inv = fld.inv(row[lead])
        row = [fld.mul(inv, x) for x in row]
        for piv in pivots.values():
            c = piv[lead]
            if c:
                for k in range(ncols):
                    piv[k] = fld.sub(piv[k], fld.mul(c, row[k]))
        pivots[lead] = row
    free = [k for k in range(ncols) if k not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for col, piv in pivots.items():
            vec[col] = fld.neg(piv[f])
        basis.append(vec)
    return basis
