"""Buchberger Groebner bases, normal forms, quotient rings and socles."""

from __future__ import annotations

import heapq
import math
import os
import struct
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
    MonomialOrder,
    Poly,
    PolyRing,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
)


# Running totals over every buchberger call in the process: pairs popped,
# pairs skipped by the product and by the chain criterion, S-polynomials
# reduced, and reductions to zero.  pairs == product + chain + reduced.
COUNTS = {"pairs": 0, "product": 0, "chain": 0, "reduced": 0, "zero": 0}

BUCHBERGER_PAIRS = 200000  # pairs one buchberger call may pop, skipped ones included
STANDARD_MONOMIALS_CEILING = 1 << 20  # cells of the exponent box standard_monomials scans
GENERATOR_DEGREE_CEILING = 64  # total degree of a generator the groebner command takes
EXPONENT_BITS = 32  # width of one packed-key field, its guard bit included
EXPONENT_CEILING = (1 << (EXPONENT_BITS - 1)) - 1  # largest exponent or degree a field holds


def _ceiling_exceeded() -> ResourceLimit:
    return ResourceLimit(f"an exponent or degree exceeds the packed-key ceiling {EXPONENT_CEILING}")


class GroebnerBasis:
    """A Groebner basis, or one being grown, together with its order.

    Members are monic and ``normal_form`` tries them in insertion order.  Only
    the reduced basis ``buchberger`` returns is sorted, by descending leading
    term, so that it is canonical; normal forms and assert_groebner's verdict
    do not depend on the order.

    Beside each member's leading exponent tuple the basis keeps its leading
    term and tail as packed keys (Monagan and Pearce, J. Symbolic Comput. 46
    (2011)): one field of EXPONENT_BITS bits per variable, the first variable
    most significant, under a total-degree field for grlex, so integer order
    is the monomial order.  The top bit of every field, ``guard``, stays
    clear: x^a divides x^b iff ``not (b - a) & guard``, and x^a x^b is a + b.
    """

    def __init__(self, ring: PolyRing, order: MonomialOrder, polys: list[Poly]):
        self.ring = ring
        self.order = order
        fields = ring.nvars + order.graded
        self._struct = struct.Struct(f">{fields}I")  # "I": one unsigned 32-bit field
        self.guard = sum(1 << (EXPONENT_BITS * k + EXPONENT_BITS - 1) for k in range(fields))
        self.polys: list[Poly] = []
        self.leading_terms: list[tuple] = []
        self.packed_leading_terms: list[int] = []
        # (packed leading term, [(packed tail term, coefficient)]) per member
        self.reducers: list[tuple] = []
        for g in polys:
            self.add(g)

    def pack(self, e: tuple) -> int:
        """The packed key of exponent tuple e.

        Raises ResourceLimit when an exponent, or for grlex the degree,
        exceeds EXPONENT_CEILING.
        """
        pack_fields = self._struct.pack
        try:
            m = int.from_bytes(pack_fields(sum(e), *e) if self.order.graded
                               else pack_fields(*e), "big")
        except struct.error:  # a field too large for EXPONENT_BITS
            raise _ceiling_exceeded() from None
        if m & self.guard:
            raise _ceiling_exceeded()
        return m

    def unpack(self, m: int) -> tuple[int, ...]:
        """The exponent tuple of packed key m."""
        fields = self._struct.unpack(m.to_bytes(self._struct.size, "big"))
        return fields[1:] if self.order.graded else fields

    def add(self, g: Poly) -> None:
        """Append nonzero g, made monic."""
        lt, lc = g.leading(self.order)
        if lc != 1:
            g = g.scale(self.ring.field.inv(lc))
        pack = self.pack
        packed_lt = pack(lt)
        self.polys.append(g)
        self.leading_terms.append(lt)
        self.packed_leading_terms.append(packed_lt)
        self.reducers.append((packed_lt, [(pack(e), c) for e, c in g.terms.items() if e != lt]))

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return f"GroebnerBasis({[p.text(self.order) for p in self.polys]})"


def normal_form(p: Poly, basis: GroebnerBasis) -> Poly:
    """Full reduction: no monomial of the result is divisible by a leading term.

    p's terms are packed once (see GroebnerBasis) and only the remainder's
    are unpacked.  The work terms sit in a heap of negated packed keys, so
    the largest pops first.  Every term a reduction step adds lies below the
    term it reduces, so each monomial enters the heap once; a cancelled term
    keeps a zero coefficient and is skipped when popped.  Members are tried
    in insertion order.  Raises ResourceLimit when a term's exponent or
    degree would exceed EXPONENT_CEILING, which shows as a guard bit.
    """
    if p.ring != basis.ring:
        raise IncompatibleRing("polynomial not in the basis ring")
    fld = p.ring.field
    fsub, fmul = fld.sub, fld.mul
    heappop, heappush = heapq.heappop, heapq.heappush
    guard = basis.guard
    pack = basis.pack
    remainder: dict = {}
    work = {pack(e): c for e, c in p.terms.items()}
    heap = [-m for m in work]
    heapq.heapify(heap)
    reducers = basis.reducers
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        for lt, tail in reducers:
            shift = m - lt
            if not shift & guard:
                # subtract c * x^shift * g; g is monic
                for ge, gc in tail:
                    me = ge + shift
                    old = work.get(me)
                    if old is None:
                        if me & guard:
                            raise _ceiling_exceeded()
                        old = 0
                        heappush(heap, -me)
                    work[me] = fsub(old, fmul(c, gc))
                break
        else:
            remainder[m] = c
    unpack = basis.unpack
    return Poly(p.ring, {unpack(m): c for m, c in remainder.items()})


def _spoly(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    ef, cf = f.leading(order)
    eg, cg = g.leading(order)
    lcm = mono_lcm(ef, eg)
    fld = f.ring.field
    mf = f.ring.monomial(mono_div(lcm, ef), fld.inv(cf))
    mg = f.ring.monomial(mono_div(lcm, eg), fld.inv(cg))
    return mf * f - mg * g


def buchberger(generators: list[Poly], order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis; normal pair strategy, deterministic output.

    Pending pairs sit in a heap keyed by (deg lcm, packed lcm, i, j).  A
    popped pair is skipped when its leading terms are coprime (product
    criterion) or when some other member's leading term divides their lcm and
    neither pair with that member is still pending (chain criterion; Gebauer
    and Moeller, J. Symbolic Comput. 6 (1988)).  Raises ResourceLimit when the
    count of popped pairs, skipped ones included, exceeds BUCHBERGER_PAIRS.
    Adds to COUNTS.
    """
    gens = [g for g in generators if g]
    if not gens:
        raise ValidationError("no nonzero generators")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise IncompatibleRing("generators in mixed rings")
    basis = GroebnerBasis(ring, order, [])
    lts = basis.leading_terms
    packed_lts = basis.packed_leading_terms
    guard = basis.guard
    heap: list = []
    pending: set = set()

    def add(g: Poly) -> None:
        k = len(lts)
        basis.add(g)
        for i in range(k):
            lcm = mono_lcm(lts[i], lts[k])
            heapq.heappush(heap, (sum(lcm), basis.pack(lcm), i, k))
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
        if mono_coprime(lts[i], lts[j]):
            COUNTS["product"] += 1
            continue
        if any(
            k != i and k != j and not (lcm - lt) & guard
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, lt in enumerate(packed_lts)
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
    no smaller monomial (Cox, Little and O'Shea, IVA, section 2.7).
    """
    guard = basis.guard
    reduced = GroebnerBasis(basis.ring, basis.order, [])
    ascending = sorted(zip(basis.packed_leading_terms, basis.polys), key=itemgetter(0))
    for lt, g in ascending:
        if not any(not (lt - kept) & guard for kept in reduced.packed_leading_terms):
            reduced.add(normal_form(g, reduced))
    for members in (reduced.polys, reduced.leading_terms, reduced.packed_leading_terms,
                    reduced.reducers):
        members.reverse()
    return reduced


def assert_groebner(basis: GroebnerBasis) -> None:
    """Check that every S-polynomial of the basis reduces to zero."""
    for i in range(len(basis.polys)):
        for j in range(i + 1, len(basis.polys)):
            s = _spoly(basis.polys[i], basis.polys[j], basis.order)
            if normal_form(s, basis):
                raise AssertionError(f"S-polynomial of members {i},{j} does not reduce to 0")


def standard_monomials(basis: GroebnerBasis, cap: int | None = None) -> list[tuple[int, ...]]:
    """Monomials not divisible by any leading term, sorted ascending.

    A constant leading term (the unit ideal) divides every monomial, so
    there are none.  Otherwise, when some variable has no pure-power
    leading-term bound the complement is infinite: raises
    InfiniteDimensional unless ``cap`` bounds every exponent.  Raises
    ResourceLimit when the box of exponents below the bounds has more than
    STANDARD_MONOMIALS_CEILING cells.
    """
    ring = basis.ring
    n = ring.nvars
    if not all(map(any, basis.leading_terms)):
        return []
    bounds = []
    for i in range(n):
        bound = None
        for lt in basis.leading_terms:
            if all(e == 0 for k, e in enumerate(lt) if k != i) and lt[i] > 0:
                bound = lt[i] if bound is None else min(bound, lt[i])
        if bound is None:
            if cap is None:
                raise InfiniteDimensional(
                    f"no pure power of {ring.variables[i]!r} among leading terms"
                )
            bound = cap
        elif cap is not None:
            bound = min(bound, cap)
        bounds.append(bound)
    cells = math.prod(bounds)
    if cells > STANDARD_MONOMIALS_CEILING:
        raise ResourceLimit(
            f"standard-monomial ceiling {STANDARD_MONOMIALS_CEILING} exceeded by {cells} cells"
        )
    out = []
    stack = [(0, ())]
    while stack:
        i, prefix = stack.pop()
        if i == n:
            if not any(mono_divides(lt, prefix) for lt in basis.leading_terms):
                out.append(prefix)
            continue
        for e in range(bounds[i]):
            stack.append((i + 1, prefix + (e,)))
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
        self._std: list[tuple[int, ...]] | None = None

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

    def std_monomials(self) -> list[tuple[int, ...]]:
        if self._std is None:
            self._std = standard_monomials(self.basis)
        return self._std

    def dimension(self) -> int:
        return len(self.std_monomials())

    # -- local-ring analysis -------------------------------------------------
    def socle(self) -> list[Poly]:
        """Basis of the annihilator of the maximal ideal, by exact linear algebra.

        Requires a finite-dimensional local quotient, and raises NotLocal
        unless every variable is nilpotent.  Then the quotient by the
        variables is the field, so the non-constant standard monomials span
        the unique maximal ideal.  The returned normal forms are sorted and
        normalized.  The ring is Gorenstein iff the result has length one.
        """
        std = self.std_monomials()
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
                prod = self.mul(self.ring.monomial(m), x)
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
    monos = {tuple(c if k == i else 0 for k in range(n)) for i, c in zip(range(n), caps)}
    if total is not None:
        monos.update(tuple(picks.count(i) for i in range(n))
                     for picks in combinations_with_replacement(range(n), total))
    minimal = [m for m in monos if not any(d != m and mono_divides(d, m) for d in monos)]
    ring = PolyRing(field, names)
    return QuotientRing(GroebnerBasis(ring, ring.lex(),
                                      [ring.monomial(m) for m in sorted(minimal, reverse=True)]))


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
