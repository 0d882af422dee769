"""Finite models of generalized character data.

Omega(G): conjugacy classes of n-tuples of commuting p-power-order elements
(images of the standard topological generators).  Omega'(G) quotients by
pointwise conjugacy; Omega''(G) is the set of Z-equivariant maps from the
dual lattice to p-power conjugacy classes, built by extending each partial
map over one cyclic subgroup at a time; OmegaCh(G) is enumerated by constraint
search over lattice divisors against the Lambda-semiring relations of
RepRing.relations().  Class-valued maps on Theta are tuples indexed like
Theta.points(), and their Z-equivariance is read off Theta's rows.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import (
    InexactDivision,
    NoMatchingClass,
    NonIntegralMultiplicity,
    ResourceLimit,
    ValidationError,
)
from .groups import GroupModel, orbit_of, p_part_exponent
from .lattice import LatticeDivisor, Theta, fourier_inverse
from .repring import CharacterTable, RepRing

OMEGA_TUPLE_ENTRIES = 1 << 24  # tuple entries written by one commuting-tuple search
OMEGA_CH_NODES = 10000  # search nodes of one OmegaCh enumeration
# entries one OmegaCh search keeps: |Theta| per divisor of its table of one
# divisor per count vector, one per left-hand side it memoises
OMEGA_CH_MEMO = 1 << 16
OMEGA_DPRIME_VISITS = 1 << 20  # partial maps x |Theta| of one Omega'' enumeration

# running totals over the process: OmegaCh search nodes, values forced by a
# relation, and nodes cut by a contradiction; Omega'' point visits (the
# partial maps x |Theta| that OMEGA_DPRIME_VISITS bounds)
COUNTS = {"nodes": 0, "forced": 0, "pruned": 0, "visits": 0}


# -- Hom enumeration -----------------------------------------------------------

def commuting_tuples(model: GroupModel, p: int, n: int) -> list[tuple[int, ...]]:
    """Commuting n-tuples of p-power elements, in lexicographic order."""
    pelems = model.p_power_elements(p)
    table = model.table
    out: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [()]
    entries = 0
    while stack:
        prefix = stack.pop()
        entries += len(prefix) + 1
        if entries > OMEGA_TUPLE_ENTRIES:
            raise ResourceLimit(f"commuting-tuple search exceeds {OMEGA_TUPLE_ENTRIES} entries")
        if len(prefix) == n:
            out.append(prefix)
            continue
        stack.extend(prefix + (x,) for x in reversed(pelems)
                     if all(table[x][y] == table[y][x] for y in prefix))
    return out


def enumerate_omega(model: GroupModel, p: int, n: int) -> list[tuple[int, ...]]:
    """Omega(G): the canonical (lexicographically least) orbit representatives
    of commuting tuples under conjugation, sorted."""
    tuples = commuting_tuples(model, p, n)
    seen: set[tuple[int, ...]] = set()
    reps: list[tuple[int, ...]] = []
    for t in tuples:
        if t in seen:
            continue
        orbit = orbit_of(t, model.gen_conj)
        seen.update(orbit)
        reps.append(min(orbit))
    reps.sort()
    return reps


def hom_images(model: GroupModel, hom: tuple[int, ...], theta: Theta) -> list[int]:
    """u(a) = prod_i u_i^{a_i} for each point a, in the order of
    theta.points(), built one coordinate at a time (images commute)."""
    table = model.table
    images = [model.identity]
    for ui in hom:
        powers = [model.identity]
        for _ in range(1, theta.modulus):
            powers.append(table[powers[-1]][ui])
        images = [table[g][x] for g in images for x in powers]
    return images


def pointwise_signature(model: GroupModel, hom: tuple[int, ...], theta: Theta) -> tuple[int, ...]:
    return tuple(map(model.class_of.__getitem__, hom_images(model, hom, theta)))


def enumerate_omega_prime(model: GroupModel, p: int, n: int, w: int | None = None):
    """Omega'(G) as distinct pointwise-class signatures, plus the projection
    from Omega(G) as an index map, on Theta(p, v, n) with v = _theta_v(w)."""
    theta = Theta(p, _theta_v(model.exponent, p, n, w), n)
    om = enumerate_omega(model, p, n)
    sig_index: dict[tuple[int, ...], int] = {}
    projection = []
    sigs = []
    for rep in om:
        sig = pointwise_signature(model, rep, theta)
        if sig not in sig_index:
            sig_index[sig] = len(sigs)
            sigs.append(sig)
        projection.append(sig_index[sig])
    return om, sigs, projection


def enumerate_omega_dprime(model: GroupModel, p: int, n: int, w: int | None = None):
    """Omega''(G): Z-equivariant maps Theta(v)* -> p-power classes, v =
    _theta_v(w), as the point list and the sorted maps, each a tuple of
    class indices indexed like Theta.points().

    f(0) is the identity class; the nonzero points are taken in increasing
    order of their order, read off the scaling rows by p.  A point a that no
    earlier step has set stands for the cyclic group <a>: each partial map f
    is extended once for every p-power class c with c^p = f(p a), by
    f(u a) = c^u for u < ord(a) prime to p, along a's translation row.  p a
    has smaller order, so f(p a) is set; c^p = f(p a) makes ord(c) divide
    ord(a), and f(k a) = f(a)^k then holds for every k by induction on the
    order, so no choice is undone.  Each partial map costs |Theta| visits
    as it is built, added to COUNTS.
    """
    v = _theta_v(model.exponent, p, n, w)
    theta = Theta(p, v, n)
    pts = theta.points()
    size = len(pts)
    times_p = theta.scaling(p)
    # a point's order is p to the number of t < v with p^t a != 0; row holds
    # the indices of p^t a, and once they are all the origin no t adds more
    orders = [1] * size
    row = list(range(size))
    for _ in range(v):
        if not any(row):
            break
        orders = [o * p if x else o for o, x in zip(orders, row)]
        row = [times_p[x] for x in row]
    roots: dict[int, list[int]] = {}  # each p-power class's p-th roots
    for c in model.p_power_class_indices(p):
        roots.setdefault(model.class_power(c, p), []).append(c)
    start = COUNTS["visits"]
    COUNTS["visits"] += size  # at most THETA_POINTS_CEILING = OMEGA_DPRIME_VISITS
    maps = [[model.class_of[model.identity]] + [None] * (size - 1)]
    for a in sorted(range(1, size), key=orders.__getitem__):
        if not maps or maps[0][a] is not None:
            continue
        # the generators u a of <a>, along a's translation row
        step, j, walk = theta.shift(a), a, []
        for u in range(1, orders[a]):
            if u % p:
                walk.append((j, u))
            j = step[j]
        grown = []
        for f in maps:
            for c in roots.get(f[times_p[a]], ()):
                COUNTS["visits"] += size
                if COUNTS["visits"] - start > OMEGA_DPRIME_VISITS:
                    raise ResourceLimit(f"Omega'' search exceeds {OMEGA_DPRIME_VISITS} point visits")
                g = list(f)
                for j, u in walk:
                    g[j] = model.class_power(c, u)
                grown.append(g)
        maps = grown
    return pts, sorted(map(tuple, maps))


# -- OmegaCh: Lambda-semiring homomorphisms into the lattice model --------------

class OmegaChElem:
    """One divisor of dimension d_i per irreducible; hashable and canonical."""

    __slots__ = ("divisors", "_hash")

    def __init__(self, divisors):
        self.divisors = tuple(divisors)
        self._hash = hash(self.divisors)

    def __eq__(self, other):
        return (isinstance(other, OmegaChElem) and self._hash == other._hash
                and self.divisors == other.divisors)

    def __hash__(self):
        return self._hash

    def text(self, texts: dict | None = None) -> str:
        """The divisors' texts joined by "; ".  ``texts`` maps divisors to
        their text and is filled as it is read, so a caller that passes one
        dict for many elements writes a shared divisor once."""
        if texts is None:
            texts = {}
        for d in self.divisors:
            if d not in texts:
                texts[d] = d.text()
        return "; ".join(map(texts.__getitem__, self.divisors))

    def __repr__(self):
        return f"<OmegaCh {self.text()}>"


def _theta_v(exponent: int, p: int, n: int, v: int | None) -> int:
    """The v of Theta(p, v, n) for a group of this exponent, the one level
    check of every lattice census: by default w, the exponent of p in it.
    A v > w raises ValidationError, as p^v does not divide the exponent;
    so does a v < w when n >= 1, since the group has an element of order
    p^(v+1) and Omega(G) a hom with that image, which p^v does not kill."""
    w = p_part_exponent(exponent, p)
    if v is None:
        return w
    if v > w:
        raise ValidationError("group exponent not divisible by p^v")
    if v < w and n:
        raise ValidationError(f"p^{v} does not annihilate an image of order {p ** (v + 1)}")
    return v


def kappa(
    table: CharacterTable,
    homs: list[tuple[int, ...]],
    p: int,
    n: int,
    v: int | None = None,
) -> list[OmegaChElem]:
    """Decompose each hom into table.model's group on one Theta(p, v, n),
    shared by every returned divisor.

    A linear character chi = zeta_e^eps (eps its exponent vector,
    table._exps) is a character of Theta after u, so its divisor is the one
    point x with x_j = eps[class of u_j] / (e/p^v): n lookups and no
    transform, and one divisor per point is shared by the whole call.  The
    other rows are restricted along the pointwise class signature, read off
    the table's columns, and decomposed by exact finite Fourier inversion,
    mult(x) = p^{-vn} sum_a chi(u(a)) zeta^{-<a,x>}; every multiplicity must
    be a nonnegative integer.  The homs are checked and decomposed in order,
    so the first failing hom raises; within a hom, the linear rows are read
    first.  A v that _theta_v refuses, a hom that p^v does not annihilate
    and a table without a group model (an ingested one) raise
    ValidationError.
    """
    v = _theta_v(table.exponent, p, n, v)
    model = table.model
    if model is None:
        raise ValidationError(f"the table {table.name} has no group model")
    modulus = p ** v
    theta = Theta(p, v, n)
    step = table.exponent // modulus
    linear = [i for i, eps in enumerate(table._exps) if eps is not None]
    others = [i for i, eps in enumerate(table._exps) if eps is None]
    # coords[c]: each linear row's coordinate at class c, None where its
    # root of unity is not a p^v-th root; columns: the other rows by class
    coords = [[eps[c] // step if not eps[c] % step else None
               for eps in map(table._exps.__getitem__, linear)]
              for c in range(table.nclasses)]
    columns = list(zip(*map(table.rows.__getitem__, others)))
    masses: dict[int, LatticeDivisor] = {}
    out = []
    for hom in homs:
        # p^v must kill every u_i, so that hom is a homomorphism on Theta
        for o in map(model.orders.__getitem__, hom):
            if modulus % o:
                raise ValidationError(f"p^{v} does not annihilate an image of order {o}")
        divisors = [None] * len(table.rows)
        indices = [0] * len(linear)
        for c in map(model.class_of.__getitem__, hom):
            if None in coords[c]:
                raise NonIntegralMultiplicity(
                    f"a linear character is not a p^{v}-th root of unity on class {c}")
            indices = [x * modulus + y for x, y in zip(indices, coords[c])]
        for i, x in zip(linear, indices):
            mass = masses.get(x)
            if mass is None:
                vec = [0] * theta.size
                vec[x] = 1
                mass = masses[x] = LatticeDivisor.of_vec(theta, tuple(vec))
            divisors[i] = mass
        if others:
            classes = pointwise_signature(model, hom, theta)
            try:
                restricted = fourier_inverse(
                    theta, table.cyclo, zip(*map(columns.__getitem__, classes)))
            except (InexactDivision, ValidationError) as exc:
                raise NonIntegralMultiplicity(str(exc)) from exc
            for i, div in zip(others, restricted):
                divisors[i] = div
        out.append(OmegaChElem(divisors))
    return out


def _plan(relations, dims) -> list[tuple[int, list[tuple[int, int | None]]]]:
    """The OmegaCh search plan of ring.relations() and ring.dims: plan[s] =
    (k, ops).  Step s places D_k (D_0, then each irreducible in increasing
    dimension order that no earlier step solved) and runs ops: (rel, None)
    checks relation rel, (rel, k2) solves it for D_k2.  A step checks every
    relation whose participants are all placed, in relation order, then
    solves the first one with one unplaced participant, not on its
    left-hand side, and repeats until neither applies."""
    parts = [{i, j} | {k for k, c in enumerate(coeffs) if c} for i, j, _, coeffs in relations]
    placed: set[int] = set()
    pending = list(range(len(relations)))
    plan = []
    for k in sorted(range(len(dims)), key=lambda i: (dims[i], i)):
        if k in placed:
            continue
        placed.add(k)
        ops: list[tuple[int, int | None]] = []
        while True:
            ops += [(rel, None) for rel in pending if parts[rel] <= placed]
            pending = [rel for rel in pending if not parts[rel] <= placed]
            solve = next(((rel, k2) for rel in pending if len(parts[rel] - placed) == 1
                          for k2 in parts[rel] - placed if k2 not in relations[rel][:2]), None)
            if solve is None:
                break
            ops.append(solve)
            placed.add(solve[1])
            pending.remove(solve[0])
        plan.append((k, ops))
    return plan


def enumerate_omega_ch(
    ring: RepRing,
    p: int,
    n: int,
    v: int | None = None,
) -> list[OmegaChElem]:
    """All Lambda-semiring homomorphisms into N[Theta(v)], by depth-first
    search along _plan, worked out once: a node (values, step) runs
    plan[step]'s ops and branches on plan[step + 1]'s irreducible.

    Each relation, D_i D_j = sum c_k D_k or lambda^r(D_i) = sum c_k D_k, is
    checked once its participants are placed or solved for its one
    unplaced participant off the left-hand side (exact multiset subtraction
    and division, and the dimension check); a solved relation holds by
    construction, so at a leaf every relation holds.  The search holds one
    divisor per count vector, and the left-hand sides are memoised by
    (r, D_i, D_j) as those divisors; OMEGA_CH_MEMO bounds both tables.  A
    right-hand side of one D_k with c = 1 (every relation of an abelian
    group) is compared with the left-hand side by identity, then by count
    vector, or set to it.

    A branch on D_k of dimension d > 1 is pinned by its determinant: when
    lambda^d(D_k) = D_l, one linear D_l with c = 1 (placed by then, as the
    linear characters come first), lambda^d of d points is the one
    point at their sum, so only the first d - 1 points are enumerated and
    the last is pt(D_l) minus their sum, kept when it is not below them
    so that each multiset is made once.  The plan still checks that
    relation.  Raises ValidationError, as kappa does, on a v that
    _theta_v refuses.  Adds to COUNTS.
    """
    table = ring.table
    v = _theta_v(table.exponent, p, n, v)
    theta = Theta(p, v, n)
    size = len(theta.points())
    dims = ring.dims

    # (i, j, r, terms, one): D_i * D_j when r == 0, else lambda^r(D_i); the
    # right-hand side is sum c * D_k over terms (k, c), and one is k when
    # it is the single term D_k with c = 1, else None
    relations = []
    for i, j, r, coeffs in ring.relations():
        terms = [(k, c) for k, c in enumerate(coeffs) if c]
        one = terms[0][0] if len(terms) == 1 and terms[0][1] == 1 else None
        relations.append((i, j, r, terms, one))
    plan = _plan(ring.relations(), dims)
    # det_of[k]: the linear D_l with lambda^{dims[k]}(D_k) = D_l, else None
    det_of: list = [None] * ring.h
    for i, _, r, _, one in relations:
        if r == dims[i] > 1 and one is not None and dims[one] == 1:
            det_of[i] = one

    # the one divisor of each count vector, and the left-hand sides by
    # (r, D_i, D_j); emptied together, after which equal divisors may be
    # distinct objects, so comparisons fall back on the count vectors
    divisors: dict[tuple, LatticeDivisor] = {}
    lhs_memo: dict = {}

    def keep(kept, key, value):
        """kept[key] = value, returned; both tables are emptied first once
        they hold OMEGA_CH_MEMO entries."""
        if len(divisors) * size + len(lhs_memo) >= OMEGA_CH_MEMO:
            divisors.clear()
            lhs_memo.clear()
        kept[key] = value
        return value

    def divisor(vec, made=None):
        """The divisor with count vector vec: the table's, else made (a
        divisor with that vector) or a new one, kept."""
        out = divisors.get(vec)
        if out is None:
            out = keep(divisors, vec, LatticeDivisor.of_vec(theta, vec) if made is None else made)
        return out

    def lhs(values, rel):
        """The left-hand side's divisor, memoised on its inputs."""
        i, j, r, _, _ = relations[rel]
        key = (r, values[i], values[j])
        out = lhs_memo.get(key)
        if out is None:
            made = values[i].lam(r) if r else values[i] * values[j]
            out = keep(lhs_memo, key, divisor(made.vec, made))
        return out

    def run(values, ops) -> bool:
        """Check or solve each op's relation in turn, placing the solved
        divisors in values; False on a contradiction."""
        for rel, k in ops:
            _, _, _, terms, one = relations[rel]
            left = lhs(values, rel)
            if one is not None:
                if k is None:
                    right = values[one]
                    if left is not right and left.vec != right.vec:
                        return False
                    continue
                # D_k is the left-hand side itself: a count vector, so
                # nonnegative and divisible by c = 1
                solved = left
            else:
                # the left-hand side less every known term: zero for a
                # check, c times D_k for a solve
                acc = list(left.vec)
                m = 0
                for k2, c in terms:
                    if k2 == k:
                        m = c
                        continue
                    for x, mm in values[k2].support():
                        acc[x] -= c * mm
                if k is None:
                    if any(acc):
                        return False
                    continue
                if min(acc) < 0 or any(a % m for a in acc):
                    return False
                solved = divisor(tuple(a // m for a in acc))
            if solved.dim() != dims[k]:
                return False
            COUNTS["forced"] += 1
            values[k] = solved
        return True

    def branches(values, k):
        """The point multisets to try for D_k, in lexicographic order."""
        d, l = dims[k], det_of[k]
        if l is None:
            return combinations_with_replacement(range(size), d)
        # the last point is pt(D_l) - sum(head): translate by pt(D_l) the
        # negative of the head's sum, walked along the shift rows
        shift, neg = theta.shift, theta.scaling(-1)
        to_det = shift(values[l].support()[0][0])
        out = []
        for head in combinations_with_replacement(range(size), d - 1):
            total = head[0]
            for x in head[1:]:
                total = shift(x)[total]
            last = to_det[neg[total]]
            if last >= head[-1]:
                out.append(head + (last,))
        return out

    results: list[OmegaChElem] = []
    nodes = 0

    def dfs(values, step):
        nonlocal nodes
        nodes += 1
        COUNTS["nodes"] += 1
        if nodes > OMEGA_CH_NODES:
            raise ResourceLimit(f"OmegaCh search exceeds {OMEGA_CH_NODES} nodes")
        if not run(values, plan[step][1]):
            COUNTS["pruned"] += 1
            return
        if step + 1 == len(plan):
            results.append(OmegaChElem(values))
            return
        k = plan[step + 1][0]
        for combo in branches(values, k):
            vec = [0] * size
            for x in combo:
                vec[x] += 1
            child = list(values)
            child[k] = divisor(tuple(vec))
            dfs(child, step + 1)

    dfs([divisor((1,) + (0,) * (size - 1))] + [None] * (ring.h - 1), 0)
    return certificate_order(set(results))


def certificate_order(elems) -> list[OmegaChElem]:
    """The elements sorted by the point-sorted pairs of each divisor, read
    once per distinct divisor."""
    pairs = dict.fromkeys(d for elem in elems for d in elem.divisors)
    for d in pairs:
        pairs[d] = d.pairs
    return sorted(elems, key=lambda elem: list(map(pairs.__getitem__, elem.divisors)))


def xi_class_maps(elems: list[OmegaChElem], table: CharacterTable) -> list[tuple[int, ...]]:
    """For each element f, the class-valued map a -> [h] with
    chi_V(h) = sum_x mult(x) zeta^{<a,x>}, h a p-power class of table.model's
    group, p that of the elements' one Theta.

    The class lookup, the power maps and the scaling rows are built once per
    call.  A divisor's values are sum_x mult(x) w^{<a,x>}, w = zeta_e^{e/p^v}:
    the roots along Theta.pairing(x), built once per point x, summed with
    the multiplicities of the support, once per count vector.  Uniqueness
    of h and Z-equivariance of each result (for every multiplier k < p^v
    but k = 1, where both maps are the identity) are asserted.  A table without a group model (an ingested one) raises
    ValidationError.
    """
    model = table.model
    if model is None:
        raise ValidationError(f"the table {table.name} has no group model")
    if not elems:
        return []
    theta = elems[0].divisors[0].theta
    cy, m = table.cyclo, theta.modulus
    if cy.e % m:
        raise ValidationError(f"p^{theta.v} does not divide the exponent {cy.e}")
    roots = [cy.root_power(y * (cy.e // m)) for y in range(m)]
    # the p-power classes by their column of character values, and the
    # columns that name exactly one
    classes_of: dict = {}
    for c in model.p_power_class_indices(theta.p):
        classes_of.setdefault(tuple(row[c] for row in table.rows), []).append(c)
    unique = {column: cs[0] for column, cs in classes_of.items() if len(cs) == 1}
    equivariance = [(theta.scaling(k), table.power_map(k)) for k in range(m) if k != 1]
    pts = theta.points()
    point_values: dict[int, list] = {}  # roots along the pairing row, by point
    divisor_values: dict[LatticeDivisor, list] = {}  # values, by divisor
    out = []
    for f in elems:
        if any(d.theta != theta for d in f.divisors):
            raise ValidationError("mixed lattice parameters")
        values = []
        for d in f.divisors:
            row = divisor_values.get(d)
            if row is None:
                for x, mult in d.support():
                    point = point_values.get(x)
                    if point is None:
                        point = point_values[x] = list(map(roots.__getitem__, theta.pairing(x)))
                    if mult != 1:
                        point = [cy.scale(mult, value) for value in point]
                    row = point if row is None else list(map(cy.add, row, point))
                if row is None:  # the zero divisor
                    row = [cy.zero] * theta.size
                divisor_values[d] = row
            values.append(row)
        columns = list(zip(*values))
        result = list(map(unique.get, columns))
        if None in result:
            a = result.index(None)
            matches = len(classes_of.get(columns[a], ()))
            raise NoMatchingClass(f"{matches} classes match at {pts[a]}")
        for row, power in equivariance:
            if list(map(result.__getitem__, row)) != list(map(power.__getitem__, result)):
                raise NoMatchingClass("xi image is not Z-equivariant")
        out.append(tuple(result))
    return out


# the name perfbench's tracer wraps as the omega.xi_class_map span
xi_class_map = xi_class_maps
