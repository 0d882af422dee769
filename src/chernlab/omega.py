"""Finite models of generalized character data.

Omega(G): conjugacy classes of n-tuples of commuting p-power-order elements
(images of the standard topological generators).  Omega'(G) quotients by
pointwise conjugacy; Omega''(G) is the set of Z-equivariant maps from the
dual lattice to p-power conjugacy classes; OmegaCh(G) is enumerated by
constraint search over lattice divisors.
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
from .groups import GroupModel
from .lattice import LatticeDivisor, Theta, fourier, fourier_inverse
from .repring import CharacterTable, RepRing

OMEGA_TUPLE_ENTRIES = 1 << 24  # tuple entries written by one commuting-tuple search
OMEGA_CH_NODES = 10000  # search nodes of one OmegaCh enumeration
OMEGA_DPRIME_VISITS = 1 << 20  # search nodes x |Theta| of one Omega'' enumeration


def p_part_exponent(order_like: int, p: int) -> int:
    v = 0
    while order_like % p == 0:
        order_like //= p
        v += 1
    return v


def group_p_valuation(model: GroupModel, p: int) -> int:
    return p_part_exponent(model.exponent(), p)


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


def _conj_tables(model: GroupModel) -> list[list[int]]:
    return [
        [model.conj(g, x) for x in range(model.size)] for g in range(model.size)
    ]


class OmegaSet:
    """Conjugacy-orbit representatives of commuting tuples."""

    def __init__(self, model: GroupModel, p: int, n: int, reps: list[tuple[int, ...]]):
        self.model = model
        self.p = p
        self.n = n
        self.reps = reps

    def __len__(self):
        return len(self.reps)


def enumerate_omega(model: GroupModel, p: int, n: int) -> OmegaSet:
    """Omega(G): canonical (lexicographically least) orbit representatives."""
    tuples = commuting_tuples(model, p, n)
    ctabs = _conj_tables(model)
    seen: set[tuple[int, ...]] = set()
    reps: list[tuple[int, ...]] = []
    for t in tuples:
        if t in seen:
            continue
        orbit = {tuple(ct[x] for x in t) for ct in ctabs}
        seen.update(orbit)
        reps.append(min(orbit))
    reps.sort()
    return OmegaSet(model, p, n, reps)


def hom_image(model: GroupModel, hom: tuple[int, ...], a: tuple[int, ...]) -> int:
    """u(a) = prod_i u_i^{a_i} (images commute)."""
    g = model.identity
    for ui, ai in zip(hom, a):
        g = model.table[g][model.power(ui, ai)]
    return g


def pointwise_signature(
    model: GroupModel, hom: tuple[int, ...], theta_star: list[tuple[int, ...]]
) -> tuple[int, ...]:
    return tuple(model.class_of(hom_image(model, hom, a)) for a in theta_star)


def enumerate_omega_prime(model: GroupModel, p: int, n: int, w: int | None = None):
    """Omega'(G) as distinct pointwise-class signatures, plus the projection
    from Omega(G) as an index map."""
    if w is None:
        w = group_p_valuation(model, p)
    om = enumerate_omega(model, p, n)
    pts = Theta(p, w, n).points()
    sig_index: dict[tuple[int, ...], int] = {}
    projection = []
    sigs = []
    for rep in om.reps:
        sig = pointwise_signature(model, rep, pts)
        if sig not in sig_index:
            sig_index[sig] = len(sigs)
            sigs.append(sig)
        projection.append(sig_index[sig])
    return om, sigs, projection


def enumerate_omega_dprime(model: GroupModel, p: int, n: int, w: int | None = None):
    """Omega''(G): Z-equivariant maps Theta(w)* -> p-power classes.

    Returned as tuples of class indices over the sorted point list; DFS with
    propagation f(k a) = f(a)^k.
    """
    if w is None:
        w = group_p_valuation(model, p)
    theta = Theta(p, w, n)
    pts = theta.points()
    pt_index = {a: i for i, a in enumerate(pts)}
    classes = model.p_power_class_indices(p)
    class_orders = {c: model.element_order(model.conjugacy_classes()[c][0]) for c in classes}
    modulus = p ** w

    def point_order(a):
        o = 1
        while any(theta.scale(o, a)):
            o *= p
        return o

    orders = [point_order(a) for a in pts]
    # process points in decreasing order so multiples propagate
    seq = sorted(range(len(pts)), key=lambda i: -orders[i])
    results: list[tuple[int, ...]] = []

    def assign(state: dict[int, int], i: int, cls: int) -> dict[int, int] | None:
        new = dict(state)
        a = pts[i]
        for k in range(modulus):
            j = pt_index[theta.scale(k, a)]
            target = model.class_power(cls, k)
            if j in new and new[j] != target:
                return None
            new[j] = target
        return new

    stack: list[tuple[dict[int, int], int]] = [({}, 0)]
    visits = 0
    while stack:
        state, pos = stack.pop()
        visits += len(pts)
        if visits > OMEGA_DPRIME_VISITS:
            raise ResourceLimit(f"Omega'' search exceeds {OMEGA_DPRIME_VISITS} point visits")
        while pos < len(seq) and seq[pos] in state:
            pos += 1
        if pos == len(seq):
            results.append(tuple(state[i] for i in range(len(pts))))
            continue
        i = seq[pos]
        for cls in classes:
            if orders[i] % class_orders[cls]:
                continue
            new = assign(state, i, cls)
            if new is not None:
                stack.append((new, pos + 1))
    results.sort()
    return pts, results


def count_omega_dprime(model: GroupModel, p: int, n: int, w: int | None = None) -> int:
    """|Omega''(G)| without enumeration when the group has exponent p."""
    if w is None:
        w = group_p_valuation(model, p)
    if w == 1:
        nlines = (p ** n - 1) // (p - 1)
        nclasses = len(model.p_power_class_indices(p))
        return nclasses ** nlines
    return len(enumerate_omega_dprime(model, p, n, w)[1])


# -- OmegaCh: Lambda-semiring homomorphisms into the lattice model --------------

class OmegaChElem:
    """One divisor of dimension d_i per irreducible; hashable and canonical."""

    __slots__ = ("divisors",)

    def __init__(self, divisors):
        self.divisors = tuple(divisors)

    def __eq__(self, other):
        return isinstance(other, OmegaChElem) and self.divisors == other.divisors

    def __hash__(self):
        return hash(self.divisors)

    def __lt__(self, other):
        return [d.pairs for d in self.divisors] < [d.pairs for d in other.divisors]

    def text(self) -> str:
        return "; ".join(d.text() for d in self.divisors)

    def __repr__(self):
        return f"<OmegaCh {self.text()}>"


def kappa(
    table: CharacterTable,
    model: GroupModel,
    hom: tuple[int, ...],
    p: int,
    n: int,
    v: int | None = None,
) -> OmegaChElem:
    """Decompose each restricted character by exact finite Fourier inversion.

    mult(x) = p^{-vn} sum_a chi(u(a)) zeta^{-<a,x>}; every multiplicity must
    be a nonnegative integer.
    """
    if v is None:
        v = p_part_exponent(table.exponent, p)
    modulus = p ** v
    for ui in hom:
        o = model.element_order(ui)
        if modulus % o:
            raise ValidationError(f"p^{v} does not annihilate an image of order {o}")
    if table.exponent % modulus:
        raise ValidationError("group exponent not divisible by p^v")
    theta = Theta(p, v, n)
    classes = [model.class_of(hom_image(model, hom, a)) for a in theta.points()]
    rows = [[row[c] for c in classes] for row in table.rows]
    try:
        return OmegaChElem(fourier_inverse(theta, table.cyclo, rows))
    except (InexactDivision, ValidationError) as exc:
        raise NonIntegralMultiplicity(str(exc)) from exc


def enumerate_omega_ch(
    ring: RepRing,
    p: int,
    n: int,
    v: int | None = None,
) -> list[OmegaChElem]:
    """All Lambda-semiring homomorphisms into N[Theta(v)], by depth-first
    assignment in increasing dimension order with constraint propagation.

    A relation with a single unassigned divisor forces its value (multiset
    subtraction and exact division); every relation is re-checked once all
    its participants are assigned.
    """
    table = ring.table
    if v is None:
        v = p_part_exponent(table.exponent, p)
    theta = Theta(p, v, n)
    points = theta.points()
    h = ring.h
    dims = ring.dims
    order = sorted(range(1, h), key=lambda i: (dims[i], i))

    product_relations = []
    for i in range(1, h):
        for j in range(i, h):
            product_relations.append((i, j, ring.mijk[i][j]))
    lambda_relations = []
    for i in range(1, h):
        for r in range(2, dims[i] + 1):
            lambda_relations.append((i, r, ring.lam_irreducible(i, r).coeffs))

    zero_div = LatticeDivisor(theta, [theta.zero()])

    def divisor_of_vec(assign, coeffs):
        """sum of c_k * D_k for an assigned nonnegative vector, or None."""
        counts: dict = {}
        for k, c in enumerate(coeffs):
            if not c:
                continue
            if k not in assign:
                return None
            for pt, m in assign[k].pairs:
                counts[pt] = counts.get(pt, 0) + c * m
        return LatticeDivisor.from_counts(theta, counts)

    def check_or_solve(assign, lhs_div, coeffs):
        """Compare lhs with sum c_k D_k; if exactly one D_k missing, solve it.

        Returns (ok, forced) where forced is None or (k, divisor)."""
        missing = [k for k, c in enumerate(coeffs) if c and k not in assign]
        if not missing:
            rhs = divisor_of_vec(assign, coeffs)
            return (rhs == lhs_div), None
        if len(missing) > 1:
            return True, None
        k = missing[0]
        m = coeffs[k]
        counts = lhs_div.counts()
        for k2, c in enumerate(coeffs):
            if not c or k2 == k:
                continue
            for pt, mm in assign[k2].pairs:
                counts[pt] = counts.get(pt, 0) - c * mm
                if counts[pt] < 0:
                    return False, None
        solved: dict = {}
        for pt, c in counts.items():
            if c % m:
                return False, None
            if c // m:
                solved[pt] = c // m
        div = LatticeDivisor.from_counts(theta, solved)
        if div.dim() != dims[k]:
            return False, None
        return True, (k, div)

    def propagate(assign):
        changed = True
        while changed:
            changed = False
            for i, j, coeffs in product_relations:
                if i in assign and j in assign:
                    lhs = assign[i] * assign[j]
                    ok, forced = check_or_solve(assign, lhs, coeffs)
                    if not ok:
                        return None
                    if forced and forced[0] not in assign:
                        assign[forced[0]] = forced[1]
                        changed = True
            for i, r, coeffs in lambda_relations:
                if i in assign:
                    lhs = assign[i].lam(r)
                    ok, forced = check_or_solve(assign, lhs, coeffs)
                    if not ok:
                        return None
                    if forced and forced[0] not in assign:
                        assign[forced[0]] = forced[1]
                        changed = True
        return assign

    results: list[OmegaChElem] = []

    def full_check(assign) -> bool:
        for i, j, coeffs in product_relations:
            if (assign[i] * assign[j]) != divisor_of_vec(assign, coeffs):
                return False
        for i, r, coeffs in lambda_relations:
            if assign[i].lam(r) != divisor_of_vec(assign, coeffs):
                return False
        return True

    nodes = 0

    def dfs(assign):
        nonlocal nodes
        nodes += 1
        if nodes > OMEGA_CH_NODES:
            raise ResourceLimit(f"OmegaCh search exceeds {OMEGA_CH_NODES} nodes")
        assign = propagate(dict(assign))
        if assign is None:
            return
        todo = [i for i in order if i not in assign]
        if not todo:
            if full_check(assign):
                results.append(OmegaChElem([assign[i] for i in range(h)]))
            return
        k = todo[0]
        for combo in combinations_with_replacement(points, dims[k]):
            child = dict(assign)
            child[k] = LatticeDivisor(theta, combo)
            dfs(child)

    dfs({0: zero_div})
    uniq = sorted(set(results))
    return uniq


def xi_class_map(
    f: OmegaChElem, table: CharacterTable, model: GroupModel, p: int, n: int
) -> tuple[int, ...]:
    """The class-valued map a -> [h] with chi_V(h) = sum_x mult(x) zeta^{<a,x>}.

    Uniqueness of h and Z-equivariance of the result are asserted.
    """
    theta = f.divisors[0].theta
    pts = theta.points()
    values = fourier(theta, table.cyclo, f.divisors)
    pclasses = model.p_power_class_indices(p)
    out = []
    for j, a in enumerate(pts):
        matches = [
            c for c in pclasses
            if all(row[c] == value[j] for row, value in zip(table.rows, values))
        ]
        if len(matches) != 1:
            raise NoMatchingClass(f"{len(matches)} classes match at {a}")
        out.append(matches[0])
    result = tuple(out)
    pt_index = {a: i for i, a in enumerate(pts)}
    for i, a in enumerate(pts):
        for k in range(theta.modulus):
            j = pt_index[theta.scale(k, a)]
            if result[j] != model.class_power(result[i], k):
                raise NoMatchingClass("xi image is not Z-equivariant")
    return result
