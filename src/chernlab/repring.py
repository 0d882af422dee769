"""Representation rings of finite groups from exact character tables.

Tables store cyclotomic-valued rows over Q(zeta_e) with e the group exponent,
class data (size, element order, power maps) and, for a builtin table, the
GroupModel it was read off, whose canonical class order the rows follow.  All structure
constants are computed by exact cyclotomic inner products, except that a row
of roots of unity (a linear character) is also kept as its exponent vector
mod e, packed into one int (PackedExponents): products of such rows are sums
of exponents, their inner products depend only on differences of exponents,
so each is computed once, and their conjugates negate the exponents.  The
power maps are checked to compose, pm[k] o pm[l] = pm[kl], for k = 1 and k
prime, which gives every k.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, gcd, lcm

from .cyclotomic import Cyclo
from .errors import (
    InconsistentFusion,
    InexactDivision,
    NegativeStructureConstant,
    NotACharacterTable,
    ResourceLimit,
    UnknownGroup,
    ValidationError,
)
from .field import is_prime
from .groups import (
    GroupModel,
    builtin_model,
    model_cyclic,
    model_cyclic_product,
    model_dihedral8,
    model_extraspecial,
    model_symmetric,
    model_trivial,
    parse_group_name,
)
from .lattice import newton_psi_to_lambda

# classes^2 * phi(e) of a builtin table: its rows' power-basis coordinates
# (on a 2-vCPU host c80's 204800 build in 0.5 s at 40 MB, c100's 400000 at 60 MB)
TABLE_WORK_CEILING = 1 << 18


def _class_inner(cy, class_sizes, order, values, conj_row) -> int:
    """(1/|G|) sum_c |c| a(c) conj(b)(c) for class functions a = values and
    conj(b) = conj_row, both lifted by cy.lift into Z[C_e].

    Raises InexactDivision unless the sum is |G| times a rational integer.
    """
    return cy.rational_value(
        cy.divide_exact(cy.product_sum(class_sizes, values, conj_row), order)
    )


class PackedExponents:
    """Vectors of h exponents mod e, each packed into one int with a field
    of width = e.bit_length() + 1 bits per entry, entry c in field c.

    A field holds any value below 2e, so the sum of two packed vectors, or
    a + all_e - b (all_e holds e in every field), has no carry between
    fields, and mod_e reduces every field at once: adding bias, which holds
    2^(width-1) - e in every field, sets a field's top (guard) bit exactly
    when the field is at least e.
    """

    def __init__(self, e: int, h: int):
        self.e = e
        self.width = e.bit_length() + 1
        ones = sum(1 << (self.width * c) for c in range(h))
        self.all_e = e * ones
        self.bias = ((1 << (self.width - 1)) - e) * ones
        self.guard = (1 << (self.width - 1)) * ones

    def pack(self, vec) -> int:
        x = 0
        for k in reversed(vec):
            x = (x << self.width) | k
        return x

    def mod_e(self, x: int) -> int:
        """x with each field, below 2e, reduced mod e."""
        return x - self.e * (((x + self.bias) & self.guard) >> (self.width - 1))


class CharacterTable:
    def __init__(
        self,
        name: str,
        order: int,
        exponent: int,
        class_sizes: list[int],
        class_orders: list[int],
        power_maps: dict[int, list[int]],
        rows: list[list[tuple]],
        char_names: list[str] | None = None,
    ):
        self.name = name
        self.order = order
        self.exponent = exponent
        self.class_sizes = list(class_sizes)
        self.class_orders = list(class_orders)
        self.nclasses = len(class_sizes)
        self.cyclo = Cyclo(exponent)
        self.rows = [list(r) for r in rows]
        # the group a builtin table was read off; _table_from_model sets it
        self.model: GroupModel | None = None
        self.char_names = char_names or [f"V{i+1}" for i in range(len(rows))]
        if 1 not in self.class_orders:
            raise NotACharacterTable("no class of element order 1")
        self.identity_class = self.class_orders.index(1)
        self.power_maps = {k % exponent: list(v) for k, v in power_maps.items()}
        self.power_maps[0] = [self.identity_class] * self.nclasses
        self.power_maps.setdefault(1, list(range(self.nclasses)))
        self.dims = []
        for i, row in enumerate(self.rows):
            if len(row) != self.nclasses:
                raise NotACharacterTable(
                    f"row {i} has {len(row)} entries for {self.nclasses} classes")
            if not self.cyclo.is_rational(row[self.identity_class]):
                raise NotACharacterTable(f"row {i} is not rational on the identity class")
            self.dims.append(row[self.identity_class][0])
        # the rows lifted into Z[C_e]; a row of roots of unity (a linear
        # character) is also kept as its exponents mod e, packed into one int
        cy, e = self.cyclo, exponent
        lifted = [[cy.lift(v) for v in row] for row in self.rows]
        self._exps = [
            tuple(t[0][0] for t in row)
            if all(len(t) == 1 and t[0][1] == 1 for t in row) else None
            for row in lifted
        ]
        self._packing = PackedExponents(e, self.nclasses)
        self._packed = [None if x is None else self._packing.pack(x) for x in self._exps]
        # the conjugate rows lifted: zeta^k conjugates to zeta^(-k)
        conj = [
            [cy.lift(cy.conjugate(v)) for v in row] if x is None
            else [((-k % e, 1),) for k in x]
            for row, x in zip(self.rows, self._exps)
        ]
        self._lifted = (lifted, conj)
        self._row_index = {tuple(row): i for i, row in enumerate(self.rows)}
        self.validate()

    def power_map(self, k: int) -> list[int]:
        k %= self.exponent
        if k not in self.power_maps:
            raise NotACharacterTable(f"missing power map for k={k}")
        return self.power_maps[k]

    # -- exact inner products -------------------------------------------------
    def _inner_conj(self, values, conj_row) -> int:
        try:
            return _class_inner(self.cyclo, self.class_sizes, self.order, values, conj_row)
        except InexactDivision as exc:
            raise NotACharacterTable(f"non-integral inner product: {exc}") from exc

    def decompose(self, values: list[tuple]) -> list[int]:
        # exact-row fast path (products of abelian characters, Adams images)
        hit = self._row_index.get(tuple(values))
        if hit is not None:
            return [1 if i == hit else 0 for i in range(len(self.rows))]
        lift = self.cyclo.lift
        values = [lift(v) for v in values]
        return [self._inner_conj(values, cr) for cr in self._lifted[1]]

    def validate(self) -> None:
        """Check the class data, row orthogonality and the power maps.

        Columns are not checked: a square table X whose rows are orthonormal,
        X D X^H = I with D = diag(|c|/|G|), is invertible with X^H X = D^-1
        (Isaacs, Character Theory of Finite Groups, 2.18).  So its columns
        are orthogonal, and each |c| divides |G|, since
        sum_i |chi_i(c)|^2 = |G|/|c| is a rational algebraic integer.
        """
        if sum(self.class_sizes) != self.order:
            raise NotACharacterTable("class sizes do not sum to the group order")
        if len(self.rows) != self.nclasses:
            raise NotACharacterTable("need as many irreducibles as classes")
        if sum(d * d for d in self.dims) != self.order:
            raise NotACharacterTable("sum of squared dimensions != group order")
        if self.dims[0] != 1 or any(
            not self.cyclo.is_rational(v) or self.cyclo.rational_value(v) != 1
            for v in self.rows[0]
        ):
            raise NotACharacterTable("first irreducible must be the trivial character")
        rows, conj = self._lifted
        packed, memo = self._packed, {}
        mod_e, all_e = self._packing.mod_e, self._packing.all_e
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                if packed[i] is None or packed[j] is None:
                    value = self._inner_conj(rows[i], conj[j])
                else:
                    # two linear rows: the sum is over zeta^(a_c - b_c), so it
                    # is computed once per difference of exponent vectors mod e
                    key = mod_e(packed[i] + all_e - packed[j])
                    if key not in memo:
                        memo[key] = self._inner_conj(rows[i], conj[j])
                    value = memo[key]
                if value != (1 if i == j else 0):
                    raise NotACharacterTable(
                        f"row orthogonality fails at ({i},{j})"
                    )
        # power-map consistency
        pms, e = self.power_maps, self.exponent
        for k in range(e):
            self.power_map(k)  # raises for a missing k
        for k, pm in pms.items():
            if len(pm) != self.nclasses:
                raise NotACharacterTable(f"power map {k} has wrong length")
            for c in range(self.nclasses):
                if self.class_orders[c] and k % self.class_orders[c] == 0:
                    if pm[c] != self.identity_class:
                        raise NotACharacterTable(
                            f"power map {k} wrong on class {c} of order {self.class_orders[c]}"
                        )
        # pm[k] o pm[l] = pm[kl] for k = 1 and k prime gives it for every k:
        # a composite k = p*m has pm[k] = pm[p] o pm[m], a checked instance,
        # so pm[k] o pm[l] = pm[p] o pm[ml] = pm[kl] by induction on k.  (k = 0
        # holds as pm[0] is constant; l runs over every key, which for e = 1
        # is 0 and 1.)
        for k in [1] + [k for k in range(2, e) if is_prime(k)]:
            for l in pms:
                if [pms[k][c] for c in pms[l]] != pms[(k * l) % e]:
                    raise NotACharacterTable(f"power maps {k}*{l} inconsistent")

    def psi_row(self, i: int, k: int) -> list[tuple]:
        pm = self.power_map(k)
        return [self.rows[i][pm[c]] for c in range(self.nclasses)]

    def __repr__(self):
        return f"CharacterTable({self.name}, {self.nclasses} classes)"


class VirtualRep:
    """Integer vector over the irreducibles of a RepRing."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "RepRing", coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)

    def dim(self) -> int:
        return sum(c * d for c, d in zip(self.coeffs, self.ring.dims))

    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, VirtualRep)
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __add__(self, other):
        self.ring._check(other)
        return VirtualRep(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self.ring._check(other)
        return VirtualRep(self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return VirtualRep(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return VirtualRep(self.ring, [other * a for a in self.coeffs])
        self.ring._check(other)
        return self.ring.product(self, other)

    __rmul__ = __mul__

    def divide_exact(self, k: int) -> "VirtualRep":
        out = []
        for c in self.coeffs:
            q, r = divmod(c, k)
            if r:
                raise InexactDivision(f"coefficient {c} not divisible by {k}")
            out.append(q)
        return VirtualRep(self.ring, out)

    def text(self) -> str:
        names = self.ring.table.char_names
        parts = []
        for c, name in zip(self.coeffs, names):
            if not c:
                continue
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def __repr__(self):
        return f"<rep {self.text()}>"


class RepRing:
    """Structure constants, Adams and lambda operations of R(G)."""

    def __init__(self, table: CharacterTable):
        self.table = table
        self.h = len(table.rows)
        self.dims = list(table.dims)
        cy, packed, mod_e = table.cyclo, table._packed, table._packing.mod_e
        index = {x: k for k, x in enumerate(packed) if x is not None}
        units: dict[int, list[int]] = {}  # shared, read-only unit vectors
        products: dict = {}  # cy.mul of each value pair met in this call
        self.mijk = [[None] * self.h for _ in range(self.h)]
        for i in range(self.h):
            for j in range(i, self.h):
                # a product of linear characters is the row of its summed
                # exponents: a unit vector, so no multiplicity is negative
                hit = None
                if packed[i] is not None and packed[j] is not None:
                    hit = index.get(mod_e(packed[i] + packed[j]))
                if hit is not None:
                    coeffs = units.get(hit)
                    if coeffs is None:
                        coeffs = units[hit] = [0] * self.h
                        coeffs[hit] = 1
                    if self.dims[hit] != self.dims[i] * self.dims[j]:
                        raise NotACharacterTable("product dimensions inconsistent")
                else:
                    prod = []
                    for pair in zip(table.rows[i], table.rows[j]):
                        value = products.get(pair)
                        if value is None:
                            value = products[pair] = cy.mul(*pair)
                        prod.append(value)
                    coeffs = table.decompose(prod)
                    if any(c < 0 for c in coeffs):
                        raise NegativeStructureConstant(
                            f"V{i+1} x V{j+1} decomposes with a negative multiplicity"
                        )
                    if (sum(c * d for c, d in zip(coeffs, self.dims))
                            != self.dims[i] * self.dims[j]):
                        raise NotACharacterTable("product dimensions inconsistent")
                self.mijk[i][j] = coeffs
                self.mijk[j][i] = coeffs
        self._psi_rows: dict[tuple[int, int], list[int]] = {}
        self.lam_tables = [self._lambda_table(i) for i in range(self.h)]

    def _check(self, other):
        if not isinstance(other, VirtualRep) or other.ring is not self:
            raise ValidationError("virtual representation from a different ring")

    # -- basic elements --------------------------------------------------------
    def zero(self) -> VirtualRep:
        return VirtualRep(self, [0] * self.h)

    def one(self) -> VirtualRep:
        return self.irreducible(0)

    def irreducible(self, i: int) -> VirtualRep:
        return VirtualRep(self, [1 if j == i else 0 for j in range(self.h)])

    def from_coeffs(self, coeffs) -> VirtualRep:
        return VirtualRep(self, coeffs)

    def product(self, a: VirtualRep, b: VirtualRep) -> VirtualRep:
        out = [0] * self.h
        for i, ca in enumerate(a.coeffs):
            if not ca:
                continue
            for j, cb in enumerate(b.coeffs):
                if not cb:
                    continue
                for k, m in enumerate(self.mijk[i][j]):
                    out[k] += ca * cb * m
        return VirtualRep(self, out)

    # -- Adams operations -------------------------------------------------------
    def adams(self, v: VirtualRep, k: int) -> VirtualRep:
        """psi^k v; the psi^k row of each irreducible v holds is decomposed
        once per (i, k mod e)."""
        self._check(v)
        k %= self.table.exponent
        out = [0] * self.h
        for i, c in enumerate(v.coeffs):
            if c:
                row = self._psi_rows.get((i, k))
                if row is None:
                    row = self._psi_rows[i, k] = self.table.decompose(self.table.psi_row(i, k))
                for j, m in enumerate(row):
                    out[j] += c * m
        return VirtualRep(self, out)

    # -- lambda operations -------------------------------------------------------
    def _lambda_table(self, i: int) -> list[VirtualRep]:
        d = self.dims[i]
        v = self.irreducible(i)
        psis = [self.adams(v, k) for k in range(1, d + 2)]
        try:
            lams = newton_psi_to_lambda(psis, d + 1, divide=lambda x, k: x.divide_exact(k))
        except InexactDivision as exc:
            raise NotACharacterTable(f"lambda of irreducible {i} is not integral: {exc}") from exc
        for r, lam in enumerate(lams, start=1):
            if r <= d:
                if not lam.is_positive():
                    raise NegativeStructureConstant(
                        f"lambda^{r} of irreducible {i} has a negative coefficient"
                    )
                if lam.dim() != comb(d, r):
                    raise NotACharacterTable(
                        f"lambda^{r} of irreducible {i} has wrong dimension"
                    )
            elif lam.coeffs != (0,) * self.h:
                raise NotACharacterTable(f"lambda^{r} of a {d}-dim irreducible is nonzero")
        return [self.one()] + [lams[r - 1] for r in range(1, d + 1)]

    def lam_irreducible(self, i: int, r: int) -> VirtualRep:
        if r > self.dims[i]:
            return self.zero()
        return self.lam_tables[i][r]

    def relations(self) -> list[tuple[int, int, int, tuple[int, ...]]]:
        """The Lambda-semiring relations among the nontrivial irreducibles,
        as (i, j, r, c) with right-hand side sum_k c[k] V_k: first
        (i, j, 0, c) for V_i (x) V_j with 1 <= i <= j < h, then (i, i, r, c)
        for lambda^r V_i with 2 <= r <= dim V_i."""
        h = self.h
        rels = [(i, j, 0, tuple(self.mijk[i][j])) for i in range(1, h) for j in range(i, h)]
        rels += [(i, i, r, self.lam_tables[i][r].coeffs)
                 for i in range(1, h) for r in range(2, self.dims[i] + 1)]
        return rels

    def lambda_series(self, v: VirtualRep) -> list[VirtualRep]:
        """lambda^0..lambda^dim of a positive representation, via the
        addition law lambda_t(V+W) = lambda_t(V) lambda_t(W)."""
        self._check(v)
        if not v.is_positive():
            raise ValidationError("lambda series of a non-positive element")
        series = [self.one()]
        for i, c in enumerate(v.coeffs):
            for _ in range(c):
                factor = self.lam_tables[i]
                new_len = len(series) + self.dims[i]
                new = [self.zero() for _ in range(new_len)]
                for a, sa in enumerate(series):
                    for b, fb in enumerate(factor):
                        new[a + b] = new[a + b] + sa * fb
                series = new
        return series

    def character_values(self, v: VirtualRep) -> list[tuple]:
        cy = self.table.cyclo
        out = []
        for c in range(self.table.nclasses):
            val = cy.zero
            for i, coef in enumerate(v.coeffs):
                if coef:
                    val = cy.add(val, cy.scale(coef, self.table.rows[i][c]))
            out.append(val)
        return out

    def __repr__(self):
        return f"RepRing({self.table.name})"


# -- restriction kernels -------------------------------------------------------

class RestrictionResult:
    def __init__(self, ring_g: RepRing, kernel: list[VirtualRep], matrix: list[list[int]]):
        self.ring_g = ring_g
        self.kernel_basis = kernel
        self.matrix = matrix
        self.rank = ring_g.h - len(kernel)


def _integer_echelon(matrix: list[list[int]]) -> tuple[list[list[int]], int]:
    """Unimodular row reduction of [M | I] and the rank of M: the first rank
    rows are in echelon form in their M part, the others have M part 0."""
    n = len(matrix)
    m = len(matrix[0]) if matrix else 0
    aug = [list(matrix[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    row = 0
    for col in range(m):
        while True:
            nz = [r for r in range(row, n) if aug[r][col]]
            if not nz:
                break
            piv = min(nz, key=lambda r: abs(aug[r][col]))
            aug[row], aug[piv] = aug[piv], aug[row]
            done = True
            for r in range(row + 1, n):
                if aug[r][col]:
                    q = aug[r][col] // aug[row][col]
                    if q:
                        aug[r] = [a - q * b for a, b in zip(aug[r], aug[row])]
                    if aug[r][col]:
                        done = False
            if done:
                row += 1
                break
    return aug, row


def _integer_kernel(matrix: list[list[int]]) -> list[list[int]]:
    """Basis of {x in Z^n : x.M = 0}: the transforms of the zero rows."""
    aug, rank = _integer_echelon(matrix)
    m = len(matrix[0]) if matrix else 0
    return [r[m:] for r in aug[rank:]]


def restriction_kernel(
    ring_g: RepRing, ring_h: RepRing, fusion: list[int]
) -> RestrictionResult:
    """Kernel of restriction R(G) -> R(H) along a class-fusion map.

    ``fusion[hc]`` is the G-class containing the H-class hc.  Consistency with
    element orders and power maps is checked; the restricted characters are
    decomposed exactly in R(H).
    """
    tg, th = ring_g.table, ring_h.table
    if len(fusion) != th.nclasses:
        raise InconsistentFusion("fusion map has wrong length")
    for hc, gc in enumerate(fusion):
        if th.class_orders[hc] != tg.class_orders[gc]:
            raise InconsistentFusion(f"class {hc}: element order changes under fusion")
    for k in range(th.exponent):
        for hc in range(th.nclasses):
            if fusion[th.power_map(k)[hc]] != tg.power_map(k)[fusion[hc]]:
                raise InconsistentFusion(f"fusion does not commute with power map {k}")
    # decompose inside one cyclotomic ring large enough for both tables
    cy = Cyclo(lcm(tg.exponent, th.exponent))
    hconj = [[cy.lift(cy.embed_from(th.cyclo, th.cyclo.conjugate(v))) for v in row]
             for row in th.rows]
    matrix = []
    for i, row in enumerate(tg.rows):
        restricted = [cy.lift(cy.embed_from(tg.cyclo, row[gc])) for gc in fusion]
        try:
            coeffs = [_class_inner(cy, th.class_sizes, th.order, restricted, cr)
                      for cr in hconj]
        except InexactDivision as exc:
            raise InconsistentFusion(f"restriction is not a character: {exc}") from exc
        if sum(c * d for c, d in zip(coeffs, ring_h.dims)) != ring_g.dims[i]:
            raise InconsistentFusion(f"restriction of irreducible {i} loses dimension")
        matrix.append(coeffs)
    kernel_rows = _integer_kernel(matrix)
    kernel = [VirtualRep(ring_g, row) for row in kernel_rows]
    return RestrictionResult(ring_g, kernel, matrix)


# -- builtin tables -------------------------------------------------------------

def _table_from_model(
    name: str,
    model: GroupModel,
    rows,
    char_names=None,
) -> CharacterTable:
    classes = model.classes
    e = model.exponent
    cy = Cyclo(e)
    sizes = [len(c) for c in classes]
    orders = [model.orders[c[0]] for c in classes]
    pms = {k: [model.class_power(ci, k) for ci in range(len(classes))] for k in range(e)}
    crows = []
    for r in rows:
        crows.append([v if isinstance(v, tuple) else cy.from_int(v) for v in r])
    table = CharacterTable(name, model.size, e, sizes, orders, pms, crows, char_names)
    table.model = model
    return table


@lru_cache(maxsize=None)
def table_trivial() -> CharacterTable:
    return _table_from_model("trivial", model_trivial(), [[1]], ["1"])


@lru_cache(maxsize=None)
def table_cyclic(m: int) -> CharacterTable:
    model = model_cyclic(m)
    classes = model.classes
    cy = Cyclo(m)
    rows = []
    for j in range(m):
        rows.append([cy.root_power(j * model.elements[c[0]]) for c in classes])
    names = ["1"] + [f"chi{j}" for j in range(1, m)]
    return _table_from_model(f"c{m}", model, rows, names)


@lru_cache(maxsize=None)
def table_cyclic_product(m: int, k: int) -> CharacterTable:
    model = model_cyclic_product(m, k)
    e = lcm(m, k)
    cy = Cyclo(e)
    classes = model.classes
    rows = []
    names = []
    for j1 in range(m):
        for j2 in range(k):
            row = []
            for c in classes:
                a, b = model.elements[c[0]]
                row.append(cy.root_power((j1 * a * (e // m) + j2 * b * (e // k)) % e))
            rows.append(row)
            names.append("1" if (j1, j2) == (0, 0) else f"chi{j1}_{j2}")
    return _table_from_model(f"c{m}xc{k}", model, rows, names)


@lru_cache(maxsize=None)
def table_sigma3() -> CharacterTable:
    rows = [
        [1, 1, 1],
        [1, -1, 1],
        [2, 0, -1],
    ]
    return _table_from_model("sigma3", model_symmetric(3), rows, ["1", "eps", "sigma"])


@lru_cache(maxsize=None)
def table_sigma4() -> CharacterTable:
    # canonical class order: 1^4, 2^2(size 3), 1^2 2(size 6), 1 3, 4
    rows = [
        [1, 1, 1, 1, 1],
        [1, 1, -1, 1, -1],
        [2, 2, 0, -1, 0],
        [3, -1, 1, 0, -1],
        [3, -1, -1, 0, 1],
    ]
    return _table_from_model(
        "sigma4", model_symmetric(4), rows, ["1", "eps", "sigma", "rho", "eps_rho"]
    )


@lru_cache(maxsize=None)
def table_dihedral8() -> CharacterTable:
    # canonical class order: e, r^2, transpositions, double transpositions, 4-cycles
    rows = [
        [1, 1, 1, 1, 1],
        [1, 1, -1, -1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, 1, -1],
        [2, -2, 0, 0, 0],
    ]
    return _table_from_model(
        "d8", model_dihedral8(), rows, ["1", "ls", "lr", "lrs", "tau"]
    )


@lru_cache(maxsize=None)
def table_extraspecial(p: int, d: int) -> CharacterTable:
    model = model_extraspecial(p, d)
    classes = model.classes
    cy = Cyclo(p)
    rows = []
    names = []
    # linear characters, indexed by the dual of V = F_p^{2d}
    for w in product(range(p), repeat=2 * d):
        row = []
        for c in classes:
            rep = model.elements[c[0]]
            u = rep[1:]
            row.append(cy.root_power(sum(a * b for a, b in zip(w, u)) % p))
        rows.append(row)
        names.append("1" if all(x == 0 for x in w) else "l" + "".join(map(str, w)))
    # the p-1 characters of degree p^d supported on the centre
    for j in range(1, p):
        row = []
        for c in classes:
            rep = model.elements[c[0]]
            if any(rep[1:]):
                row.append(cy.zero)
            else:
                row.append(cy.scale(p ** d, cy.root_power((j * rep[0]) % p)))
        rows.append(row)
        names.append(f"phi{j}")
    return _table_from_model(f"extraspecial({p},{d})", model, rows, names)


def builtin_group(name: str) -> CharacterTable:
    """Builtin validated character tables by name.

    sigma6 intentionally ships as a permutation GroupModel only (see
    groups.builtin_model); request it here and you get a pointer.  A table
    whose work, read off the group model, is over TABLE_WORK_CEILING is
    refused before any row is built.
    """
    kind, args = parse_group_name(name) or ("", ())
    if kind == "sigma":
        if args == (6,):
            raise UnknownGroup(
                "sigma6 has no builtin character table; use groups.builtin_model('sigma6')"
            )
        kind, args = f"sigma{args[0]}", ()
    make = {
        "trivial": table_trivial,
        "c": table_cyclic,
        "cxc": table_cyclic_product,
        "sigma3": table_sigma3,
        "sigma4": table_sigma4,
        "d8": table_dihedral8,
        "extraspecial": table_extraspecial,
    }.get(kind)
    if make is None:
        raise UnknownGroup(f"no builtin character table for {name!r}")
    model = builtin_model(name)
    e = model.exponent
    work = len(model.classes) ** 2 * sum(gcd(k, e) == 1 for k in range(e))
    if work > TABLE_WORK_CEILING:
        raise ResourceLimit(f"character table of {name} has work classes^2 * phi(exponent) "
                            f"= {work}, over ceiling {TABLE_WORK_CEILING}")
    return make(*args)


def builtin_fusion(g_name: str, h_name: str) -> list[int]:
    """Class fusion for the builtin subgroup pairs, computed from the models."""
    g, h = parse_group_name(g_name), parse_group_name(h_name)
    if (g, h) == (("sigma", (4,)), ("d8", ())):
        return model_dihedral8().fusion_into(model_symmetric(4))
    if (g, h) == (("sigma", (3,)), ("c", (3,))):
        s3 = model_symmetric(3)
        c3 = model_cyclic(3)
        cyc = s3.index[(1, 2, 0)]
        out = []
        for cls in c3.classes:
            k = c3.elements[cls[0]]
            out.append(s3.class_of[s3.power(cyc, k)])
        return out
    if g and g[0] == "extraspecial" and h == ("c", g[1][:1]):
        p, d = g[1]
        model = model_extraspecial(p, d)
        cm = model_cyclic(p)
        out = []
        for cls in cm.classes:
            x = cm.elements[cls[0]]
            elem = (x,) + (0,) * (2 * d)
            out.append(model.class_of[model.index[elem]])
        return out
    raise UnknownGroup(f"no builtin fusion for {h_name} <= {g_name}")


# -- the cyclic-group lambda computation used by the extraspecial checks --------

def lambda_rho_brute(p: int, d: int, k: int) -> tuple[int, int]:
    """lambda^k(p^{d-1} rho_C) in Z[chi]/(chi^p - 1), C cyclic of order p.

    Returns (n, m) with value n + m*rho_C; computed by expanding
    prod_j (1 + chi^j t)^{p^{d-1}} in the group ring.
    """
    copies = p ** (d - 1)
    # series over Z[Z/p]: list of length-p vectors per t-degree
    series = [[0] * p for _ in range(p * copies + 1)]
    series[0][0] = 1
    for _ in range(copies):
        for j in range(p):
            # multiply by (1 + chi^j t)
            for deg in range(len(series) - 1, 0, -1):
                prev = series[deg - 1]
                cur = series[deg]
                for r in range(p):
                    if prev[r]:
                        cur[(r + j) % p] += prev[r]
    vec = series[k] if k < len(series) else [0] * p
    # express as n + m*rho: rho has all-ones vector
    m = vec[1]
    if any(v != m for v in vec[1:]):
        raise ValidationError("value is not in Z{1, rho}")
    return vec[0] - m, m


def lambda_rho_closed_form(p: int, d: int, k: int) -> tuple[int, int]:
    """The binomial closed form for lambda^k(p^{d-1} rho_C), as (n, m).

    Returns (n, m) with value n + m*rho_C.  At a generator of C,
    lambda_t(rho_C) = prod_j (1 + zeta^j t) = 1 - (-t)^p, so
    lambda_t(p^{d-1} rho_C) = (1 - (-t)^p)^{p^{d-1}} there.  Reading off
    t^k gives the trivial coefficient
        n = (-1)^{(p+1) k/p} * C(p^{d-1}, k/p)   if p | k,   n = 0 otherwise,
    and the degree C(p^d, k) = n + p*m gives m = (C(p^d, k) - n) / p.
    The formula holds for every prime p; the sign is +1 for odd p and
    (-1)^{k/2} for p = 2.
    """
    if k % p == 0:
        j = k // p
        n = (-1) ** ((p + 1) * j) * comb(p ** (d - 1), j)
        m, r = divmod(comb(p ** d, k) - n, p)
        if r:
            raise InexactDivision("closed form is not integral")
        return n, m
    m, r = divmod(comb(p ** d, k), p)
    if r:
        raise InexactDivision("closed form is not integral")
    return 0, m
