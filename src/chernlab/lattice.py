"""The lattice model of divisors: the Lambda-semiring N[Theta(v)].

Theta(v) = (Z/p^v)^n.  A divisor is a multiset of lattice points, stored as
its count vector: a tuple of multiplicities indexed by Theta.points(), which
is in lexicographic order.  Divisors are immutable hashable values with
multiset equality; each keeps its hash and its support once they are first
asked for.  The semiring operations are index arithmetic on the vectors,
through the translation and scaling rows that Theta builds on first use.
"""

from __future__ import annotations

from itertools import combinations, compress, product

from .errors import InexactDivision, LambdaOutOfRange, ResourceLimit, ValidationError
from .groups import power_exceeds

THETA_POINTS_CEILING = 1 << 20
ENTRIES_KEPT = 1 << 20  # point entries one Theta keeps per kind of table


class Theta:
    """The parameter triple (p, v, n) for the lattice (Z/p^v)^n.

    A point's index is its base-p^v numeral, so points() is in lexicographic
    order.  A lattice of more than THETA_POINTS_CEILING points, or whose
    modulus p^v may have more bits than that, is refused here.  The point
    list and every table of |Theta| entries derived from it (the translation
    and scaling rows of the index arithmetic, the pairing rows, whose roots
    are the transform of a point, and the checked count vectors of the
    inverse transform) are built on first use and kept on the Theta, one
    dict per kind of table; a kind that holds ENTRIES_KEPT point entries is
    emptied before it takes another table.
    """

    def __init__(self, p: int, v: int, n: int):
        self.p = p
        self.v = v
        self.n = n
        # at n = 0 there is one point, but the modulus p^v is still built:
        # the ceiling also bounds v * bit_length(p), at least its bit length
        if power_exceeds(p, v * n, THETA_POINTS_CEILING) or (
            v * p.bit_length() > THETA_POINTS_CEILING
        ):
            raise ResourceLimit(
                f"{self}: more than {THETA_POINTS_CEILING} points or modulus bits in p^v"
            )
        self.modulus = p ** v
        self.size = self.modulus ** n
        self._points = None
        self._indices: tuple[int, ...] = ()
        # the kinds of table: index rows by point and by multiplier, pairing
        # rows by point, and by (e, row) the checked count vector of a row of
        # values in Z[zeta_e]
        self._shifts: dict = {}
        self._scales: dict = {}
        self._pairings: dict = {}
        self._inverse: dict = {}

    def reduce(self, point) -> tuple[int, ...]:
        pt = tuple(x % self.modulus for x in point)
        if len(pt) != self.n:
            raise ValidationError(f"point {point} has wrong length for {self}")
        return pt

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.n

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % self.modulus for x, y in zip(a, b))

    def scale(self, k: int, a) -> tuple[int, ...]:
        return tuple((k * x) % self.modulus for x in a)

    def points(self) -> tuple[tuple[int, ...], ...]:
        """Every point, in lexicographic order; index 0 is the origin."""
        if self._points is None:
            self._points = tuple(product(range(self.modulus), repeat=self.n))
            self._indices = tuple(range(self.size))
        return self._points

    def index(self, point) -> int:
        """The position of a point (reduced first) in points()."""
        idx = 0
        for x in self.reduce(point):
            idx = idx * self.modulus + x
        return idx

    def _keep(self, kind: dict, key, table):
        """kind[key] = table, returned; a kind that holds ENTRIES_KEPT point
        entries (|Theta| per table) is emptied first.  Callers look a table
        up in its kind themselves, so a kept table costs one dict lookup."""
        if len(kind) * self.size >= ENTRIES_KEPT:
            kind.clear()
        kind[key] = table
        return table

    def _index_row(self, columns) -> tuple[int, ...]:
        """The index of (f_0[y_0], ..., f_{n-1}[y_{n-1}]) for each point
        (y_0, ..., y_{n-1}), in point order, for the coordinate maps
        f_0, ..., f_{n-1} that ``columns`` lists."""
        m = self.modulus
        out = [0]
        for column in columns:
            out = [m * s + d for s in out for d in column]
        self.points()
        # one int object per index (made with the points), shared by all rows
        return tuple(map(self._indices.__getitem__, out))

    def shift(self, i: int) -> tuple[int, ...]:
        """Translation by point i: shift(i)[j] is the index of pts[i] + pts[j]."""
        row = self._shifts.get(i)
        if row is None:
            m = self.modulus
            row = self._keep(self._shifts, i, self._index_row(
                [(x + y) % m for y in range(m)] for x in self.points()[i]))
        return row

    def scaling(self, k: int) -> tuple[int, ...]:
        """Multiplication by k: scaling(k)[j] is the index of k * pts[j]."""
        m = self.modulus
        k %= m
        row = self._scales.get(k)
        if row is None:
            # one column per coordinate, so at n = 0 no residue is listed (p^v may be huge there)
            row = self._keep(self._scales, k, self._index_row(
                [k * y % m for y in range(m)] for _ in range(self.n)))
        return row

    def pairing(self, i: int) -> tuple[int, ...]:
        """The pairing with point i: pairing(i)[j] is <pts[j], pts[i]> mod
        p^v, built one coordinate per pass."""
        row = self._pairings.get(i)
        if row is None:
            m = self.modulus
            out = [0]
            for x in self.points()[i]:
                column = [y * x % m for y in range(m)]
                out = [(s + d) % m for s in out for d in column]
            row = self._keep(self._pairings, i, tuple(out))
        return row

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Theta)
            and (self.p, self.v, self.n) == (other.p, other.v, other.n)
        )

    def __hash__(self):
        return hash((self.p, self.v, self.n))

    def __repr__(self):
        return f"Theta(p={self.p}, v={self.v}, n={self.n})"


class LatticeDivisor:
    """A finite multiset over Theta(v); the additive monoid is multiset union.

    ``vec[i]`` is the multiplicity of ``theta.points()[i]``.  Multiplication
    is the convolution [a][b] = [a+b]; lambda^k sums over k-element
    sub-multisets; psi^k multiplies every point by k.  The value is never
    changed after construction, so its hash, hash((theta, vec)), and its
    support are computed on first use and kept on the divisor.
    """

    __slots__ = ("theta", "vec", "_hash", "_support")

    def __init__(self, theta: Theta, points=()):
        self.theta = theta
        counts = [0] * len(theta.points())
        for pt in points:
            counts[theta.index(pt)] += 1
        self.vec = tuple(counts)
        self._hash = self._support = None

    @classmethod
    def of_vec(cls, theta: Theta, vec: tuple[int, ...]) -> "LatticeDivisor":
        """The divisor with count vector ``vec``, taken as it is: the caller
        supplies a tuple of len(theta.points()) nonnegative integers."""
        self = object.__new__(cls)
        self.theta = theta
        self.vec = vec
        self._hash = self._support = None
        return self

    @classmethod
    def from_counts(cls, theta: Theta, counts: dict) -> "LatticeDivisor":
        vec = [0] * len(theta.points())
        for pt, m in counts.items():
            if m < 0:
                raise ValidationError("negative multiplicity")
            vec[theta.index(pt)] += m
        return cls.of_vec(theta, tuple(vec))

    def support(self) -> tuple[tuple[int, int], ...]:
        """The (index, multiplicity) pairs of nonzero multiplicity."""
        support = self._support
        if support is None:
            vec = self.vec
            support = self._support = tuple(
                [(i, vec[i]) for i in compress(range(len(vec)), vec)])
        return support

    @property
    def pairs(self) -> tuple:
        """The (point, multiplicity) pairs of the support, in point order."""
        pts = self.theta.points()
        return tuple((pts[i], m) for i, m in self.support())

    def counts(self) -> dict:
        return dict(self.pairs)

    def dim(self) -> int:
        return sum(self.vec)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, LatticeDivisor)
            and self.vec == other.vec
            and self.theta == other.theta
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.theta, self.vec))
        return h

    def __add__(self, other):
        self._check(other)
        return LatticeDivisor.of_vec(
            self.theta, tuple([a + b for a, b in zip(self.vec, other.vec)])
        )

    def __mul__(self, other):
        if isinstance(other, int):
            if other < 0:
                raise ValidationError("negative integer multiple")
            return LatticeDivisor.of_vec(self.theta, tuple([m * other for m in self.vec]))
        self._check(other)
        theta = self.theta
        out = [0] * len(self.vec)
        right = other.support()
        for i, ma in self.support():
            row = theta.shift(i)
            for j, mb in right:
                out[row[j]] += ma * mb
        return LatticeDivisor.of_vec(theta, tuple(out))

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, LatticeDivisor) or other.theta != self.theta:
            raise ValidationError("mixed lattice parameters")

    def psi(self, k: int) -> "LatticeDivisor":
        row = self.theta.scaling(k)
        out = [0] * len(self.vec)
        for i, m in self.support():
            out[row[i]] += m
        return LatticeDivisor.of_vec(self.theta, tuple(out))

    def lam(self, k: int) -> "LatticeDivisor":
        """lambda^k: sum over k-element sub-multisets of the sum of points.

        k > dim gives the empty divisor; negative k is an error.  Computed by
        iterating the two-term addition law: adding a point [pt] updates
        lambda^j <- lambda^j + [pt] * lambda^{j-1}, levels k..1 in turn.
        """
        if k < 0:
            raise LambdaOutOfRange(f"lambda^{k}")
        theta = self.theta
        size = len(self.vec)
        if k > self.dim():
            return LatticeDivisor.of_vec(theta, (0,) * size)
        # series[j] is lambda^j of the points added so far, as {index: mult}
        series: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(k)]
        added = 0
        for i, m in self.support():
            row = theta.shift(i)
            for _ in range(m):
                added += 1
                for lvl in range(min(added, k), 0, -1):
                    target = series[lvl]
                    for s, c in series[lvl - 1].items():
                        t = row[s]
                        target[t] = target.get(t, 0) + c
        out = [0] * size
        for s, c in series[k].items():
            out[s] = c
        return LatticeDivisor.of_vec(theta, tuple(out))

    # -- text form: 2[0,0] + [1,0] ------------------------------------------
    def text(self) -> str:
        pairs = self.pairs
        if not pairs:
            return "0"
        parts = []
        for pt, m in pairs:
            body = "[" + ",".join(str(x) for x in pt) + "]"
            parts.append(body if m == 1 else f"{m}{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<divisor {self.text()}>"


# -- the inverse Fourier transform on Theta -----------------------------------
# The transform of a divisor, a -> sum_x mult(x) w^{<a,x>}, is a sum of
# pairing rows' roots, which omega.xi_class_maps adds up itself.  The way
# back depends only on Theta, the exponent e and the row, so each Theta
# keeps the checked count vector of each row it sends back.

COUNTS = {"transforms": 0}  # rows transformed, kept count vectors not counted


def _transform(theta: Theta, cy, f) -> list[tuple[int, ...]]:
    """y -> sum_z f(z) w^{-<y,z>}, where w = zeta_e^{e/p^v}, one
    coordinate per pass: each line of m = p^v values along the leading
    coordinate is summed against the lifted roots w^{-yz} through
    cy.product_sum, and the value at z * rest + r goes to r * m + y, so
    after n passes the points are back in their own order."""
    e, m = cy.e, theta.modulus
    if e % m:
        raise ValidationError(f"p^{theta.v} does not divide the exponent {e}")
    COUNTS["transforms"] += 1
    step = -(e // m)
    roots = [((k, 1),) for k in range(e)]  # one lifted root per exponent, shared
    twiddle = [[roots[y * z * step % e] for z in range(m)] for y in range(m)]
    ones = [1] * m
    values = list(f)
    rest = len(values) // m
    for _ in range(theta.n):
        lifted = [cy.lift(value) for value in values]
        values = [cy.product_sum(ones, lifted[r::rest], w)
                  for r in range(rest) for w in twiddle]
    return values


def fourier_inverse(theta: Theta, cy, rows) -> list[LatticeDivisor]:
    """The divisor mult(x) = p^{-vn} sum_a f(a) w^{-<a,x>} of each row f.

    Raises InexactDivision unless every multiplicity is a rational integer,
    and ValidationError when one is negative.  Rows are taken in order, and
    a row not seen before is checked in full before its count vector is
    kept, so the first failing row raises, on every call.
    """
    kept = theta._inverse
    divisors = []
    for row in rows:
        key = (cy.e, tuple(row))
        vec = kept.get(key)
        if vec is None:
            vec = tuple(cy.rational_value(cy.divide_exact(value, theta.size))
                        for value in _transform(theta, cy, row))
            if min(vec) < 0:
                raise ValidationError("negative multiplicity")
            theta._keep(kept, key, vec)
        divisors.append(LatticeDivisor.of_vec(theta, vec))
    return divisors


# -- Newton conversion between lambda and psi sequences ----------------------

def newton_lambda_to_psi(lams: list, count: int):
    """psi_1..psi_count from lambda_1..; Newton's identity
    psi_k = lam_1 psi_{k-1} - lam_2 psi_{k-2} + ... + (-1)^{k-1} k lam_k.

    Elements must support +, -, * and integer scaling via k * x.
    """
    psis = []
    for k in range(1, count + 1):
        acc = None
        for i in range(1, k):
            lam_i = lams[i - 1] if i - 1 < len(lams) else None
            if lam_i is None:
                continue
            term = lam_i * psis[k - i - 1]
            if i % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        lam_k = lams[k - 1] if k - 1 < len(lams) else None
        if lam_k is not None:
            tail = k * lam_k
            if (k - 1) % 2 == 1:
                tail = -tail
            acc = tail if acc is None else acc + tail
        if acc is None:
            raise ValidationError(f"lambda sequence too short for psi_{k}")
        psis.append(acc)
    return psis


def newton_psi_to_lambda(psis: list, count: int, divide=None):
    """lambda_1..lambda_count from psi_1..; divisions by k must be exact.

    Solving Newton's identity for lambda_k:
    k*lambda_k = (-1)^{k-1} psi_k + sum_{i<k} (-1)^{k-1+i} lambda_i psi_{k-i}.
    ``divide(x, k)`` performs the exact division (default: integer divmod
    with an exactness check).
    """
    if divide is None:
        def divide(x, k):
            q, r = divmod(x, k)
            if r:
                raise InexactDivision(f"{x} not divisible by {k}")
            return q

    lams: list = []
    for k in range(1, count + 1):
        acc = psis[k - 1]
        if (k - 1) % 2 == 1:
            acc = -acc
        for i in range(1, k):
            term = lams[i - 1] * psis[k - i - 1]
            if (k - 1 + i) % 2 == 1:
                term = -term
            acc = acc + term
        lams.append(divide(acc, k))
    return lams


def unit_elementary(units: list, j: int):
    """a_j: the j-th elementary symmetric function of the unit list."""
    if not 0 <= j <= len(units):
        raise LambdaOutOfRange(f"a_{j} of {len(units)} units")
    acc = None
    for subset in combinations(units, j):
        prod = None
        for u in subset:
            prod = u if prod is None else prod * u
        acc = prod if acc is None else acc + prod
    return acc
