"""The lattice model of divisors: the Lambda-semiring N[Theta(v)].

Theta(v) = (Z/p^v)^n.  A divisor is a multiset of lattice points, stored as a
canonically sorted tuple of (point, multiplicity) pairs, so divisors are
hashable values with multiset equality.
"""

from __future__ import annotations

import re
from itertools import combinations

from .errors import InexactDivision, LambdaOutOfRange, ResourceLimit, ValidationError

THETA_POINTS_CEILING = 1 << 20


class Theta:
    """The parameter triple (p, v, n) for the lattice (Z/p^v)^n."""

    def __init__(self, p: int, v: int, n: int):
        self.p = p
        self.v = v
        self.n = n
        self.modulus = p ** v

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

    def points(self):
        # exact test: a modulus >= 2 to the 21st, or 2^21 to any n >= 1, is past it
        if min(self.modulus, 2 << 20) ** min(self.n, 21) > THETA_POINTS_CEILING:
            raise ResourceLimit(f"{self} has more than {THETA_POINTS_CEILING} points")
        out = [()]
        for _ in range(self.n):
            out = [pt + (x,) for pt in out for x in range(self.modulus)]
        return [tuple(p) for p in out]

    def __eq__(self, other):
        return (
            isinstance(other, Theta)
            and (self.p, self.v, self.n) == (other.p, other.v, other.n)
        )

    def __hash__(self):
        return hash((self.p, self.v, self.n))

    def __repr__(self):
        return f"Theta(p={self.p}, v={self.v}, n={self.n})"


class LatticeDivisor:
    """A finite multiset over Theta(v); the additive monoid is multiset union.

    Multiplication is the convolution [a][b] = [a+b]; lambda^k sums over
    k-element sub-multisets; psi^k multiplies every point by k.
    """

    __slots__ = ("theta", "pairs")

    def __init__(self, theta: Theta, points=(), pairs=None):
        self.theta = theta
        if pairs is not None:
            self.pairs = pairs
            return
        counts: dict = {}
        for pt in points:
            pt = theta.reduce(pt)
            counts[pt] = counts.get(pt, 0) + 1
        self.pairs = tuple(sorted(counts.items()))

    @classmethod
    def from_counts(cls, theta: Theta, counts: dict) -> "LatticeDivisor":
        pairs = tuple(
            sorted((theta.reduce(pt), m) for pt, m in counts.items() if m)
        )
        if any(m < 0 for _, m in pairs):
            raise ValidationError("negative multiplicity")
        return cls(theta, pairs=pairs)

    def counts(self) -> dict:
        return dict(self.pairs)

    def dim(self) -> int:
        return sum(m for _, m in self.pairs)

    def points_with_multiplicity(self):
        for pt, m in self.pairs:
            for _ in range(m):
                yield pt

    def is_zero(self) -> bool:
        return not self.pairs

    def __eq__(self, other):
        return (
            isinstance(other, LatticeDivisor)
            and self.theta == other.theta
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.theta, self.pairs))

    def __add__(self, other):
        self._check(other)
        counts = self.counts()
        for pt, m in other.pairs:
            counts[pt] = counts.get(pt, 0) + m
        return LatticeDivisor.from_counts(self.theta, counts)

    def __mul__(self, other):
        if isinstance(other, int):
            if other < 0:
                raise ValidationError("negative integer multiple")
            counts = {pt: m * other for pt, m in self.pairs}
            return LatticeDivisor.from_counts(self.theta, counts)
        self._check(other)
        counts: dict = {}
        for pa, ma in self.pairs:
            for pb, mb in other.pairs:
                key = self.theta.add(pa, pb)
                counts[key] = counts.get(key, 0) + ma * mb
        return LatticeDivisor.from_counts(self.theta, counts)

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, LatticeDivisor) or other.theta != self.theta:
            raise ValidationError("mixed lattice parameters")

    def psi(self, k: int) -> "LatticeDivisor":
        counts: dict = {}
        for pt, m in self.pairs:
            key = self.theta.scale(k, pt)
            counts[key] = counts.get(key, 0) + m
        return LatticeDivisor.from_counts(self.theta, counts)

    def lam(self, k: int) -> "LatticeDivisor":
        """lambda^k: sum over k-element sub-multisets of the sum of points.

        k > dim gives the empty divisor; negative k is an error.  Computed by
        iterating the two-term addition law: adding a point [pt] updates
        lambda^j <- lambda^j + [pt] * lambda^{j-1}, levels 0..k.
        """
        if k < 0:
            raise LambdaOutOfRange(f"lambda^{k}")
        if k == 0:
            return LatticeDivisor(self.theta, [self.theta.zero()])
        if k > self.dim():
            return LatticeDivisor(self.theta)
        theta = self.theta
        series: list[dict] = [{theta.zero(): 1}]
        for pt in self.points_with_multiplicity():
            new = [dict(level) for level in series]
            if len(new) <= k:
                new.append({})
            for lvl in range(min(len(new) - 1, k), 0, -1):
                target = new[lvl]
                for s, m in series[lvl - 1].items():
                    key = theta.add(s, pt)
                    target[key] = target.get(key, 0) + m
            series = new
        return LatticeDivisor.from_counts(self.theta, series[k])

    # -- text form: 2[0,0] + [1,0] ------------------------------------------
    def text(self) -> str:
        if not self.pairs:
            return "0"
        parts = []
        for pt, m in self.pairs:
            body = "[" + ",".join(str(x) for x in pt) + "]"
            parts.append(body if m == 1 else f"{m}{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<divisor {self.text()}>"


_DIV_TERM = re.compile(r"^(\d*)\[([0-9,\s]*)\]$")


def parse_divisor(theta: Theta, text: str) -> LatticeDivisor:
    text = text.strip()
    if text == "0":
        return LatticeDivisor(theta)
    counts: dict = {}
    for part in text.split("+"):
        m = _DIV_TERM.match(part.strip())
        if not m:
            raise ValidationError(f"bad divisor term {part!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        pt = theta.reduce(tuple(int(x) for x in m.group(2).split(",")))
        counts[pt] = counts.get(pt, 0) + mult
    return LatticeDivisor.from_counts(theta, counts)


# -- the Fourier pair on Theta -------------------------------------------------

def _transform(theta: Theta, cy, functions, sign: int) -> list[list[tuple[int, ...]]]:
    """f -> (y -> sum_z f(z) w^{sign <y,z>}) for functions f on theta.points().

    Values lie in cy = Z[zeta_e] and w = zeta_e^{e/p^v}; the pairing table
    is built once per call, as lifted roots of unity for cy.product_sum.
    """
    e = cy.e
    if e % theta.modulus:
        raise ValidationError(f"p^{theta.v} does not divide the exponent {e}")
    step = sign * (e // theta.modulus)
    pts = theta.points()
    pairing = [[((sum(a * b for a, b in zip(y, z)) * step % e, 1),) for z in pts]
               for y in pts]
    ones = [1] * len(pts)
    out = []
    for f in functions:
        lifted = [cy.lift(value) for value in f]
        out.append([cy.product_sum(ones, lifted, w) for w in pairing])
    return out


def fourier(theta: Theta, cy, divisors) -> list[list[tuple[int, ...]]]:
    """The transform a -> sum_x mult(x) w^{<a,x>} of each divisor."""
    pts = theta.points()
    counts = [d.counts() for d in divisors]
    return _transform(theta, cy, [[cy.from_int(c.get(x, 0)) for x in pts] for c in counts], 1)


def fourier_inverse(theta: Theta, cy, rows) -> list[LatticeDivisor]:
    """The divisor mult(x) = p^{-vn} sum_a f(a) w^{-<a,x>} of each row f.

    Raises InexactDivision unless every multiplicity is a rational integer,
    and ValidationError when one is negative.
    """
    pts = theta.points()
    divisors = []
    for row in _transform(theta, cy, rows, -1):
        mults = [cy.rational_value(cy.divide_exact(value, len(pts))) for value in row]
        divisors.append(LatticeDivisor.from_counts(theta, dict(zip(pts, mults))))
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
