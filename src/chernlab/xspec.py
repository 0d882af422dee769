"""Census machinery for extraspecial p-groups at odd primes.

The group is F_p x V (V symplectic of rank 2d) with multiplication twisted by
the alternating form.  The lattice side classifies homomorphism data by pairs
(alpha, u): alpha a homomorphism V* -> Theta(1) and u a divisor of dimension
p^d satisfying u psi^{p-1}(u) = c_alpha; pairs are generated from the coset
classification and cross-checked against the defining equation.  The
comparison map is computed independently through the character table, and the
image is matched against the isotropy of the dual image.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import comb

from .cert import Certificate
from .errors import ResourceLimit, ValidationError
from .groups import model_extraspecial, power_exceeds, symplectic_form
from .lattice import LatticeDivisor, Theta
from .omega import OmegaChElem, enumerate_omega, kappa
from .repring import (
    RepRing,
    lambda_rho_brute,
    table_extraspecial,
)

XSPEC_WORK_CEILING = 1 << 22  # p^{(2d+1)n}: the alphas times the points of Theta(1)


@lru_cache(maxsize=None)
def _extraspecial_ring(p: int, d: int) -> RepRing:
    return RepRing(table_extraspecial(p, d))


class UPair:
    """(alpha, u): alpha as a tuple of 2d columns in Theta(1), u a divisor."""

    __slots__ = ("alpha", "u", "rank")

    def __init__(self, alpha, u, rank):
        self.alpha = alpha
        self.u = u
        self.rank = rank

    def key(self):
        return (self.alpha, self.u.vec)

    def __eq__(self, other):
        return isinstance(other, UPair) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _span(indices, theta: Theta) -> tuple[frozenset, int]:
    """The subgroup generated by the points at these indices, as a set of
    point indices, with its F_p-rank.  A generator outside the span so far
    adds its p - 1 translates of the span, read off its shift row."""
    span = {0}
    rank = 0
    for i in indices:
        if i in span:
            continue
        rank += 1
        row = theta.shift(i)
        layer = list(span)
        for _ in range(theta.p - 1):
            layer = [row[s] for s in layer]
            span.update(layer)
    return frozenset(span), rank


def c_alpha(alpha, theta: Theta) -> LatticeDivisor:
    """sum over c in F_p^{2d} of [sum_i c_i alpha_i]: the product over the
    columns of the divisors [0] + [alpha_i] + ... + [(p-1) alpha_i]."""
    out = LatticeDivisor(theta, [theta.zero()])
    for col in alpha:
        out = out * LatticeDivisor(theta, [theta.scale(c, col) for c in range(theta.p)])
    return out


def _cosets(span: frozenset, mult: int, theta: Theta) -> list:
    """(u, u psi^{p-1}(u)) for each coset of the span, in the order of its
    least point index, where u is mult times the coset's points."""
    rows = [theta.shift(s) for s in span]
    pts = theta.points()
    covered = bytearray(len(pts))
    out = []
    for base in range(len(pts)):
        if covered[base]:
            continue
        for row in rows:
            covered[row[base]] = 1
        u = LatticeDivisor.from_counts(theta, {pts[row[base]]: mult for row in rows})
        out.append((u, u * u.psi(theta.p - 1)))
    return out


def enumerate_U(p: int, d: int, n: int) -> list[UPair]:
    """All pairs from the coset classification: for rank e <= d, one u per
    coset of the image, with multiplicity p^{d-e}; empty for e > d.  The
    cosets of each distinct image are built once; every pair is checked
    against its own alpha's c_alpha."""
    if p == 2:
        raise ValidationError("odd primes only")
    e = (2 * d + 1) * n
    if power_exceeds(p, e, XSPEC_WORK_CEILING):
        raise ResourceLimit(f"p^{{(2d+1)n}} = {p}^{e} exceeds {XSPEC_WORK_CEILING}")
    theta = Theta(p, 1, n)
    pts = theta.points()
    cosets: dict[frozenset, list] = {}
    pairs: list[UPair] = []
    for alpha in iproduct(range(len(pts)), repeat=2 * d):
        span, rank = _span(alpha, theta)
        if rank > d:
            continue
        if span not in cosets:
            cosets[span] = _cosets(span, p ** (d - rank), theta)
        cols = tuple(pts[i] for i in alpha)
        target = c_alpha(cols, theta)
        for u, product in cosets[span]:
            if product != target:
                raise ValidationError("enumerated pair fails the defining equation")
            pairs.append(UPair(cols, u, rank))
    return pairs


def _dual_image_isotropic(alpha, p: int, d: int) -> bool:
    """The image of the dual map is spanned by the rows of the matrix of
    alpha; isotropy is checked against the standard form."""
    n = len(alpha[0])
    rows = []
    for i in range(n):
        rows.append(tuple(col[i] for col in alpha))
    b = symplectic_form(d)
    for x in rows:
        for y in rows:
            if b(x, y, p):
                return False
    return True


def _pair_from_omega_ch(elem: OmegaChElem, p: int, d: int) -> UPair:
    """Translate a lattice homomorphism into its (alpha, u) pair.  Column i
    of alpha is the point of the linear character at the i-th unit vector of
    F_p^{2d}, whose index in lexicographic order is p^{2d-1-i}."""
    cols = []
    for i in range(2 * d):
        div = elem.divisors[p ** (2 * d - 1 - i)]
        if div.dim() != 1:
            raise ValidationError("linear character image is not a point")
        cols.append(div.support()[0][0])
    u = elem.divisors[p ** (2 * d)]  # the first degree-p^d character
    _, rank = _span(cols, u.theta)
    pts = u.theta.points()
    return UPair(tuple(pts[i] for i in cols), u, rank)


def xspec_census(p: int, d: int, n: int) -> Certificate:
    cert = Certificate("xspec", {"p": p, "d": d, "n": n})
    model = model_extraspecial(p, d)
    table = table_extraspecial(p, d)
    classes = model.classes
    cert.add(
        "class_count",
        len(classes) == p ** (2 * d) + p - 1,
        {"classes": len(classes)},
    )
    cert.add("exponent_p", model.exponent == p, {})
    centre = [c for c in classes if len(c) == 1]
    cert.add("centre_order_p", len(centre) == p, {})

    pairs = enumerate_U(p, d, n)
    cert.add("u_pairs_enumerated", True, {"count": len(pairs)})

    om = enumerate_omega(model, p, n)
    distinct = set(kappa(table, om, p, n, v=1))
    cert.add("kappa_injective", len(distinct) == len(om),
             {"omega": len(om), "kappa_image": len(distinct)})

    image_pairs = {_pair_from_omega_ch(e, p, d) for e in distinct}
    all_pairs = set(pairs)
    cert.add("kappa_image_in_U", image_pairs <= all_pairs, {})
    isotropic = {pr for pr in pairs if _dual_image_isotropic(pr.alpha, p, d)}
    cert.add(
        "kappa_image_is_isotropic_locus",
        image_pairs == isotropic,
        {"isotropic_pairs": len(isotropic)},
    )
    deficit = len(all_pairs) - len(image_pairs)
    cert.add(
        "deficit_counts_nonisotropic_pairs",
        deficit == len(all_pairs) - len(isotropic),
        {"U": len(all_pairs), "kappa_image": len(image_pairs), "deficit": deficit},
    )
    # the verdict: surjective exactly when no alpha has non-isotropic image
    cert.add(
        "surjectivity_verdict",
        (deficit == 0) == (len(isotropic) == len(all_pairs)),
        {"surjective": deficit == 0, "deficit": deficit},
    )
    return cert


def extraspecial_table_checks(p: int, d: int) -> Certificate:
    """The multiplicative, Adams and lambda structure of the degree-p^d
    characters, verified against closed forms and cyclic restrictions."""
    if (p, d) not in ((3, 1), (3, 2), (5, 1)):
        raise ValidationError("supported parameters: (3,1), (3,2), (5,1)")
    cert = Certificate("table-check", {"p": p, "d": d})
    ring = _extraspecial_ring(p, d)
    table = ring.table
    model = table.model
    nlin = p ** (2 * d)
    phi = {j: ring.irreducible(nlin + j - 1) for j in range(1, p)}
    rho_v = ring.from_coeffs([1] * nlin + [0] * (p - 1))

    cert.add_cases(
        "linear_times_phi_fixed",
        range(nlin),
        lambda i: ring.product(ring.irreducible(i), phi[1]) == phi[1],
    )

    def phi_product(ij) -> bool:
        i, j = ij
        prod = ring.product(phi[i], phi[j])
        return prod == (rho_v if (i + j) % p == 0 else (p ** d) * phi[(i + j) % p])

    cert.add_cases("phi_products", iproduct(range(1, p), repeat=2), phi_product)

    def psi_on_phi(jk) -> bool:
        j, k = jk
        im = ring.adams(phi[j], k)
        return im == ((p ** d) * ring.one() if k % p == 0 else phi[(j * k) % p])

    cert.add_cases("psi_on_phi", iproduct(range(1, p), range(0, 2 * p)), psi_on_phi)

    # lambda^k(phi) against the closed form
    def closed_form(k) -> bool:
        got = ring.lam_irreducible(nlin, k)
        if k % p == 0:
            a = comb(p ** (d - 1), k // p)
            b, r = divmod(comb(p ** d, k) - a, p ** (2 * d))
            expected = a * ring.one() + b * rho_v
        else:
            b, r = divmod(comb(p ** d, k), p ** d)
            expected = b * phi[k % p]
        return r == 0 and got == expected

    cert.add_cases("lambda_phi_closed_form", range(0, p ** d + 1), closed_form)

    # restrictions: to the centre and to a non-central cyclic subgroup
    cy = table.cyclo
    centre_classes = [ci for ci, cls in enumerate(model.classes) if len(cls) == 1]
    noncentral = next(ci for ci, cls in enumerate(model.classes) if len(cls) > 1)

    def cyclic_restrictions(k) -> bool:
        values = ring.character_values(ring.lam_irreducible(nlin, k))
        for ci in centre_classes:
            x = model.elements[model.classes[ci][0]][0]
            if values[ci] != cy.scale(comb(p ** d, k), cy.root_power((k * x) % p)):
                return False
        return values[noncentral] == cy.from_int(lambda_rho_brute(p, d, k)[0])

    cert.add_cases("lambda_phi_cyclic_restrictions", range(0, p ** d + 1), cyclic_restrictions)
    return cert
