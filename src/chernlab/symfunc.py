"""Rewriting symmetric polynomials in elementary symmetric coordinates."""

from __future__ import annotations

from itertools import combinations

from .errors import NotSymmetric, ValidationError
from .poly import Poly, PolyRing


def elementary_symmetric(ring: PolyRing, k: int) -> Poly:
    """e_k of all the ring's variables."""
    n = ring.nvars
    if not 0 <= k <= n:
        raise ValidationError(f"e_{k} of {n} variables")
    return Poly(ring, {sum(1 << ring.shifts[i] for i in subset): 1
                       for subset in combinations(range(n), k)})


def is_symmetric(p: Poly) -> bool:
    """Invariance under every adjacent transposition of the ring's variables."""
    terms = {p.ring.exponents(m): c for m, c in p.terms.items()}
    for a in range(p.ring.nvars - 1):
        swapped = {e[:a] + (e[a + 1], e[a]) + e[a + 2:]: c for e, c in terms.items()}
        if swapped != terms:
            return False
    return True


def symmetrize(p: Poly, e_ring: PolyRing) -> Poly:
    """Express a polynomial symmetric in all its ring's variables in
    elementary symmetric coordinates; the k-th variable of ``e_ring`` stands
    for e_k.

    Gauss's algorithm: repeatedly subtract the e-product whose leading term
    is the lex-greatest term.  Round-trip substitution e_k -> e_k(x_1..x_d)
    reproduces the input exactly.
    """
    ring = p.ring
    if e_ring.nvars != ring.nvars:
        raise ValidationError("need one e-variable per ring variable")
    if not is_symmetric(p):
        raise NotSymmetric("polynomial is not symmetric in its ring's variables")
    e_polys = [elementary_symmetric(ring, k) for k in range(1, ring.nvars + 1)]
    # each step lowers the leading exponent, so no e-exponent recurs
    result = {}
    work = p
    guard = 0
    while work:
        guard += 1
        if guard > 100000:
            raise ValidationError("symmetrization did not terminate")
        lead = max(work.terms)
        lam = ring.exponents(lead)
        if list(lam) != sorted(lam, reverse=True):
            raise NotSymmetric("leading exponents not weakly decreasing")
        # e-product exponents: lam_i - lam_{i+1}
        e_exps = tuple(a - b for a, b in zip(lam, lam[1:] + (0,)))
        prod = ring.one()
        for e_k, a in zip(e_polys, e_exps):
            if a:
                prod = prod * e_k ** a
        c = work.terms[lead]
        work = work - prod.scale(c)
        result[e_ring.pack(e_exps)] = c
    return Poly(e_ring, result)
