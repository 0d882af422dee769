"""Rewriting symmetric polynomials in elementary symmetric coordinates."""

from __future__ import annotations

from itertools import combinations

from .errors import NotSymmetric, ValidationError
from .poly import Poly, PolyRing


def elementary_symmetric(ring: PolyRing, block: list[str], k: int) -> Poly:
    """e_k of the named variables, expanded in the ambient ring."""
    if not 0 <= k <= len(block):
        raise ValidationError(f"e_{k} of {len(block)} variables")
    idx = [ring.var_index(v) for v in block]
    out = ring.zero()
    for subset in combinations(idx, k):
        exps = [0] * ring.nvars
        for i in subset:
            exps[i] = 1
        out = out + ring.monomial(tuple(exps))
    return out


def is_symmetric(p: Poly, block: list[str]) -> bool:
    """Invariance under all adjacent transpositions of the block variables."""
    idx = [p.ring.var_index(v) for v in block]
    for a, b in zip(idx, idx[1:]):
        swapped = {}
        for e, c in p.terms.items():
            le = list(e)
            le[a], le[b] = le[b], le[a]
            swapped[tuple(le)] = c
        if swapped != p.terms:
            return False
    return True


def symmetrize(p: Poly, block: list[str], e_ring: PolyRing, e_names: list[str]) -> Poly:
    """Express a block-symmetric polynomial in elementary symmetric coordinates.

    Gauss's algorithm: repeatedly subtract the e-product matching the leading
    exponent pattern.  Variables outside the block must also exist in
    ``e_ring`` (they pass through unchanged).  Round-trip substitution
    e_k -> e_k(block) reproduces the input exactly.
    """
    ring = p.ring
    if len(e_names) != len(block):
        raise ValidationError("need one e-name per block variable")
    if not is_symmetric(p, block):
        raise NotSymmetric("polynomial is not symmetric in the block variables")
    idx = [ring.var_index(v) for v in block]
    other = [i for i in range(ring.nvars) if i not in idx]
    other_names = [ring.variables[i] for i in other]
    for name in e_names + other_names:
        e_ring.var_index(name)  # raises if missing

    e_polys = [elementary_symmetric(ring, block, k) for k in range(1, len(block) + 1)]

    result = e_ring.zero()
    work = p
    guard = 0
    while work:
        guard += 1
        if guard > 100000:
            raise ValidationError("symmetrization did not terminate")
        # group terms by block-exponent pattern; take the lex-greatest pattern
        best = max(tuple(e[i] for i in idx) for e in work.terms)
        if list(best) != sorted(best, reverse=True):
            raise NotSymmetric("leading block exponents not weakly decreasing")
        # coefficient polynomial in the non-block variables
        coeff_terms = {}
        for e, c in work.terms.items():
            if tuple(e[i] for i in idx) == best:
                coeff_terms[tuple(e[i] for i in other)] = c
        # e-product exponents: lam_i - lam_{i+1}
        lam = list(best) + [0]
        e_exps = [lam[i] - lam[i + 1] for i in range(len(block))]
        # subtract coeff * prod e_i^{e_exps[i]} from work
        prod = ring.one()
        for k, a in enumerate(e_exps):
            if a:
                prod = prod * e_polys[k] ** a
        coeff_in_ring = Poly(
            ring,
            {
                tuple(
                    oe[other.index(i)] if i in other else 0 for i in range(ring.nvars)
                ): c
                for oe, c in coeff_terms.items()
            },
        )
        work = work - coeff_in_ring * prod
        # accumulate into the e-ring
        for oe, c in coeff_terms.items():
            exps = [0] * e_ring.nvars
            for k, a in enumerate(e_exps):
                exps[e_ring.var_index(e_names[k])] = a
            for name, a in zip(other_names, oe):
                exps[e_ring.var_index(name)] += a
            result = result + e_ring.monomial(tuple(exps), c)
    return result

