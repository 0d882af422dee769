"""The acceptance suite: one certificate per criterion, all exact."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from math import comb

from .cert import Certificate
from .cyclotomic import Cyclo
from .divisor import divisor_from_roots, divisor_lambda, divisor_psi
from .errors import InexactDivision
from .fgl import honda_fgl, multiplicative_fgl
from .field import GF
from .groebner import cap_ring
from .groups import builtin_model, model_symmetric, orbit_of
from .lattice import (
    LatticeDivisor,
    Theta,
    fourier_inverse,
    newton_lambda_to_psi,
    newton_psi_to_lambda,
    unit_elementary,
)
from .omega import (
    enumerate_omega,
    enumerate_omega_ch,
    enumerate_omega_dprime,
    enumerate_omega_prime,
    hom_images,
    kappa,
    pointwise_signature,
    xi_class_maps,
)
from .pipelines import (
    nonpositive_divisor_witness,
    sdiv_checks,
    sigma3_pipeline,
    sigma4_pipeline,
)
from .repring import (
    RepRing,
    builtin_group,
    lambda_rho_brute,
    lambda_rho_closed_form,
    table_cyclic,
    table_cyclic_product,
    table_sigma3,
    table_sigma4,
)
from .xspec import xspec_census

# golden values recorded after the first verified (3,2,2) census run
XSPEC_322_GOLDEN = {"U": 7209, "omega": 2889, "deficit": 4320}


def criterion_1_fgl_height2_p2() -> Certificate:
    cert = Certificate("acceptance-1-fgl-p2", {"p": 2, "n": 2, "prec": 32})
    law = honda_fgl(2, 2, 32)
    cert.add("mul2_is_x4", law.mul_series(2) == {4: 1}, {"[2](x)": law.series_text(2)})
    cert.add(
        "neg_series",
        law.mul_series(-1) == {1: 1, 4: 1, 10: 1, 16: 1, 22: 1},
        {"[-1](x)": law.series_text(-1)},
    )
    extra = [k for k in law.terms if k not in ((1, 0), (0, 1), (2, 2))]
    cert.add(
        "f_mod_x4y4",
        law.terms.get((2, 2)) == 1 and all(i >= 4 and j >= 4 for i, j in extra),
        {"low_terms": sorted(k for k in law.terms if sum(k) < 9)},
    )
    return cert


def criterion_2_fgl_height2_p3() -> Certificate:
    cert = Certificate("acceptance-2-fgl-p3", {"p": 3, "n": 2})
    law = honda_fgl(3, 2, 16)
    cert.add("mul3_is_x9", law.mul_series(3) == {9: 1}, {"[3](x)": law.series_text(3)})
    cert.add("neg_is_minus_x", law.mul_series(-1) == {1: 2}, {"[-1](x)": law.series_text(-1)})
    extra = [k for k in law.terms if k not in ((1, 0), (0, 1))]
    cert.add("f_mod_x3y3", all(i >= 3 and j >= 3 for i, j in extra), {})
    two = {d: c for d, c in law.mul_series(2).items() if d < 12}
    cert.add("mul2_mod_x12", two == {1: 2, 9: 1}, {"[2](x) mod x^12": two})
    return cert


def criterion_3_sigma3() -> Certificate:
    cert = sigma3_pipeline()
    cert.pipeline = "acceptance-3-sigma3"
    return cert


def criterion_4_sigma4() -> Certificate:
    cert = sigma4_pipeline()
    cert.pipeline = "acceptance-4-sigma4"
    return cert


def _sigma4_strata(model, reps) -> tuple[int, ...]:
    """Image-subgroup census: trivial; transposition; double transposition or
    non-regular Klein; regular Klein; cyclic of order four."""
    counts = [0] * 5
    for rep in reps:
        closure = model.closure(rep)
        size = len(closure)
        cyclic = any(model.orders[g] == size for g in closure)
        orbits = _orbits(model, closure)
        if size == 1:
            counts[0] += 1
        elif size == 2 and orbits == [2]:
            counts[1] += 1
        elif size == 2:
            counts[2] += 1
        elif size == 4 and not cyclic and orbits == [2, 2]:
            counts[2] += 1
        elif size == 4 and not cyclic and orbits == [4]:
            counts[3] += 1
        elif size == 4 and cyclic:
            counts[4] += 1
    return tuple(counts)


def _orbits(model, closure) -> list[int]:
    """Sizes of the non-trivial orbits of the closure on the permuted points."""
    perms = [model.elements[g] for g in closure]
    orbits = {frozenset(orbit_of((i,), perms)) for i in range(len(perms[0]))}
    return sorted(len(o) for o in orbits if len(o) > 1)


def criterion_5_sigma4_census() -> Certificate:
    cert = Certificate("acceptance-5-omega-sigma4", {"p": 2, "n": 2})
    model = model_symmetric(4)
    om = enumerate_omega(model, 2, 2)
    cert.add("omega_count_17", len(om) == 17, {"count": len(om)})
    strata = _sigma4_strata(model, om)
    cert.add("strata_1_3_6_1_6", strata == (1, 3, 6, 1, 6), {"strata": list(strata)})
    rep_ring = RepRing(table_sigma4())
    och = enumerate_omega_ch(rep_ring, 2, 2)
    cert.add("omega_ch_count_17", len(och) == 17, {"count": len(och)})
    kimg = set(kappa(rep_ring.table, om, 2, 2))
    cert.add("kappa_bijective", kimg == set(och),
             {"image": len(kimg)})

    # the four-condition pair description: d = point of D_eps, u = D_eps_rho
    def four_conditions(elem) -> bool:
        d_div = elem.divisors[1]
        u = elem.divisors[4]
        theta = u.theta
        d = d_div.pairs[0][0]
        return (
            d_div.dim() == 1
            and theta.scale(2, d) == theta.zero()
            and u.lam(3) == LatticeDivisor(theta, [theta.zero()])
            and u.psi(-1) == u
            and u.psi(2) + u
            == LatticeDivisor(theta, [theta.zero(), theta.zero(), d])
            + LatticeDivisor(theta, [d]) * u
        )

    cert.add_cases("pair_description_four_conditions", och, four_conditions)
    return cert


def criterion_6_sdiv() -> Certificate:
    cert = sdiv_checks()
    cert.pipeline = "acceptance-6-sdiv"
    return cert


def criterion_7_lambda_rho() -> Certificate:
    cert = Certificate("acceptance-7-lambda-rho", {"pairs": [[2, 2], [3, 2]]})
    for (p, d) in ((2, 2), (3, 2)):
        mismatches = []
        for k in range(p ** d + 1):
            brute = lambda_rho_brute(p, d, k)
            try:
                closed = lambda_rho_closed_form(p, d, k)
            except InexactDivision as exc:
                closed = f"non-integral: {exc}"
            if brute != closed:
                mismatches.append({"k": k, "brute": list(brute), "closed": closed})
        cert.add(
            f"closed_form_matches_p{p}_d{d}",
            not mismatches,
            {"mismatches": mismatches,
             "note": "" if not mismatches else
             "closed form disagrees with the brute-force expansion"},
        )
    return cert


def criterion_8_xspec() -> Certificate:
    cert = xspec_census(3, 2, 2)
    cert.pipeline = "acceptance-8-xspec"
    by_name = {c.name: c for c in cert.clauses}
    w = by_name["deficit_counts_nonisotropic_pairs"].witness
    cert.add(
        "golden_values",
        w["U"] == XSPEC_322_GOLDEN["U"]
        and w["kappa_image"] == XSPEC_322_GOLDEN["omega"]
        and w["deficit"] == XSPEC_322_GOLDEN["deficit"]
        and w["deficit"] > 0,
        {"golden": XSPEC_322_GOLDEN},
    )
    return cert


def criterion_9_witness() -> Certificate:
    cert = nonpositive_divisor_witness(2)
    cert.pipeline = "acceptance-9-witness"
    return cert


def criterion_10_sigma6() -> Certificate:
    cert = Certificate("acceptance-10-sigma6", {"p": 2, "n": 2})
    s6 = model_symmetric(6)
    u1 = s6.index[(1, 0, 3, 2, 4, 5)]
    u2 = s6.index[(2, 3, 0, 1, 4, 5)]
    v1 = s6.index[(1, 0, 2, 3, 5, 4)]
    v2 = s6.index[(0, 1, 3, 2, 5, 4)]
    hom1, hom2 = (u1, u2), (v1, v2)
    orbit1 = orbit_of((u1, u2), s6.gen_conj)
    cert.add("distinct_in_omega", hom2 not in orbit1, {})
    star = Theta(2, 2, 2)
    sig1 = pointwise_signature(s6, hom1, star)
    sig2 = pointwise_signature(s6, hom2, star)
    cert.add("equal_in_omega_prime", sig1 == sig2, {"signature": list(sig1)})
    # the permutation-character divisors agree: 3[0] + [a] + [b] + [c]
    theta = Theta(2, 1, 2)
    div1 = _permutation_character_divisor(s6, hom1, theta)
    div2 = _permutation_character_divisor(s6, hom2, theta)
    expected = LatticeDivisor(
        theta, [theta.zero()] * 3 + [(1, 0), (0, 1), (1, 1)]
    )
    cert.add("kappa_pi_collision", div1 == div2 == expected,
             {"divisor": div1.text()})
    om, sigs, proj = enumerate_omega_prime(s6, 2, 2)
    cert.add("omega_surjects_onto_omega_prime",
             len(om) > len(sigs) and sorted(set(proj)) == list(range(len(sigs))),
             {"omega": len(om), "omega_prime": len(sigs)})
    return cert


def _permutation_character_divisor(model, hom, theta: Theta):
    """Fourier decomposition of the fixed-point character of a commuting
    pair of involutions acting on the permutation domain, over Z[zeta_2]."""
    images = [model.elements[g] for g in hom_images(model, hom, theta)]
    fixed = [(sum(g[i] == i for i in range(len(g))),) for g in images]
    return fourier_inverse(theta, Cyclo(2), [fixed])[0]


def criterion_11_properties(seed: int = 20260811) -> Certificate:
    cert = Certificate("acceptance-11-properties", {"seed": seed})
    rng = random.Random(seed)
    theta = Theta(2, 1, 2)
    pts = theta.points()

    def rand_div(max_dim=5):
        d = rng.randint(0, max_dim)
        return LatticeDivisor(theta, [rng.choice(pts) for _ in range(d)])

    one = LatticeDivisor(theta, [theta.zero()])

    def semiring(case) -> bool:
        D, E, F = case
        return (
            (D + E) + F == D + (E + F)
            and D + E == E + D
            and (D * E) * F == D * (E * F)
            and D * E == E * D
            and D * (E + F) == D * E + D * F
            and D * one == D and D + LatticeDivisor(theta) == D
        )

    triples = ((rand_div(), rand_div(), rand_div()) for _ in range(200))
    cert.add_cases("semiring_axioms", triples, semiring, {"samples": 200})

    dims4 = [c for d in range(0, 5) for c in combinations_with_replacement(pts, d)]

    def lambda_cases():
        for _ in range(400):
            D = LatticeDivisor(theta, rng.choice(dims4))
            E = LatticeDivisor(theta, rng.choice(dims4))
            yield D, E, rng.randint(0, D.dim() + E.dim())

    def lambda_addition(case) -> bool:
        D, E, k = case
        total = sum((D.lam(i) * E.lam(k - i) for i in range(k + 1)), LatticeDivisor(theta))
        return (D + E).lam(k) == total

    cert.add_cases("lambda_addition_law", lambda_cases(), lambda_addition, {"samples": 400})

    def psi_cases():
        for _ in range(200):
            D, E = rand_div(4), rand_div(4)
            yield D, E, rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)

    def psi_laws(case) -> bool:
        D, E, j, k, r = case
        return (
            (D * E).psi(k) == D.psi(k) * E.psi(k)
            and D.psi(j).psi(k) == D.psi(j * k)
            and D.lam(r).psi(k) == D.psi(k).lam(r)
        )

    cert.add_cases(
        "psi_semiring_and_commutes_with_lambda", psi_cases(), psi_laws, {"samples": 200}
    )

    def pv_cases():
        for v in (1, 2):
            th = Theta(2, v, 2)
            pv = th.points()
            for _ in range(100):
                d = rng.randint(0, 4)
                yield LatticeDivisor(th, [rng.choice(pv) for _ in range(d)])

    def collapses(D) -> bool:
        th = D.theta
        return D.psi(2 ** th.v) == LatticeDivisor.from_counts(th, {th.zero(): D.dim()})

    cert.add_cases("psi_pv_collapses_to_origin", pv_cases(), collapses)

    # rank-one positivity, brute force over Theta(1), dims <= 3
    def rank_one_only_at_points(E) -> bool:
        e = E.dim() - 1
        # D = E - e[0] has lambda^k(D) = 0 for k > 1 iff lambda^k(E) =
        # C(e,k)[0] + C(e,k-1) D for every k; compare multiset-wise after
        # moving the virtual part C(e,k-1) e[0] left
        for k in range(0, e + 2):
            lin = comb(e, k - 1) if k >= 1 else 0
            if E.lam(k) + lin * e * one != comb(e, k) * one + lin * E:
                return True
        # D = E - e[0] must be an honest point; its multiplicities sum to
        # dim(E) - e = 1 and only the origin's can be negative
        return E.counts().get(theta.zero(), 0) >= e

    combos = (c for d in range(1, 4) for c in combinations_with_replacement(pts, d))
    cert.add_cases("rank_one_positivity", (LatticeDivisor(theta, c) for c in combos),
                   rank_one_only_at_points)

    # Newton round trips on the order-24 symmetric group ring
    ring = RepRing(table_sigma4())

    def newton_cases():
        for _ in range(40):
            coeffs = [rng.randint(0, 2) for _ in range(ring.h)]
            if sum(c * d for c, d in zip(coeffs, ring.dims)) <= 6 and any(coeffs):
                yield ring.from_coeffs(coeffs)

    def newton_round_trip(v) -> bool:
        lams = ring.lambda_series(v)[1:]
        count = len(lams)
        psis = [ring.adams(v, k) for k in range(1, count + 1)]
        return newton_lambda_to_psi(lams, count) == psis and newton_psi_to_lambda(
            psis, count, divide=lambda x, k: x.divide_exact(k)
        ) == lams

    cert.add_cases("newton_round_trips", newton_cases(), newton_round_trip)

    # Frobenius: c_k(psi^p D) = c_k(D)^{p^n} for split divisors
    law = honda_fgl(2, 2, 32)
    A = cap_ring(GF(4), ["x", "y"], [4, 4])
    xs = [A.gen("x"), A.gen("y"), A.reduce(A.gen("x") * A.gen("y"))]

    def rand_roots(count):
        return ([rng.choice(xs) for _ in range(rng.randint(1, 3))] for _ in range(count))

    def frobenius(roots) -> bool:
        D = divisor_from_roots(A, law, roots)
        lhs = divisor_psi(D, 2)
        return list(lhs.coeffs) == [A.pow(c, 4) for c in D.coeffs] and lhs == (
            divisor_from_roots(A, law, [law.mul_in_ring(2, r, A) for r in roots])
        )

    cert.add_cases("frobenius_psi_p", rand_roots(20), frobenius)

    # a_j(D) = xi(lambda^j D) over the multiplicative law
    mult = multiplicative_fgl(2, 32)

    def units_match_lambda(roots) -> bool:
        D = divisor_from_roots(A, mult, roots)
        d = len(roots)
        units = [A.reduce(A.ring.one() - rt) for rt in roots]
        # units are 1 - root; xi of the lambda divisor is
        # C(d,j) - e_1(lambda roots) = C(d,j) + c_1(lambda^j D)
        return all(
            A.reduce(unit_elementary(units, j))
            == A.reduce(A.ring.from_int(comb(d, j)) + divisor_lambda(D, j).coeffs[0])
            for j in range(1, d + 1)
        )

    cert.add_cases("unit_symmetric_functions_match_lambda", rand_roots(30), units_match_lambda)

    # cardinality chain on builtin groups
    chain_witness = {}
    for name, p, n in (
        ("trivial", 2, 2),
        ("c2", 2, 2),
        ("c4", 2, 2),
        ("c2xc2", 2, 2),
        ("sigma3", 3, 2),
        ("sigma4", 2, 2),
        ("extraspecial(3,1)", 3, 1),
    ):
        model = builtin_model(name)
        om = enumerate_omega(model, p, n)
        _, sigs, _ = enumerate_omega_prime(model, p, n)
        och_count = len(enumerate_omega_ch(RepRing(builtin_group(name)), p, n))
        dp_count = len(enumerate_omega_dprime(model, p, n)[1])
        chain_witness[name] = [len(om), len(sigs), och_count, dp_count]
    cert.add_cases("cardinality_chain", chain_witness.items(),
                   lambda item: item[1][0] >= item[1][1] <= item[1][2] <= item[1][3],
                   {"counts": chain_witness})

    # dim Z(v,d) = p^{ndv}
    def z_vd_dimension(nvd) -> bool:
        n, v, d = nvd
        p = 2
        names = [f"c{i}" for i in range(1, d + 1)]
        return cap_ring(GF(p), names, [p ** (n * v)] * d).dimension() == p ** (n * d * v)

    cert.add_cases("z_vd_dimension", ((2, 1, 1), (2, 1, 2)), z_vd_dimension)

    # xi injectivity and compatibility on the small symmetric groups
    t3 = table_sigma3()
    och3 = enumerate_omega_ch(RepRing(t3), 3, 2)
    xis = set(xi_class_maps(och3, t3))
    cert.add("xi_injective_sigma3", len(xis) == len(och3), {})
    s4 = model_symmetric(4)
    t4 = table_sigma4()
    om4 = enumerate_omega(s4, 2, 2)
    star = Theta(2, 2, 2)
    cert.add_cases(
        "xi_after_kappa_is_canonical",
        zip(om4, xi_class_maps(kappa(t4, om4, 2, 2), t4)),
        lambda case: case[1] == pointwise_signature(s4, case[0], star),
    )
    return cert


def criterion_12_abelian() -> Certificate:
    cert = Certificate("acceptance-12-abelian", {"p": 2, "n": 2})
    cases = {
        "c2": (table_cyclic(2), [2]),
        "c4": (table_cyclic(4), [4]),
        "c2xc2": (table_cyclic_product(2, 2), [2, 2]),
    }
    for name, (table, invariants) in cases.items():
        ring = RepRing(table)
        och = enumerate_omega_ch(ring, 2, 2)
        v = 1
        for m in invariants:
            while 2 ** v < m:
                v += 1
        theta = Theta(2, v, 2)
        hom_count = 1
        for m in invariants:
            hom_count *= sum(
                1 for pt in theta.points() if theta.scale(m, pt) == theta.zero()
            )
        cert.add(
            f"abelian_oracle_{name}",
            len(och) == hom_count,
            {"omega_ch": len(och), "hom_count": hom_count},
        )
    return cert


ALL_CRITERIA = [
    criterion_1_fgl_height2_p2,
    criterion_2_fgl_height2_p3,
    criterion_3_sigma3,
    criterion_4_sigma4,
    criterion_5_sigma4_census,
    criterion_6_sdiv,
    criterion_7_lambda_rho,
    criterion_8_xspec,
    criterion_9_witness,
    criterion_10_sigma6,
    criterion_11_properties,
    criterion_12_abelian,
]


def run_all() -> list[Certificate]:
    return [fn() for fn in ALL_CRITERIA]
