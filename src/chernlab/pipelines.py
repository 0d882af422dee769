"""End-to-end verification pipelines emitting certificates.

Each pipeline reproduces one cluster of worked computations: the three-symbol
symmetric group over F_3, the special-divisor expansions, the non-positive
divisor witness, and the full order-24 symmetric group computation over F_4
(joint injectivity, the coefficient identities for translated divisors, the
relation rescalings, the Groebner basis with its 17 standard monomials and
Gorenstein socle, and the Klein-subgroup restriction of c_3).
"""

from __future__ import annotations

from .cert import Certificate
from .divisor import (
    DivisorPoly,
    divisor_from_roots,
    divisor_lambda,
    divisor_mul,
    divisor_psi,
    tpoly_mul,
)
from .errors import ValidationError
from .fgl import honda_fgl
from .field import GF
from .groebner import (
    GroebnerBasis,
    QuotientRing,
    _field_kernel,
    assert_groebner,
    buchberger,
    cap_ring,
    normal_form,
    standard_monomials,
)
from .groups import model_symmetric
from .lattice import LatticeDivisor, Theta
from .omega import enumerate_omega, enumerate_omega_ch, kappa
from .poly import PolyRing, parse_poly
from .presentation import build_presentation
from .repring import RepRing, table_sigma3
from .symfunc import symmetrize


# ---------------------------------------------------------------------------
# the symmetric group on three symbols at p = 3
# ---------------------------------------------------------------------------

def sigma3_pipeline() -> Certificate:
    cert = Certificate("sigma3", {"p": 3, "n": 2})
    law = honda_fgl(3, 2, 64)
    rep = RepRing(table_sigma3())

    pres = build_presentation(rep, law)
    cert.add("presentation_dimension_5", pres.dimension() == 5,
             {"dimension": pres.dimension()})
    subs, core, iso = pres.elimination_summary()
    cert.add(
        "presentation_is_truncated_polynomial_ring",
        iso is not None and iso[0] == 3 and iso[2] == 5,
        {"eliminated": {k: v.text() for k, v in subs.items()},
         "core_variable": core, "iso": f"F_3[y]/y^5 via y={iso[1]}" if iso else None},
    )
    pres2 = build_presentation(rep, law, v=2)
    cert.add("dimension_stable_under_larger_v", pres2.dimension() == pres.dimension(),
             {"v2_dimension": pres2.dimension()})

    # coordinate checks for psi^2 on the rank-two special divisors:
    # the displayed expansion of [2](x), and (psi^2)*y - y = y^5 with
    # y = c_2([b]+[-b]).  (The unit multiplying y^5 is +1；the series
    # -x^2 - x^{10} equals y + y^5, not y - y^5.)
    U = cap_ring(GF(3), ["x"], [32])
    x = U.gen("x")
    two_x = law.mul_in_ring(2, x, U)
    expect_2x = U.reduce(-x + U.pow(x, 9))
    trunc12 = cap_ring(GF(3), ["x"], [12])  # U and trunc12 share the ring F_3[x]
    cert.add(
        "mul2_series_matches_mod_x12",
        trunc12.reduce(two_x) == trunc12.reduce(expect_2x),
        {"[2](x)": two_x.text(U.order)},
    )
    D = divisor_from_roots(U, law, [x, law.mul_in_ring(-1, x, U)])
    y = D.coeffs[1]
    psiD = divisor_psi(D, 2)
    y_psi = psiD.coeffs[1]
    lhs = trunc12.reduce(y_psi)
    minus_x2_minus_x10 = trunc12.reduce(
        -trunc12.pow(trunc12.gen("x"), 2) - trunc12.pow(trunc12.gen("x"), 10)
    )
    cert.add("psi2_y_expansion_mod_y6", lhs == minus_x2_minus_x10,
             {"y(psi2 D) mod x^12": lhs.text(trunc12.order)})
    delta = trunc12.reduce(lhs - y)
    y5 = trunc12.pow(trunc12.reduce(y), 5)
    cert.add("psi2_y_minus_y_is_unit_times_y5", delta == y5,
             {"difference": delta.text(trunc12.order), "y^5": y5.text(trunc12.order),
              "unit": 1})

    om = enumerate_omega(model_symmetric(3), 3, 2)
    och = enumerate_omega_ch(rep, 3, 2)
    cert.add("omega_count_5", len(om) == 5, {"count": len(om)})
    cert.add("omega_ch_count_5", len(och) == 5, {"count": len(och)})
    kimg = set(kappa(rep.table, om, 3, 2))
    cert.add("kappa_bijective", kimg == set(och), {})
    return cert


# ---------------------------------------------------------------------------
# special divisors: the rank-three C-invariant expansions at p = 2
# ---------------------------------------------------------------------------

def sdiv_checks() -> Certificate:
    cert = Certificate("sdiv", {"p": 2, "n": 2})
    law = honda_fgl(2, 2, 32)
    F4 = GF(4)
    B = cap_ring(F4, ["x", "y"], total=7)
    x, y = B.gen("x"), B.gen("y")
    xb = law.mul_in_ring(-1, x, B)
    yb = law.mul_in_ring(-1, y, B)
    z = law.add_in_ring(xb, yb, B)
    zb = law.mul_in_ring(-1, z, B)

    def t(s):
        return B.reduce(parse_poly(B.ring, s))

    cert.add("z_expansion", z == t("x + y + x^4 + x^2*y^2 + y^4"), {"z": z.text(B.order)})
    cert.add("xbar_expansion", xb == t("x + x^4"), {})
    cert.add("ybar_expansion", yb == t("y + y^4"), {})
    cert.add("zbar_expansion", zb == t("x + y + x^2*y^2"), {"zbar": zb.text(B.order)})

    c2 = B.reduce(x * y + y * z + z * x)
    c3 = B.reduce(B.mul(B.mul(x, y), z))
    cert.add(
        "c2_expansion",
        c2 == t("x^2 + x*y + y^2 + x^5 + x^4*y + x^3*y^2 + x^2*y^3 + x*y^4 + y^5"),
        {"c2": c2.text(B.order)},
    )
    cert.add(
        "c3_expansion",
        c3 == t("x^2*y + x*y^2 + x^5*y + x^3*y^3 + x*y^5"),
        {"c3": c3.text(B.order)},
    )
    c2b = B.reduce(xb * yb + yb * zb + zb * xb)
    c3b = B.reduce(B.mul(B.mul(xb, yb), zb))
    d2 = B.reduce(c2b - c2)
    d3 = B.reduce(c3b - c3)
    cert.add("c2bar_minus_c2", d2 == B.mul(c2, c3) and d2 == t("x^4*y + x*y^4"),
             {"value": d2.text(B.order)})
    cert.add("c3bar_minus_c3", d3 == B.mul(c3, c3) and d3 == t("x^4*y^2 + x^2*y^4"),
             {"value": d3.text(B.order)})
    ann = [B.mul(c3, B.mul(c2, c2)), B.mul(c3, B.mul(c2, c3)), B.mul(c3, B.mul(c3, c3))]
    cert.add("c3_times_ideal_squared_vanishes", all(not a for a in ann), {})

    # quotient structure: leading terms (c2*c3, c3^2) leave 1, c2, c2^2, ...
    # and c3 as the standard monomials
    ring = PolyRing(F4, ["c2", "c3"])
    gb = buchberger([parse_poly(ring, "c2*c3"), parse_poly(ring, "c3^2")], ring.lex())
    std = list(map(ring.exponents, standard_monomials(gb, cap=8)))
    expected = [(i, 0) for i in range(8)] + [(0, 1)]
    cert.add(
        "quotient_is_power_series_plus_socle_line",
        sorted(std) == sorted(expected)
        and all(lt != (1, 0) and lt[1] > 0 for lt in map(ring.exponents, gb.leading_terms)),
        {"standard_monomials_cap8": sorted(std)},
    )

    # c'_1 = c_1 modulo (c_1^2, c_2, ..., c_d) for d = 2, 3 (degree-7 shadow)
    for d in (2, 3):
        names = [f"x{i}" for i in range(1, d + 1)]
        T = cap_ring(F4, names, total=7)
        acc = T.ring.zero()
        for nm in names:
            acc = law.add_in_ring(acc, T.gen(nm), T)
        e_names = [f"e{i}" for i in range(1, d + 1)]
        e_ring = PolyRing(F4, e_names)
        sym = symmetrize(acc, e_ring)
        ideal = [parse_poly(e_ring, "e1^2")] + [e_ring.gen(n) for n in e_names[1:]]
        gb_e = buchberger(ideal, e_ring.lex())
        resid = normal_form(sym - e_ring.gen("e1"), gb_e)
        cert.add(f"c1prime_congruent_c1_degree{d}", resid.is_zero(),
                 {"c1prime_in_e": sym.text(e_ring.lex())})
    zero_sum = law.sum_in_ring([B.ring.zero()] * 3, B)
    cert.add("c1prime_of_zero_divisor", zero_sum.is_zero(), {})
    return cert


# ---------------------------------------------------------------------------
# the non-positive divisor witness
# ---------------------------------------------------------------------------

def nonpositive_divisor_witness(n: int = 2) -> Certificate:
    if n < 2:
        raise ValidationError("witness needs height at least 2")
    cert = Certificate("witness", {"p": 2, "n": n})
    law = honda_fgl(2, n, 32)
    theta = Theta(2, 1, n)
    a = theta.reduce((1,) + (0,) * (n - 1))
    b = theta.reduce((0, 1) + (0,) * (n - 2))
    c = theta.add(a, b)
    E = LatticeDivisor(theta, [a, b, c])
    cert.add("lattice_lambda2_fixes_E", E.lam(2) == E, {"E": E.text()})
    cert.add("lattice_lambda3_is_origin",
             E.lam(3) == LatticeDivisor(theta, [theta.zero()]), {})

    q = 2 ** n
    A = cap_ring(GF(2), ["y", "z"], [q, q])
    yv, zv = A.gen("y"), A.gen("z")
    s = law.add_in_ring(yv, zv, A)
    c3 = A.mul(A.mul(yv, zv), s)
    cert.add("scheme_c3_nonzero", bool(c3), {"c3": c3.text(A.order)})
    if n == 2:
        expected = A.reduce(parse_poly(A.ring, "y^2*z + y*z^2 + y^3*z^3"))
        cert.add("scheme_c3_expansion_n2", c3 == expected, {})
    diff = A.reduce(A.mul(A.pow(yv, 2), zv) - A.mul(yv, A.pow(zv, 2)))
    cert.add("y2z_differs_from_yz2", bool(diff), {})
    E_div = divisor_from_roots(A, law, [yv, zv, s])
    lam3 = divisor_lambda(E_div, 3)
    cert.add("scheme_lambda3_is_origin", all(not cc for cc in lam3.coeffs), {})
    lam2 = divisor_lambda(E_div, 2)
    cert.add("scheme_lambda2_fixes_E", lam2 == E_div, {})
    return cert


# ---------------------------------------------------------------------------
# the order-24 symmetric group over F_4
# ---------------------------------------------------------------------------

SIGMA4_R_EXPECT = {
    1: "c2^8 + c2^4*w^2",
    2: "c2^10 + c2^9*w^2 + c2^8*w + c2^4*w^3 + c2^4 + c2^3*w^2 + c2^2*w + c3*w^2",
    3: "c2^12 + c2^9 + c2^8*w^2 + c2^6 + c2^2*w^2",
    4: "c2^8*w^3 + c2^5 + c2^2*w^3 + c2*w^2 + c3*w",
}

# the unit rescalings r2' of r2 and r4' of r4
SIGMA4_R_PRIME = {
    2: "c2^4 + w^2*c2^3 + w*c2^2 + w^2*c3",
    4: "w*c2^3 + w^2*c2 + w*c3",
}

SIGMA4_STD_MONOMIALS = sorted(
    [(i, 0, k) for i in range(3) for k in range(4)]
    + [(3, 0, 0)]
    + [(0, 1, k) for k in range(4)]
)


def sigma4_pipeline() -> Certificate:
    cert = Certificate("sigma4", {"p": 2, "n": 2})
    law = honda_fgl(2, 2, 48)
    F4 = GF(4)

    ring = PolyRing(F4, ["c2", "c3", "w"])
    order = ring.lex()

    def pp(s):
        return parse_poly(ring, s)

    A = QuotientRing(buchberger([pp("w^4"), pp("c2^16"), pp("c3^2"), pp("c2*c3")], order))
    c2, c3, w = A.gen("c2"), A.gen("c3"), A.gen("w")
    c1 = A.reduce(c2 * c2 + A.pow(c2, 8))

    # (a) images under the two jointly injective evaluation maps
    U = cap_ring(F4, ["x"], [32])
    xU = U.gen("x")
    xbar = law.mul_in_ring(-1, xU, U)
    Dalpha = divisor_from_roots(U, law, [xU, xbar, U.ring.zero()])
    al = {1: Dalpha.coeffs[0], 2: Dalpha.coeffs[1], 3: Dalpha.coeffs[2]}
    cert.add("alpha_c1", al[1] == U.reduce(parse_poly(U.ring, "x^4 + x^10 + x^16 + x^22")),
             {"alpha(c1)": al[1].text(U.order)})
    cert.add("alpha_c2", al[2] == U.reduce(parse_poly(U.ring, "x^2 + x^5 + x^11 + x^17 + x^23")),
             {"alpha(c2)": al[2].text(U.order)})
    cert.add("alpha_c3", al[3].is_zero(), {})

    V = cap_ring(F4, ["x", "y"], [4, 4])
    xV, yV = V.gen("x"), V.gen("y")
    zV = law.add_in_ring(xV, yV, V)
    Dbeta = divisor_from_roots(V, law, [xV, yV, zV])
    bt = {1: Dbeta.coeffs[0], 2: Dbeta.coeffs[1], 3: Dbeta.coeffs[2]}
    cert.add("beta_c1", bt[1] == V.reduce(parse_poly(V.ring, "x^2*y^2")), {})
    cert.add(
        "beta_c2",
        bt[2] == V.reduce(parse_poly(V.ring, "x^2 + x*y + y^2 + x^3*y^2 + x^2*y^3")),
        {"beta(c2)": bt[2].text(V.order)},
    )
    cert.add(
        "beta_c3",
        bt[3] == V.reduce(parse_poly(V.ring, "x^2*y + x*y^2 + x^3*y^3")),
        {"beta(c3)": bt[3].text(V.order)},
    )

    # (b) c1 = c2^2 + c2^8 under both maps
    cert.add("alpha_c1_identity", al[1] == U.reduce(al[2] * al[2] + U.pow(al[2], 8)), {})
    cert.add("beta_c1_identity", bt[1] == V.reduce(bt[2] * bt[2] + V.pow(bt[2], 8)), {})

    # (c) joint injectivity on the 17-element basis {c2^i} u {c3}
    basis_images = []
    for i in range(16):
        basis_images.append((U.pow(al[2], i), V.pow(bt[2], i)))
    basis_images.append((al[3], bt[3]))
    cert.add("joint_injectivity_rank17", _jointly_independent(basis_images, F4),
             {"basis_size": len(basis_images)})

    # (d) the translated-divisor coefficient identities, under both maps and
    # directly in the working ring via the splitting tower
    D = DivisorPoly(A, law, [c1, c2, c3])
    Dd = divisor_from_roots(A, law, [w])
    dD = divisor_mul(Dd, D)
    cert.add("cdD_ambient", list(dD.coeffs) == _cdD_expected(A, c2, c3, w),
             {"c3([d]D)": dD.coeffs[2].text(order)})
    cert.add("cdD_alpha", _cdD_under_map(law, F4, "alpha"), {})
    cert.add("cdD_beta", _cdD_under_map(law, F4, "beta"), {})

    # (e) g(t) = f_D f_{psi2 D} - t^2 (t+w) f_{[d]D} and its coefficients
    psiD = divisor_psi(D, 2)
    cert.add("psi2_is_coefficient_frobenius",
             list(psiD.coeffs) == [A.pow(cc, 4) for cc in D.coeffs], {})
    fD = D.poly_coeffs()
    fpsi = psiD.poly_coeffs()
    fdD = dD.poly_coeffs()
    lhs = tpoly_mul(A, fD, fpsi)
    rhs = tpoly_mul(A, [A.ring.one(), w, A.ring.zero(), A.ring.zero()], fdD)  # t^2 (t+w)
    g = [A.reduce(a - b) for a, b in zip(lhs, rhs)]
    cert.add("g_t6_vanishes", g[0].is_zero(), {})
    rvals = {}
    for k in range(1, 5):
        rvals[k] = g[k]
        expected = A.reduce(pp(SIGMA4_R_EXPECT[k]))
        match = g[k] == expected and g[k].text(order) == expected.text(order)
        cert.add(f"r{k}_bytematch", match, {f"r{k}": g[k].text(order)})
    cert.add("g_low_coefficients_vanish", g[5].is_zero() and g[6].is_zero(), {})

    # (f) unit rescalings and redundancy identities
    unit2 = A.reduce(A.ring.one() + A.pow(c2, 6) + A.pow(c2, 12) + A.pow(w, 3))
    r2p = A.mul(unit2, rvals[2])
    r2p_closed = A.reduce(pp(SIGMA4_R_PRIME[2]))
    cert.add("r2_rescaled", r2p == r2p_closed, {"r2'": r2p.text(order)})
    mult4 = A.reduce(c2 + A.pow(w, 2) + A.mul(A.pow(c2, 4), A.pow(w, 3)))
    r4p = A.reduce(rvals[4] + A.mul(mult4, r2p))
    r4p_closed = A.reduce(pp(SIGMA4_R_PRIME[4]))
    cert.add("r4_rescaled", r4p == r4p_closed, {"r4'": r4p.text(order)})

    B4 = QuotientRing(buchberger([pp("w^4")], order))
    r2pB = B4.reduce(pp(SIGMA4_R_PRIME[2]))
    r1B = B4.reduce(pp(SIGMA4_R_EXPECT[1]))
    cert.add("r2prime_squared_is_r1", B4.mul(r2pB, r2pB) == r1B, {})
    cert.add("r2prime_fourth_is_c2_16",
             B4.pow(r2pB, 4) == B4.reduce(pp("c2^16")), {})
    # the factorization exhibiting r3 as redundant lives in the working
    # quotient (it uses c2^16 = 0, itself redundant via (r2')^4)
    one = A.ring.one()
    inner = A.reduce(
        one + A.mul(A.reduce(one + A.pow(c2, 6)),
                    A.reduce(A.pow(w, 3) + A.mul(A.pow(c2, 2), A.pow(w, 2))))
    )
    combo = A.reduce(
        A.mul(A.reduce(one + A.pow(c2, 3) + A.pow(c2, 6)),
              A.reduce(A.mul(A.mul(A.pow(c2, 2), inner), A.reduce(r2p_closed))
                       + A.mul(c2, A.reduce(r4p_closed))))
    )
    r3A = A.reduce(pp(SIGMA4_R_EXPECT[3]))
    cert.add("r3_factorization", r3A == combo,
             {"r3": r3A.text(order), "combination": combo.text(order)})

    # (g) the Groebner basis, standard monomials, socle
    five = [pp("w^4"), pp("c3^2"), pp("c2*c3"), pp(SIGMA4_R_PRIME[2]), pp(SIGMA4_R_PRIME[4])]
    try:
        assert_groebner(GroebnerBasis(ring, order, five))
        syzygies_ok = True
    except AssertionError:
        syzygies_ok = False
    cert.add("five_generators_all_syzygies_reduce", syzygies_ok, {})
    gb = buchberger(five, order)
    assert_groebner(gb)
    same_lts = sorted(gb.leading_terms) == sorted(
        g.leading(order)[0] for g in five
    )
    cert.add("interreduction_preserves_leading_terms", same_lts,
             {"reduced_basis": [p.text(order) for p in gb.polys]})
    big = [pp("w^4"), pp("c2^16"), pp("c3^2"), pp("c2*c3")] + [
        parse_poly(ring, SIGMA4_R_EXPECT[k]) for k in range(1, 5)
    ]
    gb_big = buchberger(big, order)
    cert.add("original_relations_define_same_ideal",
             [p.text(order) for p in gb_big.polys] == [p.text(order) for p in gb.polys], {})
    r3_plain = parse_poly(ring, SIGMA4_R_EXPECT[3])
    cert.add("r3_reduces_to_zero", normal_form(r3_plain, gb).is_zero(), {})
    Q = QuotientRing(gb)
    std = Q.std_monomials()
    cert.add("seventeen_standard_monomials", sorted(std) == SIGMA4_STD_MONOMIALS,
             {"count": len(std)})
    socle = Q.socle()
    w3c3 = Q.reduce(pp("w^3*c3"))
    cert.add("socle_generated_by_w3c3",
             len(socle) == 1 and socle[0] == w3c3,
             {"socle": [s.text(order) for s in socle]})
    cert.add("gorenstein", Q.is_gorenstein(), {})

    # (h) restriction of c3 to the Klein subgroup
    res = V.reduce(V.mul(V.mul(xV, yV), zV))
    cert.add("restriction_of_c3",
             res == V.reduce(parse_poly(V.ring, "x^2*y + x*y^2 + x^3*y^3")),
             {"res(c3)": res.text(V.order)})
    return cert


def _jointly_independent(pairs, field) -> bool:
    """Rank of the combined (alpha, beta) images equals the number of rows."""
    cols: dict = {}
    rows = []
    for u_img, v_img in pairs:
        row: dict = {}
        for e, c in u_img.terms.items():
            row[("U", e)] = c
        for e, c in v_img.terms.items():
            row[("V", e)] = c
        for key in row:
            cols.setdefault(key, len(cols))
        rows.append(row)
    mat = [[0] * len(cols) for _ in rows]
    for r, row in enumerate(rows):
        for key, c in row.items():
            mat[r][cols[key]] = c
    # left kernel must be trivial
    transpose = [[mat[r][c] for r in range(len(rows))] for c in range(len(cols))]
    return not _field_kernel(transpose, len(rows), field)


def _cdD_under_map(law, F4, which: str) -> bool:
    """Verify the translated-divisor identities after the alpha or beta map."""
    if which == "alpha":
        R = cap_ring(F4, ["w", "x"], [4, 32])
        wv, xv = R.gen("w"), R.gen("x")
        xb = law.mul_in_ring(-1, xv, R)
        roots = [law.add_in_ring(wv, xv, R), law.add_in_ring(wv, xb, R), wv]
        c2_img = R.reduce(xv * xb)
        c3_img = R.ring.zero()
    else:
        R = cap_ring(F4, ["w", "x", "y"], [4, 4, 4])
        wv, xv, yv = R.gen("w"), R.gen("x"), R.gen("y")
        zv = law.add_in_ring(xv, yv, R)
        roots = [law.add_in_ring(wv, xv, R), law.add_in_ring(wv, yv, R),
                 law.add_in_ring(wv, zv, R)]
        c2_img = R.reduce(xv * yv + yv * zv + zv * xv)
        c3_img = R.reduce(R.mul(R.mul(xv, yv), zv))
    D_img = divisor_from_roots(R, law, roots)
    return list(D_img.coeffs) == _cdD_expected(R, c2_img, c3_img, wv)


def _cdD_expected(R, c2, c3, w) -> list:
    """The expected c_1, c_2, c_3 of [w] D (roots w +_F r_i), D having
    coefficients c2^2 + c2^8, c2 and c3, written out over the quotient R."""

    def c2p(k):
        return R.pow(c2, k)

    one = R.ring.one()
    return [
        R.reduce(c2p(2) + c2p(8) + w + R.mul(c2p(4), R.pow(w, 2))),
        R.reduce(c2 + R.mul(R.reduce(one + c2p(3) + c2p(9) + c3), R.pow(w, 2))),
        R.reduce(c3 + R.mul(c2, w) + R.mul(R.reduce(c2p(2) + c2p(8)), R.pow(w, 2))
                 + R.mul(R.reduce(one + c3 + c2p(3) + c2p(9)), R.pow(w, 3))),
    ]
