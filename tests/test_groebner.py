import random

import pytest

from chernlab import cli, groebner
from chernlab.divisor import SplitTower
from chernlab.errors import InfiniteDimensional, NotLocal, ResourceLimit, ValidationError
from chernlab.field import GF
from chernlab.groebner import (
    COUNTS,
    QuotientRing,
    assert_groebner,
    buchberger,
    cap_ring,
    normal_form,
    standard_monomials,
)
from chernlab.poly import PolyRing, grlex_order, parse_poly


def gb_of(ring, texts, order=None):
    order = order or ring.lex()
    return buchberger([parse_poly(ring, t) for t in texts], order)


def test_single_generator_is_its_own_basis():
    ring = PolyRing(GF(2), ["x", "y"])
    gb = gb_of(ring, ["x"])
    assert [p.text(ring.lex()) for p in gb.polys] == ["x"]


def test_two_generator_example_f3():
    ring = PolyRing(GF(3), ["x", "y"])
    gb = gb_of(ring, ["x^2 + y", "y^2"])
    assert sorted(p.text(ring.lex()) for p in gb.polys) == ["x^2 + y", "y^2"]
    assert_groebner(gb)


def test_normal_form_single_step():
    ring = PolyRing(GF(3), ["x", "y"])
    gb = gb_of(ring, ["x^2 + 2*y"])  # x^2 - y
    assert normal_form(parse_poly(ring, "x^2"), gb).text() == "y"


def test_normal_form_properties():
    ring = PolyRing(GF(3), ["x", "y"])
    gb = gb_of(ring, ["x^2 + y", "y^2"])
    rng = random.Random(3)
    zero = ring.zero()
    assert normal_form(zero, gb) == zero
    for _ in range(30):
        p = ring.zero()
        for _ in range(4):
            p = p + ring.monomial(
                (rng.randrange(4), rng.randrange(4)), rng.randrange(1, 3)
            )
        nf = normal_form(p, gb)
        # idempotent, and no monomial divisible by a leading term
        assert normal_form(nf, gb) == nf
        for e in map(ring.exponents, nf.terms):
            assert not any(
                all(x <= y for x, y in zip(lt, e)) for lt in map(ring.exponents, gb.leading_terms)
            )
        # p - nf lies in the ideal
        assert normal_form(p - nf, gb) == zero


def test_normal_form_uniqueness_on_cosets():
    ring = PolyRing(GF(3), ["x", "y"])
    gb = gb_of(ring, ["x^2 + y", "y^2"])
    rng = random.Random(9)
    for _ in range(20):
        p = ring.zero()
        for _ in range(3):
            p = p + ring.monomial((rng.randrange(3), rng.randrange(3)), rng.randrange(1, 3))
        shift = gb.polys[0] * ring.monomial((rng.randrange(2), rng.randrange(2)))
        assert normal_form(p, gb) == normal_form(p + shift, gb)


def standard_exponents(gb, cap=None):
    return [gb.ring.exponents(m) for m in standard_monomials(gb, cap)]


def test_standard_monomials_of_monomial_ideal():
    ring = PolyRing(GF(2), ["x", "y"])
    gb = gb_of(ring, ["x^2", "x*y", "y^3"])
    assert standard_exponents(gb) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert QuotientRing(gb).std_monomials() == standard_exponents(gb)


def test_standard_monomials_trivial():
    ring = PolyRing(GF(2), ["x"])
    gb = gb_of(ring, ["x"])
    assert standard_exponents(gb) == [(0,)]


def test_standard_monomials_of_the_unit_ideal():
    # a constant leading term divides every monomial, though no pure power bounds x or y
    ring = PolyRing(GF(5), ["x", "y"])
    gb = gb_of(ring, ["x*y+1", "3"])
    assert gb.leading_terms == [0]
    assert standard_monomials(gb) == [] and standard_monomials(gb, cap=3) == []
    # the zero ring: no basis, every variable is 0, so nilpotent, and the socle is 0
    zero = QuotientRing(gb)
    assert zero.dimension() == 0 and zero.socle() == [] and not zero.is_gorenstein()


def test_standard_monomials_infinite_reported():
    ring = PolyRing(GF(2), ["x", "y"])
    gb = gb_of(ring, ["x*y"])
    with pytest.raises(InfiniteDimensional):
        standard_monomials(gb)
    capped = standard_exponents(gb, cap=3)
    assert (2, 0) in capped and (0, 2) in capped and (1, 1) not in capped


def test_standard_monomial_ceiling_bounds_the_box(monkeypatch):
    ring = PolyRing(GF(2), ["x", "y"])
    with pytest.raises(ResourceLimit, match="ceiling 1048576 exceeded by 1049600 cells"):
        standard_monomials(gb_of(ring, ["x^1025", "y^1024"]))
    # the box, not the count of standard monomials, is bounded
    monkeypatch.setattr(groebner, "STANDARD_MONOMIALS_CEILING", 12)
    assert len(standard_monomials(gb_of(ring, ["x^3", "y^4", "x*y"]))) == 6
    with pytest.raises(ResourceLimit):
        standard_monomials(gb_of(ring, ["x^3", "y^5", "x*y"]))


def test_dimension_agrees_with_multiplication_closure():
    # dim = rank of the span of 1 under repeated multiplication by variables
    ring = PolyRing(GF(2), ["x", "y"])
    q = QuotientRing(gb_of(ring, ["x^3 + y", "y^2 + x*y"]))
    std = q.std_monomials()
    span = {q.ring.one().text(q.order)}
    frontier = [q.ring.one()]
    while frontier:
        elem = frontier.pop()
        for v in ring.variables:
            nxt = q.mul(elem, ring.gen(v))
            for e in nxt.terms:
                m = ring.monomial(ring.exponents(e))
                if m.text(q.order) not in span:
                    span.add(m.text(q.order))
                    frontier.append(m)
    assert len(span) == len(std)


def test_quotient_multiplication_associative():
    ring = PolyRing(GF(3), ["x", "y"])
    q = QuotientRing(gb_of(ring, ["x^3", "y^3", "x*y^2 + x^2"]))
    rng = random.Random(17)
    elems = []
    for _ in range(6):
        p = ring.zero()
        for _ in range(3):
            p = p + ring.monomial((rng.randrange(3), rng.randrange(3)), rng.randrange(1, 3))
        elems.append(q.reduce(p))
    for a in elems:
        for b in elems:
            for c in elems:
                assert q.mul(q.mul(a, b), c) == q.mul(a, q.mul(b, c))


def test_socle_univariate():
    ring = PolyRing(GF(3), ["x"])
    q = QuotientRing(gb_of(ring, ["x^2"]))
    assert [s.text() for s in q.socle()] == ["x"]
    assert q.is_gorenstein()


def test_socle_two_variables():
    ring = PolyRing(GF(2), ["x", "y"])
    q = QuotientRing(gb_of(ring, ["x^2", "y^2"]))
    assert [s.text() for s in q.socle()] == ["x*y"]
    assert q.is_gorenstein()


def test_socle_non_gorenstein():
    ring = PolyRing(GF(2), ["x", "y"])
    q = QuotientRing(gb_of(ring, ["x^2", "x*y", "y^2"]))
    socle = q.socle()
    assert len(socle) == 2  # both x and y annihilate the maximal ideal
    assert not q.is_gorenstein()


def test_socle_requires_a_local_ring():
    # x^2 = x in F_2[x]/(x^2 + x), so x is an idempotent, not nilpotent
    ring = PolyRing(GF(2), ["x"])
    q = QuotientRing(gb_of(ring, ["x^2 + x"]))
    with pytest.raises(NotLocal, match="'x' is not nilpotent"):
        q.socle()


def test_socle_requires_finite_dimension():
    ring = PolyRing(GF(2), ["x", "y"])
    q = QuotientRing(gb_of(ring, ["x*y"]))
    with pytest.raises(InfiniteDimensional):
        q.socle()


def test_cap_ring_dimensions():
    assert cap_ring(GF(2), ["x", "y"], [4, 4]).dimension() == 16
    assert cap_ring(GF(2), ["x", "y"], total=7).dimension() == 28
    assert cap_ring(GF(3), ["x", "y", "z"], total=7).dimension() == 84
    assert cap_ring(GF(2), []).dimension() == 1


@pytest.mark.parametrize("caps,total", [
    ([4, 4, 2], None),
    ([], 5),
    ([3, 6, 2], 4),
    ([1, 4, 3], 3),
    ([0, 4, 3], None),
    ([5, 2, 1], 2),
])
def test_cap_ring_is_the_reduced_basis_of_its_monomials(monkeypatch, caps, total):
    names = ["x", "y", "z"]
    ring = PolyRing(GF(3), names)
    gens = [ring.gen(name) ** c for name, c in zip(names, caps)]
    if total is not None:
        gens += [ring.monomial((a, b, total - a - b))
                 for a in range(total + 1) for b in range(total + 1 - a)]
    expected = buchberger(gens, ring.lex()).polys

    def no_buchberger(*args):
        raise AssertionError("cap_ring ran buchberger")
    monkeypatch.setattr(groebner, "buchberger", no_buchberger)
    capped = cap_ring(GF(3), names, caps, total)
    assert capped.basis.polys == expected
    assert_groebner(capped.basis)


def test_cap_ring_with_no_relations_has_an_empty_basis():
    # buchberger refuses an empty generator list
    with pytest.raises(ValidationError):
        buchberger([], PolyRing(GF(2), []).lex())
    assert len(cap_ring(GF(2), []).basis) == 0
    assert len(cap_ring(GF(2), ["x", "y"]).basis) == 0


# -- oracle: textbook Buchberger, no criteria, least pair first ---------------

F7_LEX_IDEAL = ["x^2+4*y*z+4*z+6", "y^3+2*x*z+1", "z^3+3*x*y+y+6"]


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def leading_exp(p, order):
    # lex and grlex restated on exponent tuples, the first variable most significant
    exps = map(p.ring.exponents, p.terms)
    if order.kind == "grlex":
        return max(exps, key=lambda e: (sum(e), e))
    return max(exps)


def textbook_reduce(p, divisors, order):
    """Remainder of p on division by monic divisors, largest term first."""
    ring = p.ring
    remainder = ring.zero()
    lts = [leading_exp(g, order) for g in divisors]
    while p:
        e = leading_exp(p, order)
        c = p.terms[ring.pack(e)]
        for lt, g in zip(lts, divisors):
            if divides(lt, e):
                p = p - g * ring.monomial(tuple(x - y for x, y in zip(e, lt)), c)
                break
        else:
            remainder = remainder + ring.monomial(e, c)
            p = p - ring.monomial(e, c)
    return remainder


def textbook_buchberger(gens, order):
    """Reduced Groebner basis, as the list of texts of its members, by
    all-pairs Buchberger with no criterion and the least pending pair first."""
    basis = [g.monic(order) for g in gens if g]
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        i, j = min(pairs)
        pairs.discard((i, j))
        f, g = basis[i], basis[j]
        lf, lg = leading_exp(f, order), leading_exp(g, order)
        lcm = tuple(max(a, b) for a, b in zip(lf, lg))
        ring = f.ring
        s = (f * ring.monomial(tuple(a - b for a, b in zip(lcm, lf)))
             - g * ring.monomial(tuple(a - b for a, b in zip(lcm, lg))))
        r = textbook_reduce(s, basis, order)
        if r:
            basis.append(r.monic(order))
            pairs |= {(k, len(basis) - 1) for k in range(len(basis) - 1)}
    minimal = []
    for g in basis:
        lt = leading_exp(g, order)
        if not any(divides(leading_exp(h, order), lt) for h in minimal):
            minimal = [h for h in minimal if not divides(lt, leading_exp(h, order))]
            minimal.append(g)
    reduced = [textbook_reduce(g, minimal[:k] + minimal[k + 1:], order).monic(order)
               for k, g in enumerate(minimal)]
    reduced.sort(key=lambda g: order.key(g.ring.pack(leading_exp(g, order))), reverse=True)
    return [g.text(order) for g in reduced]


def random_ideal(rng, ring):
    gens = []
    for _ in range(rng.randrange(2, 4)):
        p = ring.zero()
        for _ in range(rng.randrange(2, 4)):
            exps = tuple(rng.randrange(6 - ring.nvars) for _ in range(ring.nvars))
            p = p + ring.monomial(exps, rng.randrange(1, ring.field.q))
        gens.append(p)
    return gens


def oracle_cases():
    f7 = PolyRing(GF(7), ["x", "y", "z"])
    yield [parse_poly(f7, t) for t in F7_LEX_IDEAL], f7.lex()
    caps = PolyRing(GF(2), ["x", "y"])
    yield [parse_poly(caps, t) for t in ["x^5", "y^4"]], caps.lex()
    total = PolyRing(GF(3), ["x", "y", "z"])
    yield ([parse_poly(total, t) for t in ["x^3", "x^2*y", "x*y*z", "y^3", "z^3"]],
           grlex_order(total.nvars))
    rng = random.Random(2027)
    for k in range(20):
        ring = PolyRing(GF((2, 3, 4)[k % 3]), ["x", "y", "z"][: 2 + k % 2])
        order = ring.lex() if k % 4 < 2 else grlex_order(ring.nvars)
        yield random_ideal(rng, ring), order
    # a repeated leading term, a leading term that divides another, a unit
    f3 = PolyRing(GF(3), ["x", "y"])
    yield [parse_poly(f3, t) for t in ["x^2+y", "x^2+1"]], f3.lex()
    yield [parse_poly(f3, t) for t in ["x^2+y", "x^2", "x^3+y^2"]], f3.lex()
    f5 = PolyRing(GF(5), ["x", "y"])
    yield [parse_poly(f5, t) for t in ["x*y+1", "3"]], f5.lex()


@pytest.mark.parametrize("case", range(26))
def test_buchberger_matches_textbook_oracle(case):
    gens, order = list(oracle_cases())[case]
    gb = buchberger(gens, order)
    assert [g.text(order) for g in gb.polys] == textbook_buchberger(gens, order)


def test_counts_add_up_and_chain_criterion_fires():
    before = dict(COUNTS)
    gb_of(PolyRing(GF(7), ["x", "y", "z"]), F7_LEX_IDEAL)
    run = {key: COUNTS[key] - before[key] for key in COUNTS}
    assert run["chain"] > 0
    assert run["pairs"] == run["product"] + run["chain"] + run["reduced"]
    assert 0 < run["zero"] <= run["reduced"]
    # the exact counts pin the pair sequence
    assert run == {"pairs": 325, "product": 63, "chain": 226, "reduced": 36, "zero": 13}


def test_pair_ceiling_raises_and_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(groebner, "BUCHBERGER_PAIRS", 5)
    with pytest.raises(ResourceLimit):
        gb_of(PolyRing(GF(7), ["x", "y", "z"]), F7_LEX_IDEAL)
    code = cli.run(["groebner", "--q", "7", "--vars", "x,y,z", "--gens", ";".join(F7_LEX_IDEAL)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: Buchberger pair ceiling 5")
    assert captured.err.count("\n") == 1


def test_reduction_ceiling_raises_and_exits_2(monkeypatch, capsys):
    # the F_7 ideal pushes 7105 terms; the count is the same with a budget
    # of exactly that, one step at a time
    monkeypatch.setattr(groebner, "REDUCTION_TERMS", 7105)
    gb_of(PolyRing(GF(7), ["x", "y", "z"]), F7_LEX_IDEAL)
    monkeypatch.setattr(groebner, "REDUCTION_TERMS", 7104)
    with pytest.raises(ResourceLimit, match="reduction ceiling 7104 terms exceeded"):
        gb_of(PolyRing(GF(7), ["x", "y", "z"]), F7_LEX_IDEAL)
    code = cli.run(["groebner", "--q", "7", "--vars", "x,y,z", "--gens", ";".join(F7_LEX_IDEAL)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: Buchberger reduction ceiling 7104 terms exceeded\n"
    # a quotient ring's normal forms are not bounded
    q = cap_ring(GF(7), ["x"], [3])
    monkeypatch.setattr(groebner, "REDUCTION_TERMS", 0)
    assert q.pow(q.gen("x"), 2).text() == "x^2" and q.basis.budget == float("inf")


def test_generator_degree_ceiling_is_inclusive(monkeypatch, capsys):
    # the total degree of each generator, x^2*y being 3, is bounded
    monkeypatch.setattr(cli, "GENERATOR_DEGREE_CEILING", 3)
    assert cli.run(["groebner", "--q", "2", "--vars", "x,y", "--gens", "x^2*y+1;y^2"]) == 0
    capsys.readouterr()
    assert cli.run(["groebner", "--q", "2", "--vars", "x,y", "--gens", "x^2*y^2+1;y"]) == 2
    assert capsys.readouterr().err == "error: generator degree 4 exceeds ceiling 3\n"


def random_poly(rng, ring, terms=6, deg=6):
    p = ring.zero()
    for _ in range(terms):
        exps = tuple(rng.randrange(deg) for _ in range(ring.nvars))
        p = p + ring.monomial(exps, rng.randrange(1, ring.field.q))
    return p


def tower_basis():
    """The basis of the tower splitting t^3 + (x+y) t^2 + xy t + x over
    F_4[x, y]/(x^4, y^4)."""
    base = cap_ring(GF(4), ["x", "y"], [4, 4])
    x, y = base.gen("x"), base.gen("y")
    return SplitTower(base, [[x + y, x * y, x]]).ext.basis


@pytest.mark.parametrize("case", range(27))
def test_normal_form_matches_textbook_division(case):
    if case < 26:
        gb = buchberger(*list(oracle_cases())[case])
    else:
        gb = tower_basis()
        assert len(gb) == 4
        assert_groebner(gb)
    rng = random.Random(case)
    for _ in range(5):
        p = random_poly(rng, gb.ring)
        assert normal_form(p, gb) == textbook_reduce(p, gb.polys, gb.order)


def test_quotient_power_rejects_a_negative_exponent():
    q = cap_ring(GF(2), ("x",), caps=(3,))
    x = q.gen("x")
    assert q.pow(x, 0) == q.ring.one() and q.pow(x, 2).text() == "x^2"
    assert not q.pow(x, 3)
    with pytest.raises(ValidationError, match="negative power"):
        q.pow(x, -1)


def test_the_hot_path_never_leaves_the_packed_layout(monkeypatch):
    q = cap_ring(GF(4), ["x", "y", "z"], [4, 3, 5])
    a = q.reduce(parse_poly(q.ring, "x*y + g*z^2 + x + 1"))
    b = q.reduce(parse_poly(q.ring, "y^2*z + (g+1)*x^3 + z"))
    ring = PolyRing(GF(7), ["x", "y", "z"])
    gens = [parse_poly(ring, t) for t in F7_LEX_IDEAL]
    p = parse_poly(ring, "x^4*y^3 + 5*x*z^5 + y^4 + 2")
    expected = (q.mul(a, b), q.pow(a, 7), [g.terms for g in gb_of(ring, F7_LEX_IDEAL)])

    def refuse(self, m):
        raise AssertionError("a key was read as an exponent tuple")
    monkeypatch.setattr(PolyRing, "exponents", refuse)
    gb = buchberger(gens, ring.lex())
    assert (q.mul(a, b), q.pow(a, 7), [g.terms for g in gb]) == expected
    nf = normal_form(p, gb)
    monkeypatch.undo()
    assert nf == textbook_reduce(p, gb.polys, gb.order)
