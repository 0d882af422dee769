import random
from itertools import combinations, combinations_with_replacement

import pytest

from chernlab import lattice
from chernlab.cyclotomic import Cyclo
from chernlab.errors import InexactDivision, LambdaOutOfRange, ResourceLimit, ValidationError
from chernlab.lattice import (
    LatticeDivisor,
    Theta,
    fourier_inverse,
    newton_lambda_to_psi,
    newton_psi_to_lambda,
    unit_elementary,
)
from chernlab.omega import OmegaChElem, certificate_order


@pytest.fixture
def theta():
    return Theta(2, 1, 2)


def test_lambda_two_points(theta):
    a, b = (1, 0), (0, 1)
    D = LatticeDivisor(theta, [a, b])
    assert D.lam(2) == LatticeDivisor(theta, [theta.add(a, b)])


def test_lambda_fixes_special_triple(theta):
    a, b = (1, 0), (0, 1)
    c = theta.add(a, b)
    E = LatticeDivisor(theta, [a, b, c])
    assert E.lam(2) == E
    assert E.lam(3) == LatticeDivisor(theta, [theta.zero()])


def test_psi_fixes_origin_stack(theta):
    D = LatticeDivisor(theta, [theta.zero()] * 4)
    for k in range(1, 6):
        assert D.psi(k) == D


def test_lambda_out_of_range(theta):
    D = LatticeDivisor(theta, [(1, 0)])
    assert D.lam(2).dim() == 0  # k > dim is the empty divisor
    with pytest.raises(LambdaOutOfRange):
        D.lam(-1)


def lam_by_enumeration(D, k):
    """lambda^k straight from the definition: one point per k-subset."""
    theta = D.theta
    pts = [pt for pt, m in D.pairs for _ in range(m)]
    counts: dict = {}
    for subset in combinations(range(len(pts)), k):
        s = theta.zero()
        for i in subset:
            s = theta.add(s, pts[i])
        counts[s] = counts.get(s, 0) + 1
    return LatticeDivisor.from_counts(theta, counts)


def test_lambda_enumerate_matches_additive():
    th = Theta(3, 1, 2)
    rng = random.Random(23)
    pts = th.points()
    for dim in range(0, 11):
        for _ in range(3):
            D = LatticeDivisor(th, [rng.choice(pts) for _ in range(dim)])
            for k in range(0, dim + 2):
                assert D.lam(k) == lam_by_enumeration(D, k)


def test_lambda_addition_law_exhaustive_small(theta):
    pts = theta.points()
    divisors = []
    for d in range(0, 3):
        divisors += [LatticeDivisor(theta, c) for c in combinations_with_replacement(pts, d)]
    for D in divisors:
        for E in divisors:
            for k in range(0, D.dim() + E.dim() + 1):
                total = LatticeDivisor(theta)
                for i in range(k + 1):
                    total = total + D.lam(i) * E.lam(k - i)
                assert (D + E).lam(k) == total


def test_newton_line_element():
    # a line bundle has lambda^k = 0 above 1, so psi^k = l^k
    lams = [5]  # stand-in ring: plain integers, "l" = 5
    psis = newton_lambda_to_psi(lams, 4)
    assert psis == [5, 25, 125, 625]


def test_newton_round_trip_integers():
    rng = random.Random(2)
    for _ in range(30):
        lams = [rng.randint(-4, 4) for _ in range(5)]
        psis = newton_lambda_to_psi(lams, 5)
        assert newton_psi_to_lambda(psis, 5) == lams


def test_newton_inexact_division_raises():
    with pytest.raises(InexactDivision):
        newton_psi_to_lambda([1, 2], 2)  # 2*lam2 = 1*1 - 2 = -1


def test_xi_over_z8():
    class Z8:
        def __init__(self, v):
            self.v = v % 8

        def __add__(self, o):
            return Z8(self.v + o.v)

        def __mul__(self, o):
            return Z8(self.v * o.v)

        def __eq__(self, o):
            return self.v == o.v

    u, v = Z8(3), Z8(5)
    assert unit_elementary([u, v], 2) == Z8(7)
    assert unit_elementary([u, v], 1) == Z8(0)


def test_psi_pv_collapse():
    for p, v, n in ((2, 1, 2), (2, 2, 2), (3, 1, 2)):
        th = Theta(p, v, n)
        rng = random.Random(p * 10 + v)
        pts = th.points()
        for _ in range(25):
            d = rng.randint(0, 4)
            D = LatticeDivisor(th, [rng.choice(pts) for _ in range(d)])
            expected = LatticeDivisor(th, [th.zero()] * d)
            assert D.psi(p ** v) == expected


# -- oracle: the Fourier pair as one |Theta|^2 pairing sum ---------------------
# The pair summed every product f(z) w^{sign <y,z>} for each y at once before
# it ran one coordinate at a time; that sum is kept to check the inverse
# passes against, and with sign 1 it is the forward transform of a divisor.

def pairing_sum(theta, cy, f, sign):
    step = sign * (cy.e // theta.modulus)
    pts = theta.points()
    out = []
    for y in pts:
        acc = cy.zero
        for z, value in zip(pts, f):
            pair = sum(a * b for a, b in zip(y, z))
            acc = cy.add(acc, cy.mul(value, cy.root_power(pair * step)))
        out.append(acc)
    return out


def forward(theta, cy, d):
    """The transform a -> sum_x mult(x) w^{<a,x>} of the divisor d."""
    return pairing_sum(theta, cy, [cy.from_int(m) for m in d.vec], 1)


@pytest.mark.parametrize("p,v,n,e", [(2, 2, 2, 4), (2, 2, 2, 8), (3, 1, 2, 3), (3, 1, 2, 9)])
def test_fourier_inverse_undoes_fourier(p, v, n, e):
    th = Theta(p, v, n)
    cy = Cyclo(e)
    rng = random.Random(100 * p + e)
    pts = th.points()
    divisors = [
        LatticeDivisor(th, [rng.choice(pts) for _ in range(rng.randint(0, 6))])
        for _ in range(12)
    ]
    assert fourier_inverse(th, cy, [forward(th, cy, d) for d in divisors]) == divisors


def test_fourier_pairs_points_with_roots_of_unity(theta):
    # over Z[zeta_2], a -> (-1)^<a,x> is the transform of [x]
    row = [((-1) ** (a + b),) for a, b in theta.points()]
    assert forward(theta, Cyclo(2), LatticeDivisor(theta, [(1, 1)])) == row
    assert fourier_inverse(theta, Cyclo(2), [row]) == [LatticeDivisor(theta, [(1, 1)])]


def test_fourier_inverse_rejects_a_non_transform(theta):
    cy = Cyclo(2)
    row = [cy.one if a == theta.zero() else cy.zero for a in theta.points()]
    with pytest.raises(InexactDivision):
        fourier_inverse(theta, cy, [row])



# -- the tables on Theta: each distinct function is transformed and checked once --

def delta_row(theta, cy, m):
    """m at the origin and 0 elsewhere: the inverse transform is m/|Theta| everywhere."""
    return [cy.from_int(m) if a == theta.zero() else cy.zero for a in theta.points()]


def test_fourier_inverse_of_a_repeated_row_is_equal(theta):
    cy = Cyclo(2)
    D = LatticeDivisor(theta, [(1, 0), (1, 1), (1, 1)])
    row = forward(theta, cy, D)
    first, second = fourier_inverse(theta, cy, [row, row])
    assert first == second == D
    assert fourier_inverse(theta, cy, [row]) == [D]


def test_a_non_transform_raises_on_every_call(theta):
    cy = Cyclo(2)
    bad = delta_row(theta, cy, 1)
    good = forward(theta, cy, LatticeDivisor(theta, [(0, 1)]))
    negative = [cy.scale(-1, value) for value in good]  # the transform of -[(0, 1)]
    for _ in range(2):
        with pytest.raises(InexactDivision):
            fourier_inverse(theta, cy, [bad])
        with pytest.raises(ValidationError, match="negative multiplicity"):
            fourier_inverse(theta, cy, [negative])
        assert fourier_inverse(theta, cy, [good]) == [LatticeDivisor(theta, [(0, 1)])]
        with pytest.raises(InexactDivision):
            fourier_inverse(theta, cy, [good, bad])


def test_the_first_failing_row_raises_cold_and_warm():
    cy = Cyclo(2)
    theta = Theta(2, 1, 2)
    good = forward(theta, cy, LatticeDivisor(theta, [(1, 0)]))
    bad1, bad2 = delta_row(theta, cy, 1), delta_row(theta, cy, 2)
    with pytest.raises(InexactDivision) as alone:
        fourier_inverse(theta, cy, [bad1])
    with pytest.raises(InexactDivision) as other:
        fourier_inverse(theta, cy, [bad2])
    assert str(other.value) != str(alone.value)
    cold = Theta(2, 1, 2)
    for _ in range(2):  # a Theta that holds nothing, then one that holds good
        with pytest.raises(InexactDivision) as exc:
            fourier_inverse(cold, cy, [good, bad1, bad2])
        assert str(exc.value) == str(alone.value)
    assert list(cold._inverse) == [(cy.e, tuple(good))]


def test_the_fourier_memo_stays_within_its_bound():
    # a full kind of table is emptied before it takes another: fill the
    # inverse transform's kind to ENTRIES_KEPT entries with stand-ins
    theta = Theta(2, 1, 10)
    tables = lattice.ENTRIES_KEPT // theta.size
    cy = Cyclo(2)
    D = LatticeDivisor(theta, [(1,) * 10, (0,) * 10])
    row = [cy.from_int(1 + (-1) ** sum(a)) for a in theta.points()]  # the transform of D
    theta._inverse.update(((0, (k,)), ()) for k in range(tables))
    assert fourier_inverse(theta, cy, [row]) == [D]
    assert list(theta._inverse) == [(cy.e, tuple(row))]
    # one table short of full, the kind keeps what it holds
    theta._inverse.update(((0, (k,)), ()) for k in range(tables - 2))
    fourier_inverse(theta, cy, [[cy.scale(2, value) for value in row]])  # of D * 2
    assert len(theta._inverse) == tables


def test_index_rows_stay_within_the_bound():
    theta = Theta(2, 1, 14)  # ENTRIES_KEPT holds 64 rows of 2^14 indices
    tables = lattice.ENTRIES_KEPT // theta.size
    for i in range(tables + 1):
        row = theta.shift(i)
        assert len(theta._shifts) * theta.size <= lattice.ENTRIES_KEPT
        assert theta._shifts[i] is row
    assert list(theta._shifts) == [tables]


def test_a_kept_row_is_not_evicted_by_the_transform(theta):
    # each kind of table has its own bound: index and pairing rows taken
    # between two inverse transforms leave the row kept
    cy = Cyclo(2)
    D = LatticeDivisor(theta, [(1, 0), (1, 1)])
    row = forward(theta, cy, D)
    before = lattice.COUNTS["transforms"]
    assert fourier_inverse(theta, cy, [row]) == [D]
    for i in range(theta.size):
        theta.shift(i), theta.scaling(i), theta.pairing(i)
    assert fourier_inverse(theta, cy, [row]) == [D]
    assert lattice.COUNTS["transforms"] - before == 1


def test_transforms_count_distinct_functions(theta):
    cy = Cyclo(2)
    rows = [forward(theta, cy, LatticeDivisor(theta, [(1, 0)] * 3))] * 2
    before = lattice.COUNTS["transforms"]
    fourier_inverse(theta, cy, rows)
    assert lattice.COUNTS["transforms"] - before == 1
    before = lattice.COUNTS["transforms"]
    fourier_inverse(theta, cy, rows)
    assert lattice.COUNTS["transforms"] == before


def test_a_fresh_theta_transforms_again_and_two_share_nothing():
    cy = Cyclo(4)
    first, second = Theta(2, 2, 2), Theta(2, 2, 2)
    D = LatticeDivisor(first, [(1, 2), (3, 3)])
    row = forward(first, cy, D)
    before = lattice.COUNTS["transforms"]
    assert fourier_inverse(first, cy, [row]) == [D]
    assert fourier_inverse(second, cy, [row]) == [D]  # equal Thetas, equal divisors
    assert lattice.COUNTS["transforms"] - before == 2
    first.shift(1), second.shift(1), second.scaling(3), first.pairing(1), second.pairing(1)
    for kind in ("_shifts", "_scales", "_pairings", "_inverse"):
        mine, theirs = getattr(first, kind), getattr(second, kind)
        assert mine is not theirs
        assert all(mine[key] is not theirs[key] for key in mine.keys() & theirs.keys())
    assert first._shifts and first._inverse and not first._scales


def test_the_exponent_is_checked_before_any_transform(theta):
    before = lattice.COUNTS["transforms"]
    with pytest.raises(ValidationError, match="does not divide the exponent 3"):
        fourier_inverse(theta, Cyclo(3), [[Cyclo(3).one] * 4])
    assert lattice.COUNTS["transforms"] == before
    assert not theta._inverse


FOURIER_SHAPES = [
    (2, 1, 3, 2), (2, 2, 2, 4), (2, 2, 2, 8), (3, 1, 2, 3), (3, 1, 2, 9),
    (5, 1, 1, 5), (2, 3, 1, 8), (3, 1, 0, 3),
]


def _random_row(cy, size, rng):
    """Roots of unity and other elements of Z[zeta_e], about half each."""
    return [
        cy.root_power(rng.randrange(cy.e)) if rng.random() < 0.5
        else tuple(rng.randint(-3, 3) for _ in range(cy.degree))
        for _ in range(size)
    ]


@pytest.mark.parametrize("p,v,n,e", FOURIER_SHAPES)
@pytest.mark.parametrize("sign", [-1])  # the one direction _transform takes
def test_transform_matches_the_pairing_sum(p, v, n, e, sign):
    th = Theta(p, v, n)
    cy = Cyclo(e)
    rng = random.Random(1000 * p + 100 * v + 10 * n + e + sign)
    for _ in range(6):
        row = _random_row(cy, len(th.points()), rng)
        assert lattice._transform(th, cy, row) == pairing_sum(th, cy, row, sign)


@pytest.mark.parametrize("p,v,n,e", FOURIER_SHAPES)
def test_pairing_rows_match_the_pairing_sum(p, v, n, e):
    # a point's transform is the root of unity w^<a,x> at each a, whose
    # exponent the pairing row holds
    th = Theta(p, v, n)
    cy = Cyclo(e)
    pts = th.points()
    for i, x in enumerate(pts):
        row = th.pairing(i)
        assert row == tuple(sum(a * b for a, b in zip(y, x)) % th.modulus for y in pts)
        assert th.pairing(i) is row
        assert forward(th, cy, LatticeDivisor(th, [x])) == [
            cy.root_power(k * (e // th.modulus)) for k in row]


@pytest.mark.parametrize("p,v,n,e", FOURIER_SHAPES)
def test_fourier_pair_matches_the_pairing_sum(p, v, n, e):
    th = Theta(p, v, n)
    cy = Cyclo(e)
    rng = random.Random(1000 * p + 100 * v + 10 * n + e)
    pts = th.points()
    size = len(pts)
    divisors = [
        LatticeDivisor(th, [rng.choice(pts) for _ in range(rng.randint(0, 5))])
        for _ in range(6)
    ]
    rows = [forward(th, cy, d) for d in divisors]
    assert fourier_inverse(Theta(p, v, n), cy, rows) == divisors
    for d, row in zip(divisors, rows):
        back = pairing_sum(th, cy, row, -1)
        assert tuple(cy.rational_value(cy.divide_exact(x, size)) for x in back) == d.vec
    # a row that is no transform is refused, as its pairing sum shows
    for _ in range(4):
        row = _random_row(cy, size, rng)
        back = pairing_sum(th, cy, row, -1)
        if all(cy.is_rational(x) and x[0] % size == 0 and x[0] >= 0 for x in back):
            expected = tuple(x[0] // size for x in back)
            assert fourier_inverse(th, cy, [row])[0].vec == expected
        else:
            with pytest.raises((InexactDivision, ValidationError)):
                fourier_inverse(th, cy, [row])


# -- oracle: the algebra on sorted (point, multiplicity) pairs ----------------
# Divisors were stored as sorted pairs before the count vectors; these are
# those operations, kept to check the vector arithmetic against.

def oracle_from_counts(theta, counts):
    pairs = tuple(sorted((theta.reduce(pt), m) for pt, m in counts.items() if m))
    if any(m < 0 for _, m in pairs):
        raise ValidationError("negative multiplicity")
    return pairs


def oracle_add(theta, a, b):
    counts = dict(a)
    for pt, m in b:
        counts[pt] = counts.get(pt, 0) + m
    return oracle_from_counts(theta, counts)


def oracle_mul(theta, a, b):
    if isinstance(b, int):
        return oracle_from_counts(theta, {pt: m * b for pt, m in a})
    counts = {}
    for pa, ma in a:
        for pb, mb in b:
            key = theta.add(pa, pb)
            counts[key] = counts.get(key, 0) + ma * mb
    return oracle_from_counts(theta, counts)


def oracle_psi(theta, a, k):
    counts = {}
    for pt, m in a:
        key = theta.scale(k, pt)
        counts[key] = counts.get(key, 0) + m
    return oracle_from_counts(theta, counts)


def oracle_lam(theta, a, k):
    if k == 0:
        return ((theta.zero(), 1),)
    if k > sum(m for _, m in a):
        return ()
    series = [{theta.zero(): 1}]
    for pt, mult in a:
        for _ in range(mult):
            new = [dict(level) for level in series]
            if len(new) <= k:
                new.append({})
            for lvl in range(min(len(new) - 1, k), 0, -1):
                target = new[lvl]
                for s, m in series[lvl - 1].items():
                    key = theta.add(s, pt)
                    target[key] = target.get(key, 0) + m
            series = new
    return oracle_from_counts(theta, series[k])


def oracle_text(pairs):
    if not pairs:
        return "0"
    return " + ".join(
        ("" if m == 1 else str(m)) + "[" + ",".join(str(x) for x in pt) + "]"
        for pt, m in pairs
    )


ORACLE_THETAS = [(2, 1, 2), (2, 2, 2), (3, 1, 2), (5, 1, 1), (2, 1, 3)]


def _random_divisor(theta, rng, top=6):
    """A seeded divisor and its oracle pairs, built from the same points."""
    pts = theta.points()
    chosen = [rng.choice(pts) for _ in range(rng.randint(0, top))]
    counts = {}
    for pt in chosen:
        counts[pt] = counts.get(pt, 0) + 1
    return LatticeDivisor(theta, chosen), oracle_from_counts(theta, counts)


@pytest.mark.parametrize("pvn", ORACLE_THETAS, ids=str)
def test_vector_algebra_matches_pair_oracle(pvn):
    theta = Theta(*pvn)
    rng = random.Random(sum(pvn) * 1000 + pvn[0])
    for _ in range(40):
        (D, d), (E, e) = _random_divisor(theta, rng), _random_divisor(theta, rng)
        assert D.pairs == d and D.text() == oracle_text(d)
        assert D.counts() == dict(d) and D.dim() == sum(m for _, m in d)
        assert LatticeDivisor.from_counts(theta, dict(d)) == D
        assert (D + E).pairs == oracle_add(theta, d, e)
        assert (D * E).pairs == oracle_mul(theta, d, e)
        c = rng.randint(0, 3)
        assert (D * c).pairs == (c * D).pairs == oracle_mul(theta, d, c)
        for k in (-1, 0, 1, 2, 3, theta.modulus + 1):
            assert D.psi(k).pairs == oracle_psi(theta, d, k)
        for k in range(0, D.dim() + 2):
            assert D.lam(k).pairs == oracle_lam(theta, d, k)
        assert (D == E) == (d == e)
        if d == e:
            assert hash(D) == hash(E)


@pytest.mark.parametrize("pvn", ORACLE_THETAS, ids=str)
def test_from_counts_reduces_and_rejects_negatives(pvn):
    theta = Theta(*pvn)
    far = tuple(x + theta.modulus for x in theta.points()[-1])
    counts = {theta.zero(): 2, far: 1}
    assert LatticeDivisor.from_counts(theta, counts).pairs == oracle_from_counts(theta, counts)
    with pytest.raises(ValidationError):
        LatticeDivisor.from_counts(theta, {theta.zero(): -1})


@pytest.mark.parametrize("pvn", ORACLE_THETAS, ids=str)
def test_omega_ch_order_matches_pair_oracle(pvn):
    theta = Theta(*pvn)
    rng = random.Random(7 * sum(pvn))
    elems, keys = [], {}
    for _ in range(30):
        drawn = [_random_divisor(theta, rng, top=3) for _ in range(3)]
        elem = OmegaChElem([D for D, _ in drawn])
        elems.append(elem)
        keys[elem] = [d for _, d in drawn]
    assert certificate_order(elems) == sorted(elems, key=keys.__getitem__)


def _equal_divisors_built_apart():
    """Groups of equal divisors, each built by __init__, of_vec,
    from_counts, *, lam or psi."""
    theta, lines = Theta(2, 1, 2), Theta(3, 1, 1)
    corner = LatticeDivisor(theta, [(1, 1)])
    heavy = LatticeDivisor(theta, [(0, 0), (0, 0), (1, 0)])
    unit = LatticeDivisor(theta, [(0, 0)])
    return [
        [corner, LatticeDivisor.of_vec(theta, (0, 0, 0, 1)),
         LatticeDivisor.from_counts(theta, {(1, 1): 1}),
         LatticeDivisor(theta, [(1, 0)]) * LatticeDivisor(theta, [(0, 1)]),
         LatticeDivisor(theta, [(1, 0), (0, 1)]).lam(2), corner.psi(3)],
        [heavy, LatticeDivisor.of_vec(theta, (2, 0, 1, 0)),
         LatticeDivisor.from_counts(theta, {(0, 0): 2, (1, 0): 1, (1, 1): 0}),
         heavy * unit, unit * heavy, heavy.lam(1), heavy.psi(1)],
        [LatticeDivisor(theta), LatticeDivisor.of_vec(theta, (0,) * 4), heavy * 0,
         corner.lam(2), LatticeDivisor.from_counts(theta, {})],
        [LatticeDivisor(lines, [(1,), (2,)]), LatticeDivisor.of_vec(lines, (0, 1, 1)),
         LatticeDivisor(lines, [(2,), (1,)]).psi(2), LatticeDivisor(lines, [(1,)]) * 1
         + LatticeDivisor(lines, [(5,)])],
    ]


def test_divisors_are_values_with_kept_hash_and_support():
    groups = _equal_divisors_built_apart()
    for group in groups:
        for D in group:
            assert hash(D) == hash((D.theta, D.vec)) == hash(D)
            support = D.support()
            assert isinstance(support, tuple) and D.support() is support
            assert support == tuple((i, m) for i, m in enumerate(D.vec) if m)
            for E in group:
                assert D == E and hash(D) == hash(E)
    # unequal values stay unequal whatever was kept on them
    for a, b in combinations(range(len(groups)), 2):
        assert groups[a][0] != groups[b][0]


def test_text_pairs_and_counts_of_hand_built_divisors():
    theta = Theta(2, 1, 2)
    heavy = LatticeDivisor(theta, [(1, 0), (0, 0), (0, 0)])
    assert heavy.pairs == (((0, 0), 2), ((1, 0), 1))
    assert heavy.text() == "2[0,0] + [1,0]"
    assert heavy.counts() == {(0, 0): 2, (1, 0): 1}
    zero = LatticeDivisor(theta)
    assert (zero.pairs, zero.text(), zero.counts()) == ((), "0", {})
    far = LatticeDivisor.from_counts(Theta(3, 2, 1), {(10,): 3, (2,): 1})
    assert far.pairs == (((1,), 3), ((2,), 1)) and far.text() == "3[1] + [2]"


def test_a_one_point_lattice_bounds_the_bits_of_its_modulus():
    # n = 0: one point, but the modulus p^v is still built, so v times the
    # bit length of p is what THETA_POINTS_CEILING bounds there
    assert Theta(2, 40, 0).points() == ((),)
    assert Theta(2, 1 << 19, 0).size == 1
    with pytest.raises(ResourceLimit, match="modulus bits"):
        Theta(2, (1 << 19) + 1, 0)
