from itertools import combinations_with_replacement, product

import pytest

from chernlab import cli, lattice, omega
from chernlab.errors import (
    InexactDivision,
    NoMatchingClass,
    NonIntegralMultiplicity,
    ResourceLimit,
    ValidationError,
)
from chernlab.groups import (
    builtin_model,
    model_extraspecial,
    model_symmetric,
    model_trivial,
    p_part_exponent,
)
from chernlab.lattice import LatticeDivisor, Theta, fourier_inverse
from chernlab.omega import (
    OmegaChElem,
    enumerate_omega,
    enumerate_omega_ch,
    enumerate_omega_dprime,
    enumerate_omega_prime,
    hom_images,
    kappa,
    pointwise_signature,
    xi_class_maps,
)
from chernlab.repring import (
    RepRing,
    builtin_group,
    table_sigma3,
    table_sigma4,
    table_trivial,
)
from chernlab.table_io import table_from_json, table_to_json

from test_lattice import forward


@pytest.fixture(scope="module")
def s3_ring():
    return RepRing(table_sigma3())


@pytest.fixture(scope="module")
def s4_ring():
    return RepRing(table_sigma4())


def test_omega_trivial_group():
    model = builtin_model("trivial")
    assert len(enumerate_omega(model, 2, 2)) == 1
    _, sigs, _ = enumerate_omega_prime(model, 2, 2)
    assert len(sigs) == 1
    _, dp = enumerate_omega_dprime(model, 2, 2)
    assert len(dp) == 1


def test_omega_sigma3_count():
    assert len(enumerate_omega(model_symmetric(3), 3, 2)) == 5


def test_omega_sigma4_count():
    assert len(enumerate_omega(model_symmetric(4), 2, 2)) == 17


def test_omega_ch_sigma3(s3_ring):
    och = enumerate_omega_ch(s3_ring, 3, 2)
    assert len(och) == 5


def test_omega_ch_sigma3_takes_v_up_to_the_p_part_only(s3_ring):
    # as kappa: 3^2 does not divide sigma3's exponent 6
    assert enumerate_omega_ch(s3_ring, 3, 2, v=1) == enumerate_omega_ch(s3_ring, 3, 2)
    with pytest.raises(ValidationError, match="^group exponent not divisible by p\\^v$"):
        enumerate_omega_ch(s3_ring, 3, 2, v=2)


def test_omega_ch_trivial():
    ring = RepRing(table_trivial())
    och = enumerate_omega_ch(ring, 2, 2)
    assert len(och) == 1


def test_kappa_trivial_hom(s4_ring):
    model = model_symmetric(4)
    hom = (model.identity, model.identity)
    [elem] = kappa(s4_ring.table, [hom], 2, 2)
    theta = elem.divisors[0].theta
    for i, div in enumerate(elem.divisors):
        assert div == LatticeDivisor(theta, [theta.zero()] * s4_ring.dims[i])


def test_kappa_order4_element_rho_image(s4_ring):
    # u = (c, 1) with c a 4-cycle: the 3-dim standard character decomposes
    # as [t] + [2t] + [3t] on the dual lattice
    model = model_symmetric(4)
    c = model.index[(1, 2, 3, 0)]
    hom = (c, model.identity)
    [elem] = kappa(s4_ring.table, [hom], 2, 2)
    theta = elem.divisors[0].theta
    t = (1, 0)
    expected = LatticeDivisor(theta, [t, theta.scale(2, t), theta.scale(3, t)])
    assert elem.divisors[3] == expected
    pi_image = elem.divisors[0] + elem.divisors[3]
    assert pi_image == LatticeDivisor(theta, [theta.zero(), t, (2, 0), (3, 0)])


def test_kappa_constant_on_conjugacy_orbits(s4_ring):
    model = model_symmetric(4)
    om = enumerate_omega(model, 2, 2)
    rep = om[5]
    g, t = 7, model.table
    conj = tuple(t[t[g][x]][model.inverse[g]] for x in rep)
    first, second = kappa(s4_ring.table, [rep, conj], 2, 2)
    assert first == second


def test_kappa_raises_the_same_error_on_every_call(s3_ring):
    # two transpositions that do not commute: the 2-dimensional character
    # restricts to (2, 0, 0, -1) on Theta(2, 1, 2), which no divisor has as
    # its transform; the rows before it are kept by the first call
    model = model_symmetric(3)
    hom = (model.index[(1, 0, 2)], model.index[(2, 1, 0)])
    messages = []
    for _ in range(2):
        with pytest.raises(NonIntegralMultiplicity) as exc:
            kappa(s3_ring.table, [hom], 2, 2)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("group, p, v", [("sigma4", 2, 2), ("extraspecial(3,1)", 3, 1)])
def test_kappa_census_equals_the_one_hom_calls(group, p, v):
    table = builtin_group(group)
    model = table.model
    om = enumerate_omega(model, p, 2)
    census = kappa(table, om, p, 2, v)
    assert len(census) == len(om) > 1
    assert census == [kappa(table, [rep], p, 2, v)[0] for rep in om]
    theta = census[0].divisors[0].theta
    assert all(div.theta is theta for elem in census for div in elem.divisors)


def test_kappa_of_no_homs_is_empty(s4_ring):
    assert kappa(s4_ring.table, [], 2, 2) == []


def test_kappa_census_raises_at_the_first_failing_hom(s3_ring):
    model = model_symmetric(3)
    bad = (model.index[(1, 0, 2)], model.index[(2, 1, 0)])
    with pytest.raises(NonIntegralMultiplicity) as one:
        kappa(s3_ring.table, [bad], 2, 2)
    with pytest.raises(NonIntegralMultiplicity) as census:
        kappa(s3_ring.table, [(model.identity,) * 2, bad], 2, 2)
    assert str(census.value) == str(one.value)


# -- oracle: every restricted row through the Fourier inverse ------------------
# kappa once sent every irreducible's restricted row, linear ones included,
# through the transform and checked the multiplicities it computed; that
# kappa is kept as the oracle for the point masses that replaced it.

def kappa_oracle(table, homs, p, n, v=None):
    model = table.model
    if v is None:
        v = p_part_exponent(table.exponent, p)
    theta = Theta(p, v, n)
    out = []
    for hom in homs:
        classes = pointwise_signature(model, hom, theta)
        rows = [tuple(row[c] for c in classes) for row in table.rows]
        try:
            out.append(OmegaChElem(fourier_inverse(theta, table.cyclo, rows)))
        except (InexactDivision, ValidationError) as exc:
            raise NonIntegralMultiplicity(str(exc)) from exc
    return out


ORACLE = [("sigma4", 2, None), ("d8", 2, None), ("sigma3", 3, None), ("c3xc6", 3, None),
          ("extraspecial(3,1)", 3, 1)]


@pytest.mark.parametrize("group,p,v", ORACLE, ids=[g for g, *_ in ORACLE])
def test_kappa_matches_the_all_transform_oracle(group, p, v):
    table = builtin_group(group)
    om = enumerate_omega(table.model, p, 2)
    assert len(om) > 1
    assert kappa(table, om, p, 2, v) == kappa_oracle(table, om, p, 2, v)


@pytest.mark.parametrize("group,p", [("c2xc4", 2), ("c3xc6", 3)])
def test_kappa_of_an_abelian_census_transforms_nothing(group, p):
    # every irreducible of an abelian group is linear, so every divisor is a point
    table = builtin_group(group)
    om = enumerate_omega(table.model, p, 2)
    before = lattice.COUNTS["transforms"]
    census = kappa(table, om, p, 2)
    assert lattice.COUNTS["transforms"] == before
    assert census == kappa_oracle(table, om, p, 2)


@pytest.mark.parametrize("group,p", [("c2xc4", 2), ("sigma4", 2)])
def test_kappa_shares_one_point_mass_per_point(group, p):
    table = builtin_group(group)
    census = kappa(table, enumerate_omega(table.model, p, 2), p, 2)
    by_vec: dict = {}
    for elem in census:
        for i, div in enumerate(elem.divisors):
            if table._exps[i] is not None:
                by_vec.setdefault(div.vec, set()).add(id(div))
    assert len(by_vec) > 1
    assert all(len(ids) == 1 for ids in by_vec.values())


def test_kappa_non_commuting_hom_raises_as_the_oracle_does(s3_ring):
    # the linear rows are points whatever the hom; the 2-dimensional row
    # still goes through the transform and fails its integrality check
    model = model_symmetric(3)
    hom = (model.index[(1, 0, 2)], model.index[(2, 1, 0)])
    with pytest.raises(NonIntegralMultiplicity) as oracle:
        kappa_oracle(s3_ring.table, [hom], 2, 2)
    with pytest.raises(NonIntegralMultiplicity) as fast:
        kappa(s3_ring.table, [hom], 2, 2)
    assert str(fast.value) == str(oracle.value)


def test_kappa_linear_row_off_the_lattice_raises():
    # a c6 table read against d8's classes: a reflection (order 2) lands on
    # c6's class of order 3, where a linear row is a primitive cube root of
    # unity, not a square root, so its point has no coordinate in Theta(2, 1, 1)
    table = table_from_json(table_to_json(builtin_group("c6")))
    table.model = builtin_model("d8")
    hom = (table.model.classes[2][0],)
    assert table.model.orders[hom[0]] == 2 and table.class_orders[2] == 3
    with pytest.raises(NonIntegralMultiplicity):
        kappa_oracle(table, [hom], 2, 1, 1)
    with pytest.raises(NonIntegralMultiplicity, match="not a p\\^1-th root"):
        kappa(table, [hom], 2, 1, 1)


def test_kappa_bijective_sigma4(s4_ring):
    model = model_symmetric(4)
    om = enumerate_omega(model, 2, 2)
    och = enumerate_omega_ch(s4_ring, 2, 2)
    kimg = set(kappa(s4_ring.table, om, 2, 2))
    assert len(kimg) == 17
    assert kimg == set(och)


def test_omega_trivial_group_deep_tuples():
    # 5000 levels of tuple search: an explicit stack, not a RecursionError
    assert enumerate_omega(model_trivial(), 2, 5000) == [(0,) * 5000]


def test_omega_prime_sigma4_equals_omega():
    om, sigs, proj = enumerate_omega_prime(model_symmetric(4), 2, 2)
    assert len(om) == len(sigs) == 17


def test_omega_dprime_sigma4_count():
    # independent count: three order-2 points, each covered by two Z-orbits
    # of order-4 points; per point either both orbits carry the 4-cycle class
    # (1 way) or both avoid it (3*3 ways): (1+9)^3
    _, dp = enumerate_omega_dprime(model_symmetric(4), 2, 2)
    assert len(dp) == 1000


def test_omega_dprime_closed_count_exponent_p():
    # exponent p: a map is one of the 11 p-power classes per line of F_3^n
    model = builtin_model("extraspecial(3,1)")
    assert len(enumerate_omega_dprime(model, 3, 1)[1]) == 11
    assert len(enumerate_omega_dprime(model, 3, 2)[1]) == 11 ** 4


# point visits (partial maps x |Theta|) of one enumerate_omega_dprime call
VISITS = [("sigma4", 2, 2, 27968), ("sigma3", 3, 2, 279), ("c4", 2, 2, 16368),
          ("d8", 2, 2, 114768), ("extraspecial(3,1)", 3, 2, 144945), ("c2xc2", 2, 2, 340)]


@pytest.mark.parametrize("group,p,n,visits", VISITS, ids=[g for g, *_ in VISITS])
def test_omega_dprime_visit_count_pinned(group, p, n, visits):
    before = omega.COUNTS["visits"]
    enumerate_omega_dprime(builtin_model(group), p, n)
    assert omega.COUNTS["visits"] - before == visits


def test_xi_injective_on_sigma3(s3_ring):
    och = enumerate_omega_ch(s3_ring, 3, 2)
    images = set(xi_class_maps(och, s3_ring.table))
    assert len(images) == len(och)


def test_xi_of_no_elements_is_empty(s4_ring):
    assert xi_class_maps([], s4_ring.table) == []


def test_kappa_and_xi_need_the_tables_group_model(s4_ring):
    # an ingested table carries no group model to map homs into or classes out of
    ingested = table_from_json(table_to_json(s4_ring.table))
    assert ingested.model is None
    model = s4_ring.table.model
    om = enumerate_omega(model, 2, 2)
    with pytest.raises(ValidationError, match="no group model"):
        kappa(ingested, om, 2, 2)
    census = kappa(s4_ring.table, om[:1], 2, 2)
    with pytest.raises(ValidationError, match="no group model"):
        xi_class_maps(census, ingested)


def test_xi_after_kappa_is_canonical_map(s4_ring):
    model = model_symmetric(4)
    om = enumerate_omega(model, 2, 2)
    theta = Theta(2, 2, 2)
    images = xi_class_maps(kappa(s4_ring.table, om, 2, 2), s4_ring.table)
    assert images == [pointwise_signature(model, rep, theta) for rep in om]


# -- oracle: every divisor through the |Theta|^2 pairing sum --------------------
# xi once sent every divisor of each element through a forward transform, one
# element per call; test_lattice's forward pairing sum, which does not read
# the pairing rows, is kept as the oracle for the values xi adds up.

def xi_oracle(f, table):
    model, cy = table.model, table.cyclo
    theta = f.divisors[0].theta
    classes_of: dict = {}
    for c in model.p_power_class_indices(theta.p):
        classes_of.setdefault(tuple(row[c] for row in table.rows), []).append(c)
    result = []
    for column in zip(*(forward(theta, cy, d) for d in f.divisors)):
        [c] = classes_of[column]
        result.append(c)
    for k in range(theta.modulus):
        assert all(result[j] == model.class_power(c, k)
                   for c, j in zip(result, theta.scaling(k)))
    return tuple(result)


@pytest.mark.parametrize("group,p", [("sigma4", 2), ("d8", 2), ("c2xc4", 2), ("c3xc3", 3),
                                     ("extraspecial(3,1)", 3)])
def test_xi_matches_the_all_transform_oracle(group, p):
    ring = RepRing(builtin_group(group))
    och = enumerate_omega_ch(ring, p, 2)
    assert len(och) > 1
    assert xi_class_maps(och, ring.table) == [xi_oracle(f, ring.table) for f in och]


def test_xi_of_a_census_transforms_nothing(s4_ring):
    # every divisor, of one point or of several, is read off pairing rows
    och = enumerate_omega_ch(s4_ring, 2, 2)
    assert any(d.dim() > 1 for f in och for d in f.divisors)
    before = lattice.COUNTS["transforms"]
    xi_class_maps(och, s4_ring.table)
    assert lattice.COUNTS["transforms"] == before


def test_xi_rejects_elements_over_two_lattices_or_past_the_exponent(s3_ring):
    # the trivial hom's image on Theta(3, 2, 1): 9 does not divide sigma3's
    # exponent 6, so no census makes it
    wide = [OmegaChElem([LatticeDivisor(Theta(3, 2, 1), [(0,)] * d) for d in s3_ring.dims])]
    with pytest.raises(ValidationError, match="mixed lattice"):
        xi_class_maps(enumerate_omega_ch(s3_ring, 3, 1)[:1] + wide[:1], s3_ring.table)
    with pytest.raises(ValidationError, match="p\\^2 does not divide the exponent 6"):
        xi_class_maps(wide, s3_ring.table)


def test_xi_rejects_a_divisor_tuple_that_is_not_a_homomorphism():
    # on c4, D_k = [k] is the census's identity map; D_1 = D_2 = [1] with
    # D_3 = [3] breaks D_1 D_1 = D_2, so at the point 1 the column of values
    # (1, i, i, -i) is no class's column of the character table
    theta = Theta(2, 2, 1)
    point = [LatticeDivisor(theta, [(x,)]) for x in range(4)]
    elem = OmegaChElem([point[0], point[1], point[1], point[3]])
    with pytest.raises(NoMatchingClass, match="0 classes match at \\(1,\\)"):
        xi_class_maps([elem], builtin_group("c4"))


# -- oracle: one point's image as a product of powers ---------------------------
# The hom's image of each point was built with n calls to power before the
# images were walked one coordinate at a time; that loop is kept as the oracle.

def hom_image_oracle(model, hom, a):
    g = model.identity
    for ui, ai in zip(hom, a):
        g = model.table[g][model.power(ui, ai)]
    return g


def _criterion_10_homs(s6):
    u1 = s6.index[(1, 0, 3, 2, 4, 5)]
    u2 = s6.index[(2, 3, 0, 1, 4, 5)]
    v1 = s6.index[(1, 0, 2, 3, 5, 4)]
    v2 = s6.index[(0, 1, 3, 2, 5, 4)]
    return [(u1, u2), (v1, v2)]


@pytest.mark.parametrize("case", ["sigma4", "sigma6", "extraspecial"])
def test_hom_images_match_the_pointwise_oracle(case):
    if case == "sigma4":
        model = model_symmetric(4)
        cases = [(hom, Theta(2, 2, 2)) for hom in enumerate_omega(model, 2, 2)]
    elif case == "sigma6":
        model = model_symmetric(6)
        cases = [(hom, Theta(2, v, 2)) for hom in _criterion_10_homs(model) for v in (1, 2)]
    else:
        model = model_extraspecial(3, 1)
        cases = [(hom, Theta(3, 1, 2)) for hom in enumerate_omega(model, 3, 2)]
    assert len(cases) > 1
    for hom, theta in cases:
        expected = [hom_image_oracle(model, hom, a) for a in theta.points()]
        assert hom_images(model, hom, theta) == expected
        assert pointwise_signature(model, hom, theta) == tuple(model.class_of[g] for g in expected)


def test_chain_cardinalities_sigma3(s3_ring):
    model = model_symmetric(3)
    om = enumerate_omega(model, 3, 2)
    _, sigs, _ = enumerate_omega_prime(model, 3, 2)
    och = enumerate_omega_ch(s3_ring, 3, 2)
    _, dp = enumerate_omega_dprime(model, 3, 2)
    assert len(om) >= len(sigs) <= len(och) <= len(dp)
    assert (len(om), len(sigs), len(och), len(dp)) == (5, 5, 5, 16)


def test_abelian_identification():
    # for abelian A, OmegaCh(A) = Hom(A*, Theta(v)): each character goes to a
    # point; check the c4 case explicitly at v = 2
    ring = RepRing(builtin_group("c4"))
    och = enumerate_omega_ch(ring, 2, 2)
    theta = Theta(2, 2, 2)
    points = [pt for pt in theta.points()]
    gens = set()
    for elem in och:
        d = elem.divisors[1]
        assert d.dim() == 1
        gens.add(d.pairs[0][0])
    assert len(och) == 16 and gens == set(points)


# search nodes of one enumerate_omega_ch call at n = 2: a plan step solves
# the same irreducibles in whatever order its relations are visited, so these
# counts depend only on the search order of the branching divisors; the
# values forced (the solves before a node's first contradiction, so they
# follow the order of the plan's ops) and the nodes pruned are pinned as well
NODES = [("c2xc4", 2, 273, 224, 192), ("c3xc6", 3, 91, 927, 0),
         ("sigma4", 2, 261, 204, 235), ("d8", 2, 241, 16, 198),
         ("c3xc3", 3, 91, 414, 0)]


@pytest.mark.parametrize("group,p,nodes,forced,pruned", NODES, ids=[g[0] for g in NODES])
def test_omega_ch_node_count_pinned(group, p, nodes, forced, pruned):
    ring = RepRing(builtin_group(group))
    before = dict(omega.COUNTS)
    enumerate_omega_ch(ring, p, 2)
    assert omega.COUNTS["nodes"] - before["nodes"] == nodes
    assert omega.COUNTS["forced"] - before["forced"] == forced
    assert omega.COUNTS["pruned"] - before["pruned"] == pruned


def objects_per_count_vector(group, p):
    """The number of distinct divisor objects with each count vector in the
    OmegaCh census of group at n = 2."""
    ids: dict = {}
    for elem in enumerate_omega_ch(RepRing(builtin_group(group)), p, 2):
        for div in elem.divisors:
            ids.setdefault(div.vec, set()).add(id(div))
    return [len(objects) for objects in ids.values()]


@pytest.mark.parametrize("group,p", [("c6xc3", 3), ("sigma4", 2), ("d8", 2)])
def test_omega_ch_holds_one_divisor_per_count_vector(group, p):
    assert set(objects_per_count_vector(group, p)) == {1}


@pytest.mark.parametrize("group,p", [("c6xc3", 3), ("sigma4", 2), ("d8", 2)])
def test_omega_ch_with_emptied_tables_matches_the_default(monkeypatch, capsys, group, p):
    # OMEGA_CH_MEMO = 1 empties both of the search's tables at every insert,
    # so equal divisors are distinct objects and every comparison falls back
    # on the count vectors: the certificate (representatives, kappa and xi)
    # and the search's counts do not move
    argv = ["omega", "--group", group, "--p", str(p), "--n", "2", "--variant", "ch"]

    def census():
        before = dict(omega.COUNTS)
        assert cli.run(argv) == 0
        counts = {k: omega.COUNTS[k] - before[k] for k in ("nodes", "forced", "pruned")}
        return capsys.readouterr().out, counts

    default = census()
    monkeypatch.setattr(omega, "OMEGA_CH_MEMO", 1)
    assert census() == default
    assert max(objects_per_count_vector(group, p)) > 1


PLANNED = ["sigma4", "d8", "c2xc4", "c3xc6", "extraspecial(3,1)"]


@pytest.mark.parametrize("group", PLANNED)
def test_the_omega_ch_plan_places_every_irreducible_and_runs_every_relation_once(group):
    ring = RepRing(builtin_group(group))
    relations = ring.relations()
    placed, run = set(), []
    for k, ops in omega._plan(relations, ring.dims):
        assert k not in placed and (placed or k == 0)
        placed.add(k)
        for rel, k2 in ops:
            i, j, _, coeffs = relations[rel]
            if k2 is not None:
                # a solve's unknown is unplaced and not on its left-hand side
                assert k2 not in placed and k2 not in (i, j)
                placed.add(k2)
            assert {i, j} | {x for x, c in enumerate(coeffs) if c} <= placed
            run.append(rel)
    assert placed == set(range(ring.h))
    assert sorted(run) == list(range(len(relations)))


def omega_ch_brute(ring, p, n):
    """Every assignment of divisors of the irreducibles' dimensions, the
    trivial one at the origin, that satisfies all of ring.relations(): the
    OmegaCh census with no propagation and no pruning."""
    theta = Theta(p, p_part_exponent(ring.table.exponent, p), n)
    choices = [[LatticeDivisor(theta, pts)
                for pts in combinations_with_replacement(theta.points(), d)]
               for d in ring.dims[1:]]
    zero, unit = LatticeDivisor(theta), LatticeDivisor(theta, [theta.zero()])
    found = []
    for rest in product(*choices):
        values = (unit,) + rest
        if all((values[i].lam(r) if r else values[i] * values[j])
               == sum((values[k] * c for k, c in enumerate(coeffs) if c), zero)
               for i, j, r, coeffs in ring.relations()):
            found.append(OmegaChElem(values))
    return sorted(found, key=lambda elem: [d.pairs for d in elem.divisors])


# no leaf of the search re-checks the relations: every relation is checked
# or solved on each path before its leaf, so the search finds exactly the
# assignments that satisfy them all; sigma4's 2- and 3-dimensional
# irreducibles branch on all but their last point, which their determinant fixes
BRUTE = [("c2xc2", 2, 1), ("c3", 3, 2), ("sigma3", 3, 1), ("sigma3", 2, 2), ("d8", 2, 1),
         ("c4", 2, 1), ("c6", 2, 1), ("sigma4", 2, 1), ("sigma4", 3, 1)]


@pytest.mark.parametrize("group,p,n", BRUTE, ids=[f"{g}-{p}-{n}" for g, p, n in BRUTE])
def test_omega_ch_matches_the_brute_force_census(group, p, n):
    ring = RepRing(builtin_group(group))
    expected = omega_ch_brute(ring, p, n)
    assert expected and enumerate_omega_ch(ring, p, n) == expected


@pytest.mark.parametrize("group", ["c4", "c6"])
def test_brute_force_cases_with_only_one_term_relations(group):
    # these censuses reach only the search's one-term check and solve
    assert all(sum(coeffs) == 1 for *_, coeffs in RepRing(builtin_group(group)).relations())


def test_omega_ch_node_ceiling(monkeypatch, s4_ring):
    monkeypatch.setattr(omega, "OMEGA_CH_NODES", 100)
    with pytest.raises(ResourceLimit, match="100 nodes"):
        enumerate_omega_ch(s4_ring, 2, 2)


def test_omega_dprime_one_point_lattice_with_huge_modulus(monkeypatch):
    # n = 0 on c2, whose exponent has 2^1: v = 40 and v = 2^19 pass the
    # level check's v <= 1 by far, so both are refused before any Theta
    def no_theta(*args):
        raise AssertionError("Theta built")

    monkeypatch.setattr(omega, "Theta", no_theta)
    for v in (40, 1 << 19):
        with pytest.raises(ValidationError, match="^group exponent not divisible by p\\^v$"):
            enumerate_omega_dprime(builtin_model("c2"), 2, 0, v)


# -- oracle: the backtracking search that the extension walk replaced ----------
# enumerate_omega_dprime once searched depth first over the points in
# decreasing order of their order, assigning each unset point every class
# whose order divides the point's and rejecting a branch on a clash with an
# earlier choice; that search is kept as the oracle for the walk.

def dprime_oracle(model, p, n, v=None):
    if v is None:
        v = p_part_exponent(model.exponent, p)
    theta = Theta(p, v, n)
    pts = theta.points()
    size = len(pts)
    classes = model.p_power_class_indices(p)
    class_orders = {c: model.orders[model.classes[c][0]] for c in classes}
    orders = []
    for i in range(size):
        k, j = 1, theta.shift(i)[0]
        while j:
            k, j = k + 1, theta.shift(i)[j]
        orders.append(k)
    seq = sorted(range(size), key=lambda i: -orders[i])
    results = []

    def assign(state, i, cls):
        step, j, new = theta.shift(i), 0, list(state)
        for k in range(orders[i]):
            target = model.class_power(cls, k)
            if new[j] is not None and new[j] != target:
                return None
            new[j] = target
            j = step[j]
        return new

    def visit(state, pos):
        while pos < size and state[seq[pos]] is not None:
            pos += 1
        if pos == size:
            results.append(tuple(state))
            return
        i = seq[pos]
        for cls in classes:
            if not orders[i] % class_orders[cls]:
                new = assign(state, i, cls)
                if new is not None:
                    visit(new, pos + 1)

    visit([None] * size, 0)
    return pts, sorted(results)


# at p = 2, sigma4, d8 and c2xc4 reach partial maps whose f(2a) is a class
# with no square root, which the walk drops (37, 122 and 224 of them); c4,
# c12 and c8 reach none
DPRIME_ORACLE = ([(g, p, 2) for g in ("sigma4", "d8", "c4", "c2xc2", "c2xc4", "c3xc3",
                                      "c6xc3", "c12") for p in (2, 3)]
                 + [("sigma3", 3, 2), ("extraspecial(3,1)", 3, 1),
                    ("extraspecial(3,1)", 3, 2), ("c8", 2, 1)])


@pytest.mark.parametrize("group,p,n", DPRIME_ORACLE, ids=[f"{g}-{p}-{n}" for g, p, n in DPRIME_ORACLE])
def test_omega_dprime_matches_the_search_oracle(group, p, n):
    model = builtin_model(group)
    assert enumerate_omega_dprime(model, p, n) == dprime_oracle(model, p, n)


@pytest.mark.parametrize("group,p,v", [("c4", 2, 0), ("c4", 2, 1), ("c2xc4", 2, 2),
                                       ("sigma4", 2, 1), ("c12", 3, 0), ("c2", 2, 0)])
def test_omega_dprime_matches_the_search_oracle_at_n_0(group, p, v):
    # at n = 0 there is no image to annihilate, so any v up to the p-part is taken
    model = builtin_model(group)
    assert enumerate_omega_dprime(model, p, 0, v) == dprime_oracle(model, p, 0, v)


@pytest.mark.parametrize("group", ["sigma4", "d8", "c2xc4"])
def test_omega_dprime_maps_are_z_equivariant(group):
    model = builtin_model(group)
    pts, maps = enumerate_omega_dprime(model, 2, 2)
    theta = Theta(2, p_part_exponent(model.exponent, 2), 2)
    assert pts == theta.points() and len(maps) > 1
    rows = [theta.scaling(k) for k in range(theta.modulus)]
    for f in maps:
        for k, row in enumerate(rows):
            assert [f[row[a]] for a in range(len(pts))] == [model.class_power(c, k) for c in f]
