import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernlab.cyclotomic import CyclotomicRing
from chernlab.errors import InconsistentFusion, NotACharacterTable, UnknownGroup
from chernlab.repring import (
    CharacterTable,
    PackedExponents,
    RepRing,
    builtin_fusion,
    builtin_group,
    lambda_rho_brute,
    lambda_rho_closed_form,
    restriction_kernel,
    table_cyclic,
    table_cyclic_product,
    table_dihedral8,
    table_extraspecial,
    table_sigma3,
    table_sigma4,
    table_trivial,
)
from chernlab.table_io import table_from_json, table_to_json


@pytest.fixture(scope="module")
def r3():
    return RepRing(table_sigma3())


@pytest.fixture(scope="module")
def r4():
    return RepRing(table_sigma4())


def test_trivial_group():
    ring = RepRing(table_trivial())
    assert ring.mijk[0][0] == [1]


def test_sigma3_structure(r3):
    eps, sigma = r3.irreducible(1), r3.irreducible(2)
    assert (sigma * sigma).text() == "1 + eps + sigma"
    assert r3.lam_irreducible(2, 2) == eps
    assert (eps * sigma) == sigma
    assert (eps * eps) == r3.one()


def test_sigma3_psi2_not_positive(r3):
    sigma = r3.irreducible(2)
    img = r3.adams(sigma, 2)
    assert img == r3.from_coeffs([1, -1, 1])  # 1 - eps + sigma
    assert not img.is_positive()


def test_sigma4_full_table(r4):
    one, eps, sg, rho, er = (r4.irreducible(i) for i in range(5))
    assert eps * eps == one
    assert eps * sg == sg
    assert sg * sg == one + eps + sg
    assert sg * rho == rho + er
    assert rho * rho == one + sg + rho + er
    assert r4.adams(eps, 2) == one
    assert r4.adams(eps, 3) == eps
    assert r4.adams(sg, 2) == one - eps + sg
    assert r4.adams(sg, 3) == one + eps
    assert r4.adams(rho, 2) == one + sg + rho - er
    assert r4.adams(rho, 3) == one + eps - sg + rho
    assert r4.lam_irreducible(2, 2) == eps
    assert r4.lam_irreducible(3, 2) == er
    assert r4.lam_irreducible(3, 3) == eps
    # tau = eps*rho: lambda^2 tau = tau, lambda^3 tau = 1
    assert r4.lam_irreducible(4, 2) == er
    assert r4.lam_irreducible(4, 3) == one


def test_sigma4_relations_in_order(r4):
    rels = r4.relations()
    assert [(i, j, r) for i, j, r, _ in rels] == [
        (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0), (2, 2, 0), (2, 3, 0), (2, 4, 0),
        (3, 3, 0), (3, 4, 0), (4, 4, 0),
        (2, 2, 2), (3, 3, 2), (3, 3, 3), (4, 4, 2), (4, 4, 3),
    ]
    by_key = {(i, j, r): c for i, j, r, c in rels}
    assert by_key[(3, 3, 0)] == (1, 0, 1, 1, 1)  # rho rho = 1 + sigma + rho + eps rho
    assert by_key[(2, 2, 2)] == (0, 1, 0, 0, 0)  # lambda^2 sigma = eps
    assert by_key[(3, 3, 3)] == (0, 1, 0, 0, 0)  # lambda^3 rho = eps
    assert by_key[(4, 4, 3)] == (1, 0, 0, 0, 0)  # lambda^3 (eps rho) = 1
    for i, j, r, c in rels:
        vi = r4.irreducible(i)
        assert c == (r4.lambda_series(vi)[r] if r else vi * r4.irreducible(j)).coeffs


def test_psi_identity_and_composition(r4):
    rng = random.Random(6)
    e = r4.table.exponent
    for _ in range(25):
        v = r4.from_coeffs([rng.randint(-2, 2) for _ in range(r4.h)])
        assert r4.adams(v, 1) == v
        j, k = rng.randint(1, 12), rng.randint(1, 12)
        assert r4.adams(r4.adams(v, k), j) == r4.adams(v, j * k)
        assert r4.adams(v, e) == v.dim() * r4.one()


def test_psi_ring_homomorphism(r4):
    rng = random.Random(7)
    for _ in range(20):
        a = r4.from_coeffs([rng.randint(0, 2) for _ in range(r4.h)])
        b = r4.from_coeffs([rng.randint(0, 2) for _ in range(r4.h)])
        for k in (2, 3, 5):
            assert r4.adams(a * b, k) == r4.adams(a, k) * r4.adams(b, k)
            assert r4.adams(a + b, k) == r4.adams(a, k) + r4.adams(b, k)


def test_psi_coprime_permutes_irreducibles(r4):
    for k in (5, 7, 11):
        images = [r4.adams(r4.irreducible(i), k) for i in range(r4.h)]
        coeff_sets = sorted(img.coeffs for img in images)
        expected = sorted(r4.irreducible(i).coeffs for i in range(r4.h))
        assert coeff_sets == expected


def test_lambda_addition_law_on_reps(r4):
    rng = random.Random(12)
    for _ in range(10):
        v = r4.from_coeffs([rng.randint(0, 1) for _ in range(r4.h)])
        w = r4.from_coeffs([rng.randint(0, 1) for _ in range(r4.h)])
        if v.dim() > 6 or w.dim() > 6:
            continue
        sv, sw = r4.lambda_series(v), r4.lambda_series(w)
        stot = r4.lambda_series(v + w)
        for k in range(len(stot)):
            acc = r4.zero()
            for i in range(k + 1):
                if i < len(sv) and k - i < len(sw):
                    acc = acc + sv[i] * sw[k - i]
            assert acc == stot[k]


def test_restriction_kernel_sigma4_d8(r4):
    rd8 = RepRing(table_dihedral8())
    res = restriction_kernel(r4, rd8, builtin_fusion("sigma4", "d8"))
    assert res.rank == 4
    # the kernel is generated by sigma - 1 - eps
    gen = r4.from_coeffs([-1, -1, 1, 0, 0])
    assert [b.coeffs for b in res.kernel_basis] in ([gen.coeffs], [(-1 * gen).coeffs])


def test_restriction_kernel_sigma3_c3(r3):
    rc3 = RepRing(table_cyclic(3))
    res = restriction_kernel(r3, rc3, builtin_fusion("sigma3", "c3"))
    gen = r3.from_coeffs([-1, 1, 0])  # eps - 1
    assert [b.coeffs for b in res.kernel_basis] in ([gen.coeffs], [(-1 * gen).coeffs])
    assert res.rank == 2


def test_restriction_kernel_identity(r3):
    fusion = list(range(r3.table.nclasses))
    res = restriction_kernel(r3, r3, fusion)
    assert res.kernel_basis == []
    assert res.rank == 3


def test_inconsistent_fusion_rejected(r4):
    rd8 = RepRing(table_dihedral8())
    bad = list(builtin_fusion("sigma4", "d8"))
    bad[1], bad[4] = bad[4], bad[1]  # breaks element orders
    with pytest.raises(InconsistentFusion):
        restriction_kernel(r4, rd8, bad)


def test_restriction_that_is_not_a_character_rejected(r4):
    # orders and power maps agree, but the class function is not a character
    rk = RepRing(table_cyclic_product(2, 2))
    with pytest.raises(InconsistentFusion, match="restriction is not a character"):
        restriction_kernel(r4, rk, [0, 2, 2, 2])


def test_builtin_groups():
    t = builtin_group("sigma4")
    assert t.nclasses == 5 and t.dims == [1, 1, 2, 3, 3]
    assert builtin_group("trivial").nclasses == 1
    x31 = builtin_group("extraspecial(3,1)")
    assert x31.nclasses == 11
    assert sorted(x31.dims) == [1] * 9 + [3, 3]
    with pytest.raises(UnknownGroup):
        builtin_group("sigma6")
    with pytest.raises(UnknownGroup):
        builtin_group("m11")


def set_entry(i, c, value):
    """Replace rows[i][c] by value(ring, old value)."""
    def edit(cy, rows):
        rows[i][c] = value(cy, rows[i][c])
    return edit


def copy_row(src, dst):
    """Make row dst a copy of row src."""
    def edit(cy, rows):
        rows[dst] = list(rows[src])
    return edit


def swap_entries(i, c, c2):
    """Exchange rows[i][c] and rows[i][c2]."""
    def edit(cy, rows):
        rows[i][c], rows[i][c2] = rows[i][c2], rows[i][c]
    return edit


# (group, edit of the rows, verdict, pair): each verdict is the message the
# power-basis inner product gave before the Z[C_e] kernel, and each pair the
# rows (i, j) of the row inner product that raised it, or None when the
# message names the pair; the cases from c4xc8 on are the verdicts and pairs
# from before linear rows were checked on their exponent vectors.  So each
# kernel keeps every check and its order.
CORRUPTIONS = [
    ("sigma3", set_entry(2, 1, lambda cy, v: cy.from_int(1)),
     "non-integral inner product: 3 not divisible by 6", (0, 2)),
    ("c6", set_entry(1, 1, lambda cy, v: cy.root_power(2)),
     "non-integral inner product: 1 not divisible by 6", (0, 1)),
    ("c6", set_entry(3, 2, lambda cy, v: cy.add(cy.root_power(1), cy.root_power(2))),
     "non-integral inner product: -2 not divisible by 6", (0, 3)),
    ("c3xc3", set_entry(4, 3, lambda cy, v: cy.scale(2, cy.root_power(1))),
     "non-integral inner product: -1 not divisible by 9", (0, 4)),
    ("sigma4", set_entry(3, 2, lambda cy, v: cy.scale(-1, v)),
     "non-integral inner product: -12 not divisible by 24", (0, 3)),
    # row 1 becomes row 0
    ("c2", set_entry(1, 1, lambda cy, v: cy.one), "row orthogonality fails at (0,1)", None),
    # a root of unity for another: the row stays linear
    ("c4xc8", set_entry(13, 7, lambda cy, v: cy.mul(v, cy.root_power(3))),
     "non-integral inner product: 1 not divisible by 32", (0, 13)),
    ("c4xc8", set_entry(31, 0, lambda cy, v: cy.root_power(4)),
     "non-integral inner product: -2 not divisible by 32", (0, 31)),
    # two equal linear rows
    ("c4xc8", copy_row(9, 20), "row orthogonality fails at (9,20)", None),
    # a row that is no longer all roots of unity
    ("c4xc8", set_entry(6, 5, lambda cy, v: cy.scale(-1, v)),
     "non-integral inner product: 2 not divisible by 32", (0, 6)),
    # permuted roots keep the row sum, so the trivial row passes
    ("c4xc8", swap_entries(13, 5, 7),
     "non-integral inner product: -2 not divisible by 32", (1, 13)),
    ("c36", swap_entries(20, 3, 30),
     "non-integral inner product: 1 not divisible by 36", (1, 20)),
    ("c6xc6", swap_entries(35, 1, 4),
     "non-integral inner product: 1 not divisible by 36", (1, 35)),
]


@pytest.mark.parametrize(
    "group,edit,verdict,pair", CORRUPTIONS,
    ids=["sigma3", "c6-zeta2", "c6-zeta-plus-zeta2", "c3xc3", "sigma4", "c2-equal-rows",
         "c4xc8-root-to-root", "c4xc8-minus-one-at-identity", "c4xc8-equal-rows",
         "c4xc8-negated-root", "c4xc8-swap", "c36-swap", "c6xc6-swap"],
)
def test_corrupted_table_rejected(group, edit, verdict, pair, monkeypatch):
    t = builtin_group(group)
    rows = [list(r) for r in t.rows]
    edit(t.cyclo, rows)
    # the (i, j) of each row inner product computed, read off the lifted rows
    pairs = []
    inner = CharacterTable._inner_conj

    def traced(self, values, conj_row):
        pairs.append(tuple(next(i for i, r in enumerate(lifted) if r is x)
                           for lifted, x in zip(self._lifted, (values, conj_row))))
        return inner(self, values, conj_row)

    monkeypatch.setattr(CharacterTable, "_inner_conj", traced)
    with pytest.raises(NotACharacterTable) as info:
        CharacterTable(
            "bad", t.order, t.exponent, t.class_sizes, t.class_orders,
            t.power_maps, rows,
        )
    assert str(info.value) == verdict
    if pair is not None:
        assert pairs[-1] == pair


MIJK_GROUPS = ["c36", "c6xc6", "c3xc3", "c30", "c2xc13", "extraspecial(5,1)", "sigma4",
               "d8"]


@pytest.mark.parametrize("group", MIJK_GROUPS)
def test_structure_constants_match_product_oracle(group):
    """Every V_i x V_j as the pointwise product decomposed, pair by pair."""
    t = builtin_group(group)
    cy = t.cyclo
    expected = [[t.decompose([cy.mul(a, b) for a, b in zip(ri, rj)]) for rj in t.rows]
                for ri in t.rows]
    assert RepRing(t).mijk == expected


def rebuilt(t, power_maps=None):
    """t's data through the CharacterTable constructor, optionally with
    other power maps."""
    return CharacterTable(t.name, t.order, t.exponent, t.class_sizes, t.class_orders,
                          t.power_maps if power_maps is None else power_maps, t.rows)


def counting(monkeypatch, method):
    """The argument tuples of every call of a CyclotomicRing method."""
    calls = []
    inner = getattr(CyclotomicRing, method)

    def traced(self, *args):
        calls.append(args)
        return inner(self, *args)

    monkeypatch.setattr(CyclotomicRing, method, traced)
    return calls


def test_a_cyclic_table_and_ring_conjugate_nothing(monkeypatch):
    # a linear row's conjugate is read off its exponents
    t = builtin_group("c36")
    calls = counting(monkeypatch, "conjugate")
    RepRing(rebuilt(t))
    assert calls == []


def test_ring_multiplies_each_value_pair_once(monkeypatch):
    t = builtin_group("extraspecial(5,1)")
    calls = counting(monkeypatch, "mul")
    RepRing(t)
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("name, count", [("extraspecial(5,1)", 180),
                                         ("extraspecial(3,2)", 333)])
def test_a_ring_decomposes_only_the_psi_rows_it_reads(monkeypatch, name, count):
    # lambda of V_i reads psi^k V_i for k <= dim V_i + 1 only
    t = builtin_group(name)
    calls = []
    inner = CharacterTable.decompose

    def traced(self, values):
        calls.append(values)
        return inner(self, values)

    monkeypatch.setattr(CharacterTable, "decompose", traced)
    RepRing(t)
    assert len(calls) == count


def check_packed(e, a, b):
    """Packed a + b and a - b mod e against the tuple oracle."""
    packing = PackedExponents(e, len(a))
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.mod_e(pa + pb) == packing.pack(tuple((x + y) % e for x, y in zip(a, b)))
    assert (packing.mod_e(pa + packing.all_e - pb)
            == packing.pack(tuple((x - y) % e for x, y in zip(a, b))))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_packed_sums_and_differences_match_the_tuple_oracle(data):
    # powers of 2 put e one below a field's guard bit
    e = data.draw(st.one_of(st.integers(1, 100), st.sampled_from([1, 2, 4, 8, 16, 32, 64])),
                  label="e")
    h = data.draw(st.integers(1, 40), label="classes")
    vec = st.lists(st.integers(0, e - 1), min_size=h, max_size=h)
    check_packed(e, data.draw(vec, label="a"), data.draw(vec, label="b"))


@pytest.mark.parametrize("e", [1, 2, 7, 8, 64, 100])
def test_packed_fields_at_their_extremes(e):
    # a field sum of 2e - 2, differences of e - 1 and 1 - e, and neighbours
    # at those extremes
    check_packed(e, [e - 1, e - 1, 0, e - 1], [e - 1, 0, e - 1, e - 1])


@pytest.mark.parametrize("k", [4, 9])
def test_a_wrong_power_map_at_a_composite_k_is_rejected(k):
    """pm[k] moved, on a class whose order does not divide k, to another
    class: the element-order check passes and the composition
    pm[p] o pm[k/p] = pm[k] of a prime p fails."""
    t = builtin_group("c36")
    m = t.model
    pms = {j: list(pm) for j, pm in t.power_maps.items()}
    c = next(c for c in range(t.nclasses) if k % t.class_orders[c])
    pms[k][c] = m.class_of[m.power(m.classes[c][0], k + 1)]
    assert pms[k] != t.power_maps[k]
    p = 2 if k == 4 else 3
    with pytest.raises(NotACharacterTable, match=f"^power maps {p}\\*{p} inconsistent$"):
        rebuilt(t, pms)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_missing_power_map_is_rejected(k):
    t = builtin_group("c6")
    pms = {j: pm for j, pm in t.power_maps.items() if j != k}
    with pytest.raises(NotACharacterTable, match=f"^missing power map for k={k}$"):
        rebuilt(t, pms)


def test_a_table_claiming_exponent_one_with_two_classes_is_rejected():
    # pm[1] is the identity map and pm[0] constant, so (1, 1) composes wrong
    t = builtin_group("c2")
    with pytest.raises(NotACharacterTable, match=r"^power maps 1\*1 inconsistent$"):
        CharacterTable("bad", t.order, 1, t.class_sizes, t.class_orders, {},
                       [[(v[0],) for v in row] for row in t.rows])


# builtin tables of up to 11 classes, abelian and not
ORACLE_GROUPS = ["c2", "c3", "c4", "c6", "c2xc2", "c2xc4", "c3xc3", "sigma3", "sigma4",
                 "d8", "extraspecial(3,1)"]


def columns_orthogonal(cy, order, sizes, rows):
    """sum_i chi_i(c) conj(chi_i(c')) = |G|/|c| if c = c' else 0, summed
    entry by entry; validate does not compute it."""
    for c in range(len(sizes)):
        for c2 in range(c, len(sizes)):
            total = cy.zero
            for row in rows:
                total = cy.add(total, cy.mul(row[c], cy.conjugate(row[c2])))
            if c != c2:
                expected = cy.zero
            elif sizes[c] <= 0 or order % sizes[c]:
                return False
            else:
                expected = cy.from_int(order // sizes[c])
            if total != expected:
                return False
    return True


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_tables_whose_columns_are_not_orthogonal_are_rejected(data):
    """Column orthogonality follows from row orthogonality of a square table,
    so every corruption that breaks the columns is caught by the rows.  The
    identity column stays rational; a non-rational one is rejected first."""
    t = builtin_group(data.draw(st.sampled_from(ORACLE_GROUPS), label="group"))
    cy = t.cyclo
    assert columns_orthogonal(cy, t.order, t.class_sizes, t.rows)
    rows, sizes = [list(r) for r in t.rows], list(t.class_sizes)
    index = st.integers(0, t.nclasses - 1)
    other = st.sampled_from([c for c in range(t.nclasses) if c != t.identity_class])
    root = st.integers(0, t.exponent - 1).map(cy.root_power)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        kind = data.draw(st.sampled_from(["swap", "scale", "entry", "size"]), label="kind")
        if kind == "swap":
            c, c2 = data.draw(other, label="c"), data.draw(other, label="c2")
            for row in rows:
                row[c], row[c2] = row[c2], row[c]
        elif kind == "scale":
            c, z = data.draw(other, label="c"), data.draw(root, label="zeta^k")
            for row in rows:
                row[c] = cy.mul(row[c], z)
        elif kind == "entry":
            i, c = data.draw(index, label="row"), data.draw(index, label="c")
            shift = cy.from_int(data.draw(st.integers(-2, 2), label="plus"))
            z = cy.one if c == t.identity_class else data.draw(root, label="zeta^k")
            rows[i][c] = cy.add(cy.mul(rows[i][c], z), shift)
        else:
            a = data.draw(st.sampled_from([c for c, n in enumerate(sizes) if n]), label="from")
            b = data.draw(index, label="to")
            moved = data.draw(st.integers(1, sizes[a]), label="moved")
            sizes[a] -= moved
            sizes[b] += moved
    if not columns_orthogonal(cy, t.order, sizes, rows):
        with pytest.raises(NotACharacterTable):
            CharacterTable("bad", t.order, t.exponent, sizes, t.class_orders,
                           t.power_maps, rows)


def test_a_non_rational_identity_value_names_its_row():
    t = table_cyclic(3)
    rows = [list(r) for r in t.rows]
    rows[2][t.identity_class] = t.cyclo.root_power(1)
    with pytest.raises(NotACharacterTable, match="^row 2 is not rational on the identity class$"):
        CharacterTable("bad", t.order, t.exponent, t.class_sizes, t.class_orders,
                       t.power_maps, rows)


@pytest.mark.parametrize("entries, count", [(lambda row: row + [row[-1]], 4),
                                             (lambda row: row[:-1], 2)],
                         ids=["long", "short"])
def test_a_row_of_the_wrong_length_names_its_row(entries, count):
    # a long row used to construct: the inner products zip it with the
    # class sizes and drop the extra entry
    t = table_sigma3()
    rows = [list(r) for r in t.rows]
    rows[1] = entries(rows[1])
    with pytest.raises(NotACharacterTable, match=f"^row 1 has {count} entries for 3 classes$"):
        CharacterTable("bad", t.order, t.exponent, t.class_sizes, t.class_orders,
                       t.power_maps, rows)


@pytest.mark.parametrize("group", ORACLE_GROUPS + ["c36", "c4xc8", "extraspecial(3,2)"])
def test_builtin_class_data_is_read_off_the_model(group):
    """A builtin table's class data and its model agree by construction, so
    no table checks them against each other."""
    t = builtin_group(group)
    m = t.model
    assert (m.size, m.exponent) == (t.order, t.exponent)
    assert [len(c) for c in m.classes] == t.class_sizes
    assert [m.orders[c[0]] for c in m.classes] == t.class_orders
    for k in range(t.exponent):
        assert t.power_map(k) == [m.class_power(ci, k) for ci in range(t.nclasses)]


def test_only_a_builtin_table_carries_a_model():
    t = table_sigma3()
    direct = CharacterTable("s3", t.order, t.exponent, t.class_sizes, t.class_orders,
                            t.power_maps, t.rows)
    assert direct.model is None and table_from_json(table_to_json(t)).model is None
    assert t.model is not None


def test_table_without_identity_class_rejected():
    t = table_cyclic(2)
    with pytest.raises(NotACharacterTable, match="no class of element order 1"):
        CharacterTable("bad", 2, 2, [1, 1], [2, 2], {}, t.rows)


def test_cyclic_product_table():
    t = table_cyclic_product(2, 2)
    assert t.nclasses == 4 and all(d == 1 for d in t.dims)


def test_extraspecial_table_scale():
    t = table_extraspecial(3, 2)
    assert t.nclasses == 83
    assert sorted(t.dims) == [1] * 81 + [9, 9]


def test_lambda_rho_closed_form_odd_primes():
    for p, d in ((3, 1), (3, 2), (5, 1)):
        for k in range(p ** d + 1):
            assert lambda_rho_brute(p, d, k) == lambda_rho_closed_form(p, d, k)


def test_lambda_rho_closed_form_p2():
    # d = 1 has n = -1 at k = 2; d >= 2 mixes both signs
    for d in (1, 2, 3):
        for k in range(2 ** d + 1):
            assert lambda_rho_brute(2, d, k) == lambda_rho_closed_form(2, d, k)


def test_lambda_rho_p2_counterexample():
    # by hand: 2*rho_C = 2 + 2*chi, lambda^2(2 + 2*chi) = 1 + 4*chi + chi^2
    # = 2 + 4*chi = 4*rho - 2; the unsigned odd-prime form would give
    # 2*rho + 2
    assert lambda_rho_brute(2, 2, 2) == (-2, 4) == lambda_rho_closed_form(2, 2, 2)
