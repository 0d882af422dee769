import json
import re
import tracemalloc

import pytest

from chernlab.cli import run
from chernlab.errors import NotACharacterTable, SchemaError
from chernlab.repring import (
    RepRing,
    builtin_fusion,
    builtin_group,
    restriction_kernel,
    table_dihedral8,
    table_sigma4,
)
from chernlab.table_io import table_from_dict, table_from_json, table_to_dict, table_to_json


@pytest.mark.parametrize("name", ["trivial", "c4", "sigma3", "sigma4", "d8",
                                  "extraspecial(3,1)"])
def test_round_trip(name):
    table = builtin_group(name) if name != "d8" else table_dihedral8()
    doc = table_to_json(table)
    back = table_from_json(doc)
    assert back.rows == table.rows
    assert back.class_sizes == table.class_sizes
    assert back.power_maps == {k: list(v) for k, v in table.power_maps.items()}
    # byte-identical re-export
    assert table_to_json(back) == doc


def test_unknown_field_rejected():
    doc = table_to_dict(builtin_group("c2"))
    doc["surprise"] = 1
    with pytest.raises(SchemaError):
        table_from_json(json.dumps(doc))


def test_schema_version_checked():
    doc = table_to_dict(builtin_group("c2"))
    doc["schema"] = "chernlab/2"
    with pytest.raises(SchemaError):
        table_from_json(json.dumps(doc))


def test_corrupted_value_fails_validation():
    doc = table_to_dict(builtin_group("sigma3"))
    doc["irreducibles"][2]["values"][1] = [6, 1, 0]  # sigma(transposition) = 1
    with pytest.raises(NotACharacterTable):
        table_from_json(json.dumps(doc))


def _set(*path_and_value):
    """An edit of the exported c2 table: the value at a path of keys."""
    *path, value = path_and_value

    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _no_identity_class(doc):
    doc["classes"][0]["elt_order"] = 2
    for item in doc["irreducibles"]:
        item["dim"] = None


# (edit of the c2 table, the path the SchemaError names)
BAD_FIELDS = [
    (_set("classes", 0, "size", "1"), "$.classes[0].size"),
    (_set("classes", 1, "elt_order", "2"), "$.classes[1].elt_order"),
    (_set("classes", 0, "size", 1.0), "$.classes[0].size"),
    (_set("classes", 1, "elt_order", 2.0), "$.classes[1].elt_order"),
    (_set("classes", 1, "elt_order", 0), "$.classes[1].elt_order"),
    (_set("classes", 1, "elt_order", 1), "$.classes[1].elt_order"),
    (_set("classes", 0, "size", True), "$.classes[0].size"),
    (_set("irreducibles", 0, "dim", True), "$.irreducibles[0].dim"),
    (_set("irreducibles", 1, "dim", 0), "$.irreducibles[1].dim"),
    (_set("order", True), "$.order"),
    (_set("classes", 0, "power", 5), "$.classes[0].power"),
    (_no_identity_class, "$.classes"),
    (_set("irreducibles", 1, "values", 1, [2, True]), "$.irreducibles[1].values[1]"),
    (_set("irreducibles", 1, "values", 1, [2, -1.0]), "$.irreducibles[1].values[1]"),
]


@pytest.mark.parametrize("edit,path", BAD_FIELDS, ids=[
    "size-string", "elt_order-string", "size-float", "elt_order-float", "elt_order-zero",
    "two-identity-classes", "size-bool", "dim-bool", "dim-zero", "order-bool",
    "power-not-object", "no-identity-class", "coordinate-bool", "coordinate-float",
])
def test_bad_field_is_a_schema_error(tmp_path, capsys, edit, path):
    doc = table_to_dict(builtin_group("c2"))
    edit(doc)
    with pytest.raises(SchemaError, match="^" + re.escape(f"{path}: ")):
        table_from_json(json.dumps(doc))
    table = tmp_path / "bad.json"
    table.write_text(json.dumps(doc))
    assert run(["table-check", "--table", str(table)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


def test_bad_conductor_rejected():
    doc = table_to_dict(builtin_group("c2"))
    doc["irreducibles"][0]["values"][0] = [3, 1, 0]  # 3 does not divide 2
    with pytest.raises(SchemaError):
        table_from_json(json.dumps(doc))


def test_a_value_at_a_smaller_conductor_ingests_as_at_the_exponent():
    # c6's values written at conductor 6, then each at the least conductor
    # that holds it: 1 at 1, -1 at 2, zeta_6^2 and zeta_6^4 at 3
    doc = table_to_dict(builtin_group("c6"))
    smaller = {(6, 1, 0): [1, 1], (6, -1, 0): [2, -1],
               (6, -1, 1): [3, 0, 1], (6, 0, -1): [3, -1, -1]}
    moved = json.loads(json.dumps(doc))
    for item in moved["irreducibles"]:
        item["values"] = [smaller.get(tuple(v), v) for v in item["values"]]
    assert moved != doc
    assert table_from_dict(moved).rows == table_from_dict(doc).rows == builtin_group("c6").rows


def test_ingested_d8_usable_for_restriction():
    # export the dihedral table, re-ingest it without its group model, and
    # run the Sylow restriction against the symmetric group
    doc = table_to_json(table_dihedral8())
    td8 = table_from_json(doc)
    assert td8.model is None
    r4 = RepRing(table_sigma4())
    rd8 = RepRing(td8)
    res = restriction_kernel(r4, rd8, builtin_fusion("sigma4", "d8"))
    gen = r4.from_coeffs([-1, -1, 1, 0, 0])  # sigma - 1 - eps
    assert [b.coeffs for b in res.kernel_basis] in ([gen.coeffs], [(-1 * gen).coeffs])
    assert res.rank == 4


def test_huge_exponent_costs_the_input_size(tmp_path, capsys):
    # a 267-byte c2 table claiming exponent 10^6: the power objects are
    # short, so the table is refused before anything of size e is built
    doc = table_to_dict(builtin_group("c2"))
    doc["exponent"] = 10 ** 6
    table = tmp_path / "huge.json"
    table.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = run(["table-check", "--table", str(table)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "error: $.classes[0].power: missing exponent 2\n"
    assert peak < 4 << 20  # bytes; building the power maps first took 130 MB


@pytest.mark.parametrize("power,message", [
    ({"2": 0, "3": 1}, "unknown exponents ['3']"),
    ({"2": 0, "02": 0}, "unknown exponents ['02']"),
    ({}, "missing exponent 2"),
    ({"2": 5}, "class index out of range"),
])
def test_power_keys_are_exactly_two_to_e_minus_one(power, message):
    doc = table_to_dict(builtin_group("c2"))
    doc["exponent"] = 3
    doc["classes"][0]["power"] = power
    with pytest.raises(SchemaError, match=re.escape(message)):
        table_from_json(json.dumps(doc))
