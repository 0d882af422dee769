import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chernlab import cli
from chernlab.cli import COMMANDS, build_parser, run


def run_capture(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fgl_series_text(capsys):
    code, out = run_capture(capsys, "fgl", "--p", "2", "--n", "2", "--prec", "4",
                            "--series", "1", "--format", "text")
    assert code == 0
    assert out.strip() == "x"


def test_fgl_negation_series(capsys):
    code, out = run_capture(capsys, "fgl", "--p", "2", "--n", "2", "--prec", "32",
                            "--series", "-1", "--format", "text")
    assert code == 0
    assert out.strip() == "x^22 + x^16 + x^10 + x^4 + x"


def test_fgl_multiplicative_records_height_one(capsys):
    # the multiplicative law has height 1 whatever --n says
    code, out = run_capture(capsys, "fgl", "--multiplicative", "--p", "2", "--n", "3",
                            "--series", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["n"] == 1
    assert doc["clauses"][0]["witness"] == {"[2](x)": "x^2"}


def test_fgl_height_past_precision(capsys):
    # 2^n reaches the precision 32 at n = 5; n = 10^9 must not build 2^n
    code, out = run_capture(capsys, "fgl", "--p", "2", "--n", "1000000000", "--series", "2")
    assert code == 0
    assert json.loads(out)["clauses"][0]["witness"] == {"[2](x)": "0"}


def test_groebner_subcommand(capsys):
    code, out = run_capture(
        capsys, "groebner", "--q", "3", "--vars", "x,y",
        "--gens", "x^2 + y; y^2", "--order", "lex",
    )
    assert code == 0
    doc = json.loads(out)
    witness = doc["clauses"][0]["witness"]
    assert sorted(witness["basis"]) == ["x^2 + y", "y^2"]
    assert doc["clauses"][1]["witness"]["dimension"] == 4


def test_groebner_positive_dimensional_reports_infinite(capsys):
    code, out = run_capture(capsys, "groebner", "--q", "2", "--vars", "x,y", "--gens", "x*y")
    assert code == 0
    witness = json.loads(out)["clauses"][1]["witness"]
    assert witness["dimension"] == "infinite"
    assert witness["detail"] == "no pure power of 'x' among leading terms"


def test_groebner_unit_ideal_has_dimension_zero(capsys):
    # x*y + 1 and the unit 3 generate the whole ring: no standard monomials
    code, out = run_capture(capsys, "groebner", "--q", "5", "--vars", "x,y",
                            "--gens", "x*y+1;3")
    assert code == 0
    clauses = json.loads(out)["clauses"]
    assert clauses[0]["witness"] == {"basis": ["1"]}
    assert clauses[1]["witness"] == {"dimension": 0, "monomials": []}


def test_fgl_series_past_the_period(capsys):
    # 2^520 - 1 is read mod 2^5 = 32, the least power of 2 at least prec
    huge = run_capture(capsys, "fgl", "--p", "2", "--n", "1", "--prec", "32",
                       "--series", str(2**520 - 1), "--format", "text")
    small = run_capture(capsys, "fgl", "--p", "2", "--n", "1", "--prec", "32",
                        "--series", "31", "--format", "text")
    assert huge == small and huge[0] == 0


def test_omega_ch_sigma3(capsys):
    code, out = run_capture(capsys, "omega", "--group", "sigma3", "--p", "3",
                            "--n", "2", "--variant", "ch")
    assert code == 0
    doc = json.loads(out)
    assert doc["clauses"][0]["witness"]["count"] == 5
    assert doc["clauses"][0]["witness"]["maps"]["kappa"] == [0, 1, 2, 3, 4]


def test_omega_plain_sigma4(capsys):
    code, out = run_capture(capsys, "omega", "--group", "sigma4", "--p", "2", "--n", "2")
    assert code == 0
    assert json.loads(out)["clauses"][0]["witness"]["count"] == 17


@pytest.mark.parametrize("v", ["0", "1"])
def test_omega_prime_refuses_a_v_that_leaves_an_image_unannihilated(capsys, v):
    # as kappa does for the ch variant: u(a) is not a homomorphism on (Z/p^v)^n
    code = run(["omega", "--group", "sigma4", "--p", "2", "--n", "2", "--v", v,
                "--variant", "prime"])
    assert code == 2
    order = 2 if v == "0" else 4
    assert capsys.readouterr().err == f"error: p^{v} does not annihilate an image of order {order}\n"


@pytest.mark.parametrize("n,v,count", [("2", "2", 17), ("0", "0", 1)])
def test_omega_prime_sigma4_where_p_to_the_v_annihilates(capsys, n, v, count):
    # at n = 0 there are no images to annihilate
    code, out = run_capture(capsys, "omega", "--group", "sigma4", "--p", "2", "--n", n,
                            "--v", v, "--variant", "prime")
    assert code == 0
    assert json.loads(out)["clauses"][0]["witness"]["count"] == count


def test_chern_sigma3(capsys):
    code, out = run_capture(capsys, "chern", "--group", "sigma3", "--p", "3",
                            "--n", "2", "--prec", "64")
    assert code == 0
    witness = json.loads(out)["clauses"][0]["witness"]
    assert witness["dimension"] == 5
    assert witness["isomorphism"] == "F_3[c3_2]/(c3_2^5)"


def test_witness_exit_zero(capsys):
    code, out = run_capture(capsys, "witness", "--n", "2")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_unknown_group_usage_error(capsys):
    for argv in ("omega --group m24 --p 2 --n 2", "export-table --group sigma7"):
        assert run(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no builtin") and err.count("\n") == 1


def test_missing_subcommand_exits_2():
    assert run([]) == 2


def test_an_unknown_command_names_every_command(capsys):
    assert run(["bogus"]) == 2
    assert capsys.readouterr().err == (
        "error: argument command: invalid choice: 'bogus' (choose from 'fgl', 'groebner', "
        "'omega', 'chern', 'sigma4', 'sdiv', 'witness', 'xspec', 'table-check', "
        "'export-table', 'all')\n")


@pytest.mark.parametrize("argv", [["--help"], ["fgl", "--help"]])
def test_help_exits_0_with_usage_on_stdout(capsys, argv):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: chernlab " + " ".join(argv[:-1]))
    if argv == ["--help"]:
        assert "{" + ",".join(name for name, *_ in COMMANDS) + "}" in out


# SHA-256 of argparse's help text at 80 columns (Python 3.11), recorded
# before the option rows became one table
HELP_PINNED = {
    "--help": "528d4919ecd20a21fdc8ac2fc38296bbd0fa200c5fe0be99d084ec0c141068f9",
    "fgl --help": "f234df69e0d8c8b4130711dcd3fcaeb9cd77ce46794d12179dead4d41f7f62c2",
    "groebner --help": "cda79953f95e93d293c52c891b06c6f89da01ad9dcb7c86c9043c42895e1b379",
    "omega --help": "b7581ed501a837bc08981b68761050eb9470d11fcd6eccfb231e6460fca05020",
    "chern --help": "7eb60fa64bebaca4a17f58617bf048c3aea20947cf9b5e26200c6858b9f46774",
    "sigma4 --help": "9cef9c37762c769042147051d766a8d36f0ccd1125ceaf5dfa21a0570be857a0",
    "sdiv --help": "70ff9c053f6c6e3bb20ca1aa3d8c32e2c848b8de71fbbfb876e74f3fcec73258",
    "witness --help": "5795ef70728793832b4fc11bc746e24082d8b89dad4dcfd609bdd2988b4cc312",
    "xspec --help": "9065f386c703f9dcbd318679c5459b3c2e1150fbc624b552709659f8e074857a",
    "table-check --help": "90ed790beb385160d53c589d280db6d1dde9366007d869d0bd7685b75fce912d",
    "export-table --help": "3da400a2b9ec7e2c7ae8bbf2bd0abf7584507009276bea320942981a3fe0037d",
    "all --help": "799fb7b5828ef96d9c17140cfccf0d34c3d6777b20fa251f96dd754502dba2af",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's help layout")
@pytest.mark.parametrize("argv", sorted(HELP_PINNED))
def test_help_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out = run_capture(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_PINNED[argv]


def test_well_formed_jobs_load_no_argparse(tmp_path):
    # argparse, and the gettext and locale its first use loads, come in only
    # for help and usage errors
    script = """
import contextlib, io, sys
from chernlab.cli import run
jobs = ["sdiv", "fgl --p 2 --n 2 --prec 8 --series 3 --format text",
        "export-table --group c4 --out c4.json", "table-check --table c4.json",
        "omega --group sigma3 --p 3 --n 2 --variant ch"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(job.split()) for job in jobs]
    print(codes, sorted({"argparse", "gettext", "locale"} & set(sys.modules)), file=sys.stderr)
    print(run(["fgl", "--help"]), "argparse" in sys.modules, file=sys.stderr)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stderr == "[0, 0, 0, 0, 0] []\n0 True\n"

def test_run_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["chernlab", "fgl", "--p", "2", "--n", "2", "--prec", "4",
                                      "--series", "1", "--format", "text"])
    assert run() == 0
    assert capsys.readouterr().out == "x\n"


def _commands(parser):
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_the_parser_builds_every_subparser():
    all_names = [name for name, *_ in COMMANDS]
    assert len(all_names) == 11
    assert _commands(build_parser()) == all_names


@pytest.mark.parametrize("argv", [
    ["table-check", "--table", "", "--p", "3", "--d", "1"],
    ["omega", "--table", "", "--p", "2", "--n", "1", "--variant", "ch"],
    ["chern", "--table", "", "--p", "2", "--n", "1"],
])
def test_an_empty_table_path_is_a_usage_error(capsys, argv):
    # an empty --table is given, not absent: it is read and cannot be
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read table: ") and err.count("\n") == 1


def test_the_acceptance_suite_is_pinned(capsys):
    # the one certificate whose witnesses have int dict keys and tuples
    code, out = run_capture(capsys, "all")
    assert code == 0
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "146d243f3a9f650c671e4ae720ca88191293a7100ce3dbe32857c7d529b8564e")


# Chern-ring presentations; c12 at p = 3 kills generators in two rounds
CHERN_PINNED = {
    "chern --group d8 --p 2 --n 2 --prec 64":
        "a2e25ddfda7f38ecc062419d0421b7ae8f43f0bdeb4bf814a765ebb1eb3a225b",
    "chern --group c12 --p 3 --n 2 --prec 64":
        "9519179ee9e2b39f00fbbde3cbb27cd87834fe7c52468c6d91d240e50fffd9db",
    "chern --group c3xc3 --p 3 --n 2":
        "16f672d249778fb6abf9cea04709c740422affa1487312d86b4dfe24dfd8654d",
    # the largest Buchberger run: a reduced basis of 135 generators
    "chern --group c4xc4 --p 2 --n 2":
        "17268354ea81d2ccbb806aab15ec65fd235f915fbdc7e83aedf726c0f30d27a7",
}


@pytest.mark.parametrize("argv", sorted(CHERN_PINNED))
def test_chern_presentations_are_pinned(capsys, argv):
    code, out = run_capture(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHERN_PINNED[argv]


def test_out_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["sdiv", "--out", str(out1)]) == 0
    assert run(["sdiv", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_export_and_reingest(tmp_path, capsys):
    path = tmp_path / "sigma4.json"
    assert run(["export-table", "--group", "sigma4", "--out", str(path)]) == 0
    code, out = run_capture(capsys, "table-check", "--table", str(path))
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_table_check_rejects_corruption(tmp_path, capsys):
    path = tmp_path / "bad.json"
    assert run(["export-table", "--group", "sigma3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["irreducibles"][2]["values"][1] = [6, 1, 0]
    path.write_text(json.dumps(doc))
    code, out = run_capture(capsys, "table-check", "--table", str(path))
    assert code == 1  # failed validation certificate
    assert json.loads(out)["status"] == "fail"


def test_a_table_with_non_integral_lambdas_is_refused(tmp_path, capsys):
    # c3 with psi^2 the identity: the power maps are consistent and ingest,
    # but lambda^2(chi1) = (chi1^2 - chi1)/2 is not integral
    path = tmp_path / "c3.json"
    assert run(["export-table", "--group", "c3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    for k, cls in enumerate(doc["classes"]):
        cls["power"] = {"2": k}
    path.write_text(json.dumps(doc))
    error = "lambda of irreducible 1 is not integral: coefficient -1 not divisible by 2"
    code, out = run_capture(capsys, "table-check", "--table", str(path))
    assert code == 1  # failed validation certificate
    assert json.loads(out)["clauses"][0]["witness"] == {"error": error}
    for argv in ("omega --p 3 --n 1 --variant ch", "chern --p 3 --n 1"):
        assert run([*argv.split(), "--table", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"


def test_table_check_schema_error_is_usage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["table-check", "--table", str(path)]) == 2


def test_xspec_small(capsys):
    code, out = run_capture(capsys, "xspec", "--p", "3", "--d", "1", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["clauses"]}
    assert by_name["u_pairs_enumerated"]["witness"]["count"] == 11


def test_extraspecial_table_check(capsys):
    code, out = run_capture(capsys, "table-check", "--p", "3", "--d", "1")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("d", ["0", "-1"])
def test_table_check_names_the_supported_parameters(capsys, d):
    # --d 0 is given, not absent: the error names what is supported
    assert run(["table-check", "--p", "3", "--d", d]) == 2
    assert capsys.readouterr().err == "error: supported parameters: (3,1), (3,2), (5,1)\n"


def test_a_group_past_the_table_ceiling_keeps_its_model(capsys):
    code, out = run_capture(capsys, "omega", "--group", "c1000", "--p", "2", "--n", "1")
    assert code == 0
    assert json.loads(out)["clauses"][0]["witness"]["count"] == 8


# SHA-256 of certificates read off the largest builtin models in use (720,
# 343 and 1000 elements) and of criterion 8's census; the first two were
# recorded before the table fill used generator rows, the last two before
# the conjugation orbits became walks under the generators
LARGE_MODEL_PINNED = {
    "omega --group sigma6 --p 3 --n 1":
        "407c1bbceb9e46a8e7015724e45bbab98841b2d62f2a88e80d8424410d07cb9c",
    "export-table --group extraspecial(7,1)":
        "a6dbc9000ccdf64ea4bd9da885f673d947ea195c576af871075c3629ab34f13b",
    "omega --group c1000 --p 2 --n 1":
        "216d637f58702070073513a8e56ece7fde044d89dba84df749f61d77853435d3",
    "xspec --p 3 --d 2 --n 2":
        "603406d506c1a8559302f890d38e281a2352467a7cd50a86826777de2967878e",
}


@pytest.mark.parametrize("argv", sorted(LARGE_MODEL_PINNED))
def test_large_model_certificates_are_pinned(capsys, argv):
    code, out = run_capture(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LARGE_MODEL_PINNED[argv]


# the determinant pin keeps these under the OmegaCh node ceiling; xi reads
# their divisors of several points off pairing rows
PAST_THE_NODE_CEILING_PINNED = {
    "omega --group d8 --p 2 --n 3 --variant ch":
        "500a00a425de2f949b4f900fa07bde270c96bdce4725f26fb441338687ef8353",
    "omega --group extraspecial(3,1) --p 3 --n 2 --variant ch":
        "20874988d30820c23e4b60ace2f718c3da1d26709c034f8f5311d149340e112d",
}


@pytest.mark.parametrize("argv,count", [
    ("omega --group d8 --p 2 --n 3 --variant ch", 92),
    ("omega --group extraspecial(3,1) --p 3 --n 2 --variant ch", 105),
])
def test_censuses_once_past_the_node_ceiling_pass(capsys, argv, count):
    code, out = run_capture(capsys, *argv.split())
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass" and doc["clauses"][0]["witness"]["count"] == count
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == PAST_THE_NODE_CEILING_PINNED[argv])


# the largest OmegaCh censuses in the tests; c4 at n = 5 has |Theta| = 1024,
# so its search empties its divisor tables many times over
LARGE_OMEGA_CH_PINNED = {
    "omega --group c8 --p 2 --n 3 --variant ch":
        "6a28fd8a07864cda46561999de6fead69c536d7c09a0cab0bfa29aec47789abd",
    "omega --group sigma4 --p 2 --n 3 --variant ch":
        "d31bf7f9784f1cab374574a4a451908917255774ac52ea5bfe92f36a0399f2b3",
    "omega --group c4 --p 2 --n 5 --variant ch":
        "2937685dbd83bcecba7f8cd5eb64f15c67a50fd15e43a983835d00001abbd2b3",
}


@pytest.mark.parametrize("argv", sorted(LARGE_OMEGA_CH_PINNED))
def test_large_omega_ch_censuses_are_pinned(capsys, argv):
    code, out = run_capture(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LARGE_OMEGA_CH_PINNED[argv]


def test_an_abelian_census_at_n3_is_pinned(capsys):
    # xi reads every divisor of this census off a pairing row
    code, out = run_capture(capsys, *"omega --group c4 --p 2 --n 3 --variant ch".split())
    assert code == 0
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "41a3da18755d29f406f001aea37563089630f57a00d7185cc47bbac4bb61bfa2")


# SHA-256 of Omega'' censuses, recorded from the backtracking search that the
# extension walk replaced
DPRIME_PINNED = {
    "omega --group sigma4 --p 2 --n 2 --variant dprime":
        "5f9b2ec17f3ca76d2379878df97ba3f704ab8db71577ab98583ac9b8dfcee87a",
    "omega --group d8 --p 2 --n 2 --variant dprime":
        "809935e3f5b298faa18656df9b10c489a44ac61342f5c5200c413da773bd2f66",
    "omega --group c2xc4 --p 2 --n 2 --variant dprime":
        "97aebd8a777c5deb9db2e73b0e4b53e7361be1c74772dddc436e9f86ca1b4517",
    "omega --group extraspecial(3,1) --p 3 --n 2 --variant dprime":
        "4834cd2e2b1b012231ef1f401c316e9d51b191a86f6cac6504be842ef0c50af1",
}


@pytest.mark.parametrize("argv", sorted(DPRIME_PINNED))
def test_omega_dprime_certificates_are_pinned(capsys, argv):
    code, out = run_capture(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DPRIME_PINNED[argv]


@pytest.mark.parametrize("group,n,v,expected", [
    # w = 2 for both groups at p = 2: v = 1 leaves an image of order 4 at
    # n >= 1, v = 3 is past the p-part, and at n = 0 a v < w is taken; the
    # ch variant answers alike from a builtin group and from its exported table
    ("c4", "1", "1", (2, "error: p^1 does not annihilate an image of order 4\n")),
    ("c4", "1", "3", (2, "error: group exponent not divisible by p^v\n")),
    ("sigma4", "1", "1", (2, "error: p^1 does not annihilate an image of order 4\n")),
    ("sigma4", "1", "3", (2, "error: group exponent not divisible by p^v\n")),
    ("c4", "0", "1", (0, "")),
    ("c4", "0", "0", (0, "")),
    ("c4", "0", "3", (2, "error: group exponent not divisible by p^v\n")),
])
def test_every_lattice_census_checks_v_alike(tmp_path, capsys, group, n, v, expected):
    path = str(tmp_path / f"{group}.json")
    assert run(["export-table", "--group", group, "--out", path]) == 0
    outcomes = []
    for source, variant in [(["--group", group], "prime"), (["--group", group], "dprime"),
                            (["--group", group], "ch"), (["--table", path], "ch")]:
        code = run(["omega", *source, "--p", "2", "--n", n, "--v", v, "--variant", variant])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes == [expected] * 4


def test_a_bad_v_is_refused_before_the_search(capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("the OmegaCh search ran")

    monkeypatch.setattr(cli, "enumerate_omega_ch", no_search)
    code = run("omega --group sigma3 --p 3 --n 2 --v 3 --variant ch".split())
    assert code == 2
    assert capsys.readouterr().err == "error: group exponent not divisible by p^v\n"


def test_an_ingested_table_gives_the_census_without_maps(tmp_path, capsys):
    path = tmp_path / "sigma4.json"
    assert run(["export-table", "--group", "sigma4", "--out", str(path)]) == 0
    census = "--p 2 --n 2 --variant ch".split()
    _, builtin = run_capture(capsys, "omega", "--group", "sigma4", *census)
    expected = json.loads(builtin)["clauses"][0]["witness"]
    del expected["maps"]
    # the table has no group model, so no maps
    code, out = run_capture(capsys, "omega", "--table", str(path), *census)
    assert code == 0
    assert json.loads(out)["clauses"][0]["witness"] == expected


@pytest.mark.parametrize("argv", [
    "fgl --p 4 --n 2 --series 2",
    "fgl --p 1 --n 2 --series 2",
    "xspec --p 1 --d 1 --n 1",
    "omega --group c4 --p 1 --n 1",
    "chern --group c4 --p 0 --n 1",
    "table-check --p 4 --d 1",
    "witness --n 1",
    "witness --n 0",
    "groebner --q 4 --vars x --gens 0",
    "xspec --p 3 --d 0 --n 1",
    "omega --group c0 --p 2 --n 1",
    "export-table --group c0",
    "omega --group c4 --p 2 --n -1",
    "omega --group c4 --p 2 --n 2 --variant ch --v -1",
    "omega --group c4 --p 2 --n 2 --variant prime --v -1",
    "omega --group c4 --p 2 --n 2 --variant dprime --v -1",
    "omega --p 2 --n 2",
    "omega --p 2 --n 2 --variant prime",
    "omega --p 2 --n 2 --variant dprime",
    "groebner --q 3 --vars x --gens y",
    "groebner --q 3 --vars x --gens x^-1",
    "omega --group c4 --p 2 --n 2 --variant ch --table /nonexistent.json",
    "omega --p 2 --n 2 --variant ch --table /nonexistent.json",
    # --group and --table name two tables: refused, not one silently ignored
    "omega --group sigma4 --table {tmp}/c2.json --p 2 --n 1 --variant ch",
    "chern --group c2 --table {tmp}/c2.json --p 2 --n 1",
    # lattices too large to search: a ResourceLimit, not a hang or a RecursionError
    "omega --group c8 --p 2 --n 2 --variant dprime",
    "omega --group c4xc4 --p 2 --n 2 --variant dprime",
    # a --v past the p-part of the exponent, refused by the level check
    # before any lattice is built
    "omega --group trivial --p 3 --n 3 --v 3 --variant dprime",
    "omega --group sigma3 --p 3 --n 2 --v 3 --variant ch",
    "omega --group c2 --p 2 --n 1500",
    "omega --group c2 --p 2 --n 40 --variant dprime",
    # a standard-monomial box past the ceiling: 64^4 cells
    "groebner --q 2 --vars x,y,z,w --gens x^64;y^64;z^64;w^64",
    # generators past the degree ceiling, refused before any reduction
    "groebner --q 2 --vars x,y,z --gens x^1000;y^1000;z^1000",
    "groebner --q 2 --vars x --gens x^100000000",
    "groebner --q 2 --vars x --gens x^10000000+1;x^2+x",
    # within every degree ceiling, refused by the reduction ceiling
    "groebner --q 5 --vars x,y --order lex --gens x^64+2*x*y+y+1;y^64+x^3+3*x",
    # degree and precision ceilings of the Chern-ring presentation and the laws
    "chern --group extraspecial(5,1) --p 5 --n 1",
    "chern --group extraspecial(3,1) --p 3 --n 1",
    "chern --group c2 --p 2 --n 2 --prec 2",
    "chern --group sigma4 --p 3 --n 1 --prec 8",
    "fgl --multiplicative --p 2 --n 1 --prec 0 --series 2",
    # group orders past the ceiling are refused before any table is built
    "omega --group c100000 --p 2 --n 1",
    "export-table --group c100000",
    # character tables whose classes^2 * phi(exponent) is past the table ceiling
    "export-table --group c1000",
    "export-table --group c400",
    "export-table --group c200",
    "omega --group c200 --p 2 --n 1 --variant ch",
    "omega --group sigma7 --p 3 --n 2 --variant plain",
    "omega --group extraspecial(3,1000000000) --p 3 --n 1",
    "omega --group extraspecial(9,1) --p 3 --n 1",
    # powers of p that the ceilings refuse by their exponents, before building them
    "xspec --p 3 --d 1 --n 5",
    "xspec --p 3 --d 1 --n 6",
    "xspec --p 3 --d 1 --n 1000000000",
    "chern --group c2 --p 2 --n 1000000000",
    "witness --n 1000000000",
    "omega --group c4 --p 2 --n 2 --variant ch --v 1000000000",
    # at n = 0 a huge --v is refused by the level check before any lattice
    "omega --group c2 --p 2 --n 0 --variant dprime --v 100000000",
    "omega --group c4 --p 2 --n 0 --variant ch --v 1000000000",
    # an --out path that cannot be written: no such directory, or a directory
    "witness --out {tmp}/nonexistent/d/x.json",
    "witness --out {tmp}",
])
def test_bad_parameters_exit_2_with_one_error_line(capsys, tmp_path, argv):
    assert run(argv.replace("{tmp}", str(tmp_path)).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob(".chernlab-*"))
