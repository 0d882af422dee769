"""Property tests of the command line over small argument spaces.

Every drawn argv must end in exit 0 or 1 with a JSON certificate on stdout,
or in exit 2 with one ``error:`` line on stderr; ``cli.run`` never raises.
The exact parser of well-formed command lines agrees with argparse wherever
it answers, and declines wherever argparse reports an error or prints help.
"""

import importlib.util
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernlab import cli
from chernlab.cli import run
from chernlab.errors import UsageError

GROUPS = ["trivial", "c2", "c4", "sigma3", "d8", "sigma7", "m24", "sigma9", "c0", "", None]
TOKENS = ["x", "y", "x^2", "x*y", "2", "0", "g", "(g+1)*x", "2g^3", "x^-1", "z", "x^", "1/2"]
MISSING_TABLE = str(Path(__file__).resolve().parent / "no-such-table.json")


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def option(name, values):
    """[name, value] or nothing, as a strategy over argv fragments."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def argv(*parts):
    """Concatenate fixed words and strategies of argv fragments."""
    return st.tuples(*(st.just([p]) if isinstance(p, str) else p for p in parts)).map(
        lambda chunks: [word for chunk in chunks for word in chunk]
    )


def flag(name):
    return st.sampled_from([[], [name]])


def word(strategy):
    return strategy.map(lambda w: [w])


def groups():
    return st.sampled_from(GROUPS).map(lambda g: [] if g is None else ["--group", g])


def gens():
    term = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3).map(" + ".join)
    return st.lists(term, min_size=1, max_size=3).map("; ".join)


def series_k():
    """Small k, and k far past the period p^N on either side of 0."""
    return st.one_of(ints(-2, 3), st.sampled_from([str(2**600 + 3), str(-(2**600))]))


ARGVS = {
    "fgl": argv(
        "fgl", "--p", word(st.sampled_from(["1", "2", "3", "4"])), "--n", word(ints(-2, 3)),
        option("--prec", st.sampled_from(["-1", "0", "2", "8"])),
        "--series", word(series_k()), flag("--multiplicative"),
    ),
    "omega": argv(
        "omega", "--p", word(st.sampled_from(["2", "3"])), "--n", word(ints(-2, 3)),
        option("--v", ints(-2, 3)), groups(),
        "--variant", word(st.sampled_from(["plain", "ch", "prime", "dprime"])),
    ),
    "groebner": argv(
        "groebner", "--q", word(st.sampled_from(["0", "2", "3", "4", "6"])),
        "--vars", word(st.sampled_from(["x", "x,y", "x,x", ""])),
        "--gens", word(gens()), option("--order", st.sampled_from(["lex", "grlex"])),
    ),
    "witness": argv("witness", option("--n", ints(-2, 3))),
    "xspec": argv("xspec", "--p", "3", "--d", word(ints(-1, 1)), "--n", word(ints(-1, 1))),
    "table-check": argv("table-check", option("--table", st.just(MISSING_TABLE))),
}


@pytest.mark.parametrize("command", sorted(ARGVS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_cli_ends_in_certificate_or_one_error_line(command, data):
    args = data.draw(ARGVS[command], label="argv")
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(args)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        json.loads(out.getvalue())


# values each option takes, then values that fail a type, a check or a choice
# or that start with '-'
GOOD = {"--p": ["2", "3"], "--n": ["0", "2"], "--v": ["1"], "--prec": ["8"], "--d": ["1"],
        "--q": ["5"], "--series": ["3"], "--vars": ["x,y"], "--gens": ["x^2"],
        "--group": ["c4"], "--table": ["t.json"], "--out": ["o.json", ""],
        "--format": ["json", "text"], "--order": ["lex", "grlex"],
        "--variant": ["plain", "ch", "prime", "dprime"]}
BAD = ["4", "1", "-1", "-5", "--n", "-h", "x", "2**600", str(2**600), str(-(2**600)), "xml",
       "bogus", " 3", "3.0"]
# tokens argparse reads but the exact parser leaves to it
ODD = ["--", "-h", "--help", "--var", "--gr", "--pre", "--mult", "--form", "--bogus", "-p",
       "--p=3", "--format=text", "--group=c4", "3", "fgl", "--multiplicative", "--table",
       "--group"]
NAMES = [name for name, *_ in cli.COMMANDS]


@st.composite
def command_lines(draw):
    """A command (rarely not one) and some of its options in any order, each
    with a good value or a bad one, and now and then a token out of ODD."""
    name = draw(st.sampled_from(NAMES + ["bogus", "--help", "omeg"]))
    rows = next((c[3] for c in cli.COMMANDS if c[0] == name), ())
    argv = [name]
    for flag, _, keywords in draw(st.permutations(rows)):
        if not draw(st.integers(0, 4)):
            continue
        argv.append(flag)
        if keywords.get("action") != "store_true":
            good = draw(st.integers(0, 5)) > 0
            argv.append(draw(st.sampled_from(GOOD[flag] if good else BAD)))
    for _ in range(draw(st.integers(0, 2)) // 2):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(ODD)))
    return argv


def argparse_vars(argv):
    """vars() of argparse's namespace, or None after a usage error or help."""
    try:
        with redirect_stdout(StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except (UsageError, SystemExit):
        return None


@settings(derandomize=True, deadline=None, max_examples=400)
@given(argv=command_lines())
def test_the_exact_parser_agrees_with_argparse_or_declines(argv):
    exact = cli._parse_exact(argv)
    expected = argparse_vars(argv)
    if exact is not None:
        assert vars(exact) == expected
    if expected is None:
        assert exact is None


def _jobs_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs


BENCHMARK_ARGVS = sorted({tuple(job.argv) for workload in ("census", "tables", "algebra")
                          for job in _jobs_module().pool(workload)})


@pytest.mark.parametrize("argv", BENCHMARK_ARGVS, ids=" ".join)
def test_every_benchmark_job_takes_the_exact_path(argv):
    exact = cli._parse_exact(list(argv))
    assert exact is not None
    assert vars(exact) == argparse_vars(list(argv))
