"""Command-line front end: pipelines, censuses, table ingestion.

Exit codes: 0 when every certificate clause passes, 1 when a clause fails,
2 on usage errors and on inputs a resource ceiling refuses.  Certificates are
emitted as deterministic JSON (``cert.dumps``, the default) or a text
summary; --out writes atomically.  Every command's options are rows of one
table (``COMMANDS``): a well-formed command line is parsed from the option
table (``_parse_exact``), and argparse is loaded for help and usage errors
(``build_parser``).
"""

from __future__ import annotations

import os
import sys
import tempfile
from types import SimpleNamespace

from . import acceptance
from .cert import SCHEMA, Certificate, dumps
from .errors import (
    ChernlabError,
    DegreeCeiling,
    InfiniteDimensional,
    ResourceLimit,
    SchemaError,
    UsageError,
    ValidationError,
)
from .fgl import honda_fgl, multiplicative_fgl
from .field import GF, is_prime
from .groebner import GENERATOR_DEGREE_CEILING, buchberger, standard_monomials
from .groups import builtin_model
from .omega import (
    enumerate_omega,
    enumerate_omega_ch,
    enumerate_omega_dprime,
    enumerate_omega_prime,
    kappa,
    xi_class_maps,
)
from .pipelines import nonpositive_divisor_witness, sdiv_checks, sigma4_pipeline
from .poly import PolyRing, grlex_order, lex_order, parse_poly
from .presentation import build_presentation
from .repring import RepRing, builtin_group
from .table_io import ingest_table, table_to_json
from .xspec import extraspecial_table_checks, xspec_census


def _emit(doc: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(doc)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".chernlab-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(doc)
        os.replace(tmp, out)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _finish(cert: Certificate, args) -> int:
    doc = cert.to_json() if args.format == "json" else cert.summary() + "\n"
    _emit(doc, args.out)
    return 0 if cert.status == "pass" else 1


def _table_or_builtin(args) -> RepRing:
    if args.table is not None:
        return RepRing(ingest_table(args.table))
    if not args.group:
        raise UsageError("need --group or --table")
    return RepRing(builtin_group(args.group))


def cmd_fgl(args) -> int:
    if args.multiplicative:
        law = multiplicative_fgl(args.p, args.prec)
    else:
        law = honda_fgl(args.p, args.n, args.prec)
    cert = Certificate(
        "fgl", {"p": args.p, "n": law.n, "prec": args.prec, "series": args.series}
    )
    text = law.series_text(args.series)
    cert.add("series", True, {f"[{args.series}](x)": text})
    if args.format == "text":
        _emit(text + "\n", args.out)
        return 0
    return _finish(cert, args)


def cmd_groebner(args) -> int:
    field = GF(args.q)
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    ring = PolyRing(field, names)
    order = lex_order(ring.nvars) if args.order == "lex" else grlex_order(ring.nvars)
    gens = [parse_poly(ring, g) for g in args.gens.split(";") if g.strip()]
    for g in gens:
        degree = max((sum(ring.exponents(m)) for m in g.terms), default=0)
        if degree > GENERATOR_DEGREE_CEILING:
            raise DegreeCeiling(
                f"generator degree {degree} exceeds ceiling {GENERATOR_DEGREE_CEILING}")
    gb = buchberger(gens, order)
    cert = Certificate(
        "groebner",
        {"q": args.q, "vars": names, "order": args.order},
    )
    cert.add("reduced_basis", True, {"basis": [p.text(order) for p in gb.polys]})
    try:
        std = standard_monomials(gb)
        cert.add("standard_monomials", True,
                 {"dimension": len(std), "monomials": [list(ring.exponents(m)) for m in std]})
    except InfiniteDimensional as exc:
        cert.add("standard_monomials", True, {"dimension": "infinite", "detail": str(exc)})
    return _finish(cert, args)


def cmd_omega(args) -> int:
    cert = Certificate(
        "omega",
        {"group": args.group or args.table, "p": args.p, "n": args.n,
         "v": args.v, "variant": args.variant},
    )
    if args.variant == "ch":
        ring = _table_or_builtin(args)
        model = ring.table.model
        if model is not None:
            images = kappa(ring.table, enumerate_omega(model, args.p, args.n),
                           args.p, args.n, args.v)
        och = enumerate_omega_ch(ring, args.p, args.n, args.v)
        texts: dict = {}  # each distinct divisor's text, written once
        witness = {"count": len(och),
                   "representatives": [e.text(texts) for e in och]}
        if model is not None:
            position = {e: i for i, e in enumerate(och)}
            witness["maps"] = {
                "kappa": [position[e] for e in images],
                "xi": list(map(list, xi_class_maps(och, ring.table))),
            }
        cert.add("census", True, witness)
        return _finish(cert, args)
    if not args.group:
        raise UsageError("need --group")
    model = builtin_model(args.group)
    if args.variant == "plain":
        om = enumerate_omega(model, args.p, args.n)
        reps = [[list(model.elements[i]) if isinstance(model.elements[i], tuple)
                 else model.elements[i] for i in rep] for rep in om]
        cert.add("census", True, {"count": len(om), "representatives": reps})
    elif args.variant == "prime":
        om, sigs, proj = enumerate_omega_prime(model, args.p, args.n, args.v)
        cert.add("census", True,
                 {"count": len(sigs), "omega_count": len(om),
                  "projection": proj})
    else:
        pts, results = enumerate_omega_dprime(model, args.p, args.n, args.v)
        cert.add("census", True,
                 {"count": len(results), "points": [list(a) for a in pts],
                  "maps": [list(r) for r in results]})
    return _finish(cert, args)


def cmd_chern(args) -> int:
    ring = _table_or_builtin(args)
    law = honda_fgl(args.p, args.n, args.prec)
    pres = build_presentation(ring, law, args.v)
    cert = Certificate(
        "chern", {"group": args.group or args.table, "p": args.p, "n": args.n,
                  "v": args.v, "prec": args.prec},
    )
    _, _, iso = pres.elimination_summary()
    cert.add(
        "presentation",
        True,
        {
            "dimension": pres.dimension(),
            "generators": pres.generators,
            "eliminated": sorted(pres.killed),
            "groebner_basis": [g.text(pres.qring.order) for g in pres.qring.basis.polys],
            "standard_monomials": pres.std_monomial_texts(),
            "isomorphism": (f"F_{iso[0]}[{iso[1]}]/({iso[1]}^{iso[2]})" if iso else None),
        },
    )
    return _finish(cert, args)


def cmd_sigma4(args) -> int:
    return _finish(sigma4_pipeline(), args)


def cmd_sdiv(args) -> int:
    return _finish(sdiv_checks(), args)


def cmd_witness(args) -> int:
    return _finish(nonpositive_divisor_witness(args.n), args)


def cmd_xspec(args) -> int:
    return _finish(xspec_census(args.p, args.d, args.n), args)


def cmd_table_check(args) -> int:
    if args.table is not None:
        cert = Certificate("table-check", {"table": os.path.basename(args.table)})
        try:
            table = ingest_table(args.table)
            RepRing(table)
            cert.add("valid_character_table", True,
                     {"name": table.name, "classes": table.nclasses})
        except SchemaError:
            raise  # malformed input file: usage error
        except ChernlabError as exc:
            cert.add("valid_character_table", False, {"error": str(exc)})
        return _finish(cert, args)
    if args.p is not None and args.d is not None:
        return _finish(extraspecial_table_checks(args.p, args.d), args)
    raise UsageError("table-check needs --table PATH or --p/--d")


def cmd_export_table(args) -> int:
    table = builtin_group(args.group)
    _emit(table_to_json(table), args.out)
    return 0


def cmd_all(args) -> int:
    certs = acceptance.run_all()
    overall = all(c.status == "pass" for c in certs)
    if args.format == "text":
        doc = "\n".join(c.summary() for c in certs)
        doc += f"\noverall: {'pass' if overall else 'fail'}\n"
    else:
        doc = dumps({
            "schema": SCHEMA,
            "pipeline": "all",
            "status": "pass" if overall else "fail",
            "certificates": [c.as_dict() for c in certs],
        }) + "\n"
    _emit(doc, args.out)
    return 0 if overall else 1


def prime(text: str) -> int:
    """Type of every --p: a prime."""
    p = int(text)
    if not is_prime(p):
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"{p} is not prime")
    return p


def natural(text: str) -> int:
    """Type of every --n and --v: an integer >= 0."""
    n = int(text)
    if n < 0:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"{n} is negative")
    return n


# Options as rows (flag, in the --group/--table exclusive group,
# add_argument keywords), listed per command in help order.
_P = ("--p", False, {"type": prime, "required": True})
_N = ("--n", False, {"type": natural, "required": True})
_V = ("--v", False, {"type": natural, "default": None})
_PREC = ("--prec", False, {"type": int, "default": 32})
# the character table comes from a builtin group or a table file, not both
_SOURCE = (("--group", True, {"type": str, "default": None}),
           ("--table", True, {"type": str, "default": None}))
_OUTPUT = (("--out", False, {"type": str, "default": None}),
           ("--format", False, {"choices": ("json", "text"), "default": "json"}))

# (name, help, command, option rows), in the order the root help and the
# invalid-choice error list them
COMMANDS = (
    ("fgl", "print a [k]-series of a formal group law", cmd_fgl,
     (_P, _N, _PREC, *_OUTPUT, ("--series", False, {"type": int, "required": True}),
      ("--multiplicative", False, {"action": "store_true"}))),
    ("groebner", "reduced Groebner basis of given generators", cmd_groebner,
     (("--q", False, {"type": int, "required": True}),
      ("--vars", False, {"type": str, "required": True}),
      ("--gens", False, {"type": str, "required": True,
                         "help": "semicolon-separated polynomials"}),
      ("--order", False, {"choices": ("lex", "grlex"), "default": "lex"}), *_OUTPUT)),
    ("omega", "homomorphism censuses", cmd_omega,
     (_P, _N, _V, *_SOURCE, *_OUTPUT,
      ("--variant", False, {"choices": ("plain", "ch", "prime", "dprime"),
                            "default": "plain"}))),
    ("chern", "presentation of the Chern-class ring", cmd_chern,
     (_P, _N, _V, _PREC, *_SOURCE, *_OUTPUT)),
    ("sigma4", "the order-24 symmetric group over F_4", cmd_sigma4, _OUTPUT),
    ("sdiv", "special-divisor expansions at p = 2", cmd_sdiv, _OUTPUT),
    ("witness", "the non-positive divisor witness at height --n", cmd_witness,
     (("--n", False, {"type": natural, "default": 2}), *_OUTPUT)),
    ("xspec", "census of the extraspecial group p^{1+2d} at height --n", cmd_xspec,
     (_P, ("--d", False, {"type": int, "required": True}), _N, *_OUTPUT)),
    ("table-check", "validate a --table file or the --p/--d table", cmd_table_check,
     (("--table", False, {"type": str, "default": None}),
      ("--p", False, {"type": prime, "default": None}),
      ("--d", False, {"type": int, "default": None}), *_OUTPUT)),
    ("export-table", "emit a builtin table as JSON", cmd_export_table,
     (("--group", False, {"type": str, "required": True}), *_OUTPUT)),
    ("all", "run the full acceptance suite", cmd_all, _OUTPUT),
)


def _parse_exact(argv):
    """The namespace argparse gives for argv when argv is a command name
    followed only by distinct ``--flag value`` pairs of that command's
    options (a store_true flag without its value), each value accepted by
    the option's type and choices, no value starting with '-', every
    required option present and at most one of an exclusive group; None for
    any other argv, which argparse then parses, so that it alone writes
    help, resolves abbreviations and reports usage errors."""
    command = next((c for c in COMMANDS if argv and c[0] == argv[0]), None)
    if command is None:
        return None
    name, _, fn, rows = command
    values = {"command": name, "fn": fn}
    options = {}
    for flag, _, keywords in rows:
        dest = flag[2:].replace("-", "_")
        switch = keywords.get("action") == "store_true"
        values[dest] = keywords.get("default", False if switch else None)
        options[flag] = (dest, switch, keywords)
    given = set()
    k = 1
    while k < len(argv):
        if argv[k] not in options or argv[k] in given:
            return None
        given.add(argv[k])
        dest, switch, keywords = options[argv[k]]
        if switch:
            values[dest] = True
            k += 1
            continue
        if k + 1 == len(argv) or argv[k + 1].startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(argv[k + 1])
        except Exception:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
        k += 2
    if any(keywords.get("required") and flag not in given for flag, _, keywords in rows):
        return None
    if sum(exclusive and flag in given for flag, exclusive, _ in rows) > 1:
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser of every command."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """Reports a bad command line as one UsageError line, not usage text."""

        def error(self, message):
            raise UsageError(message)

    parser = Parser(
        prog="chernlab",
        description="Exact formal-group / divisor / representation-ring computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, fn, rows in COMMANDS:
        sp = sub.add_parser(name, help=text)
        group = None
        for flag, exclusive, keywords in rows:
            if exclusive and group is None:
                group = sp.add_mutually_exclusive_group()
            (group if exclusive else sp).add_argument(flag, **keywords)
        sp.set_defaults(fn=fn)
    return parser


def run(argv=None) -> int:
    """Run the command argv (default sys.argv[1:]) names; returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_exact(argv) or build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except (UsageError, SchemaError, ValidationError, ResourceLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChernlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
