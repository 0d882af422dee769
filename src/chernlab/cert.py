"""Machine-checked certificates: named clauses with pass/fail and witnesses,
and ``dumps``, the one writer of their JSON byte format."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote


SCHEMA = "chernlab/1"


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``.

    That call runs json's pure-Python encoder, one generator step per
    token; this writer returns the same string with one join per container
    and one join for a whole list of plain ints.  Types are tried in the
    order json tries them; any other type raises TypeError.
    """
    return _dumps(obj, "\n")


def _dumps(obj, nl: str) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            items = map(repr, obj)
        else:
            items = [_dumps(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # sorted on the original keys, as json sorts them: int keys in
        # numeric order, not in the order of their text
        items = [_quote(_key(k)) + ": " + _dumps(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(key) -> str:
    """A dict key's text: a str as it is, a scalar as json writes it."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _dumps(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


class Clause:
    def __init__(self, name: str, status: str, witness: dict):
        self.name = name
        self.status = status
        self.witness = witness

    def as_dict(self):
        return {"name": self.name, "status": self.status, "witness": self.witness}


class Certificate:
    def __init__(self, pipeline: str, params: dict):
        self.pipeline = pipeline
        self.params = params
        self.clauses: list[Clause] = []

    def add(self, name: str, ok: bool, witness: dict | None = None) -> bool:
        self.clauses.append(Clause(name, "pass" if ok else "fail", witness or {}))
        return ok

    def add_cases(self, name: str, cases, holds, witness: dict | None = None) -> bool:
        """One clause that passes when holds(case) is true for every case.

        After the first failure holds is no longer called, but the remaining
        cases are still drawn, so seeded random draws do not depend on the
        verdict.  A failing clause's witness gains "counterexample", the repr
        of the first failing case.
        """
        bad = []
        for case in cases:
            if not bad and not holds(case):
                bad.append(case)
        if bad:
            witness = {**(witness or {}), "counterexample": repr(bad[0])}
        return self.add(name, not bad, witness)

    @property
    def status(self) -> str:
        return "pass" if all(c.status == "pass" for c in self.clauses) else "fail"

    def failed_clauses(self) -> list[str]:
        return [c.name for c in self.clauses if c.status != "pass"]

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "pipeline": self.pipeline,
            "params": self.params,
            "status": self.status,
            "clauses": [c.as_dict() for c in self.clauses],
        }

    def to_json(self) -> str:
        return dumps(self.as_dict()) + "\n"

    def summary(self) -> str:
        lines = [f"[{self.pipeline}] status: {self.status}"]
        for c in self.clauses:
            lines.append(f"  {'PASS' if c.status == 'pass' else 'FAIL'}  {c.name}")
        return "\n".join(lines)
