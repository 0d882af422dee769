"""Machine-checked certificates: named clauses with pass/fail and witnesses."""

from __future__ import annotations

import json

from .errors import CertificateMismatch

SCHEMA = "chernlab/1"


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

    def check(self) -> "Certificate":
        bad = self.failed_clauses()
        if bad:
            raise CertificateMismatch(f"clause {bad[0]!r} failed in {self.pipeline}")
        return self

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "pipeline": self.pipeline,
            "params": self.params,
            "status": self.status,
            "clauses": [c.as_dict() for c in self.clauses],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def summary(self) -> str:
        lines = [f"[{self.pipeline}] status: {self.status}"]
        for c in self.clauses:
            lines.append(f"  {'PASS' if c.status == 'pass' else 'FAIL'}  {c.name}")
        return "\n".join(lines)
