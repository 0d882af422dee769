"""Every algebra job of the benchmark, run in process, writes the certificate
whose SHA-256 perfbench/reference.json records.

The job list comes from perfbench/jobs.py; both files are read, never
written.  This pins the chern, sigma4, sdiv, witness, fgl and groebner
certificates byte for byte in the test suite.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from chernlab.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _algebra_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", PERFBENCH / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs.pool("algebra")


JOBS = _algebra_jobs()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("job", JOBS, ids=[f"{k}-{job.argv[0]}" for k, job in enumerate(JOBS)])
def test_algebra_certificate_matches_the_benchmark_reference(capsys, job):
    assert job.certificate
    assert run(list(job.argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REFERENCE[job.key]
