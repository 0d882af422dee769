"""Every job of the benchmark's three workloads, run in process, writes the
certificate or table whose SHA-256 perfbench/reference.json records.

The job lists come from perfbench/jobs.py; both files are read, never
written.  This pins the chern, sigma4, sdiv, witness, fgl and groebner
certificates of `algebra`, the omega and xspec certificates of `census`
(which carry the comparison maps kappa and xi) and the exported tables and
table-check certificates of `tables` byte for byte in the test suite.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from chernlab.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _jobs_module():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", PERFBENCH / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs


PERFBENCH_JOBS = _jobs_module()
JOBS = PERFBENCH_JOBS.pool("algebra")
# a variant's jobs run in sequence: export-table writes the file table-check reads
VARIANTS = [(workload, unit) for workload in ("census", "tables")
            for slot in PERFBENCH_JOBS.SLOTS[workload] for unit in slot]
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("job", JOBS, ids=[f"{k}-{job.argv[0]}" for k, job in enumerate(JOBS)])
def test_algebra_certificate_matches_the_benchmark_reference(capsys, job):
    assert job.certificate
    assert run(list(job.argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REFERENCE[job.key]


@pytest.mark.parametrize("workload,unit", VARIANTS,
                         ids=[f"{w}-{k}-{unit[-1].argv[0]}" for k, (w, unit) in enumerate(VARIANTS)])
def test_census_and_tables_jobs_match_the_benchmark_reference(
        capsys, monkeypatch, tmp_path, workload, unit):
    monkeypatch.chdir(tmp_path)  # --out paths are relative, as in the benchmark
    for job in unit:
        assert run(list(job.argv)) == 0
        out = capsys.readouterr().out
        argv = list(job.argv)
        data = (Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv
                else out.encode("utf-8"))
        assert hashlib.sha256(data).hexdigest() == REFERENCE[job.key]
