import random

import pytest

from chernlab.cert import Certificate
from chernlab.errors import ValidationError
from chernlab.pipelines import (
    nonpositive_divisor_witness,
    sdiv_checks,
    sigma3_pipeline,
    sigma4_pipeline,
)


@pytest.fixture(scope="module")
def sigma4_cert():
    return sigma4_pipeline()


def test_sigma3_pipeline_passes():
    cert = sigma3_pipeline()
    assert cert.status == "pass", cert.failed_clauses()


def test_sdiv_pipeline_passes():
    cert = sdiv_checks()
    assert cert.status == "pass", cert.failed_clauses()


def test_witness_pipeline_passes():
    cert = nonpositive_divisor_witness(2)
    assert cert.status == "pass", cert.failed_clauses()


def test_witness_rejects_height_one():
    with pytest.raises(ValidationError):
        nonpositive_divisor_witness(1)


def test_sigma4_pipeline_passes(sigma4_cert):
    assert sigma4_cert.status == "pass", sigma4_cert.failed_clauses()


def test_sigma4_r_values_byte_exact(sigma4_cert):
    by_name = {c.name: c for c in sigma4_cert.clauses}
    assert by_name["r1_bytematch"].witness["r1"] == "c2^8 + c2^4*w^2"
    assert by_name["r4_bytematch"].witness["r4"] == (
        "c2^8*w^3 + c2^5 + c2^2*w^3 + c2*w^2 + c3*w"
    )


def test_sigma4_socle_witness(sigma4_cert):
    by_name = {c.name: c for c in sigma4_cert.clauses}
    assert by_name["socle_generated_by_w3c3"].witness["socle"] == ["c3*w^3"]


def test_certificates_deterministic():
    a = sdiv_checks().to_json()
    b = sdiv_checks().to_json()
    assert a == b


def test_add_cases_fails_on_first_counterexample():
    cert = Certificate("cases", {})
    witness = {"samples": 10}
    called = []

    def below_three(k):
        called.append(k)
        return k < 3

    assert not cert.add_cases("below_three", range(10), below_three, witness)
    clause = cert.clauses[0]
    assert clause.status == "fail" and cert.failed_clauses() == ["below_three"]
    assert clause.witness == {"samples": 10, "counterexample": "3"}
    assert witness == {"samples": 10}
    assert called == [0, 1, 2, 3]


def test_add_cases_draws_every_case_after_a_failure():
    def state_after(holds):
        rng = random.Random(7)
        Certificate("cases", {}).add_cases(
            "draws", (rng.randint(0, 9) for _ in range(50)), holds
        )
        return rng.getstate()

    assert state_after(lambda x: False) == state_after(lambda x: True)


def test_add_cases_passing_witness_has_no_counterexample():
    cert = Certificate("cases", {})
    assert cert.add_cases("even", [0, 2, 4], lambda k: k % 2 == 0, {"samples": 3})
    assert cert.clauses[0].status == "pass"
    assert cert.clauses[0].witness == {"samples": 3}
    assert cert.add_cases("empty_witness", [1], lambda k: True)
    assert cert.clauses[1].witness == {}
