import pytest

from chernlab.errors import ValidationError
from chernlab.groups import model_extraspecial
from chernlab.lattice import Theta
from chernlab.xspec import (
    c_alpha,
    enumerate_U,
    extraspecial_table_checks,
    xspec_census,
    _dual_image_isotropic,
)


def test_enumerate_u_counts():
    assert len(enumerate_U(3, 1, 1)) == 11
    assert len(enumerate_U(3, 1, 2)) == 105


def test_surjective_alpha_gives_empty_fibre():
    # at (p,d,n) = (3,1,1) every alpha has rank <= 1 = d; at d = 1, n = 2 the
    # rank-two alphas are dropped: total = 9 (rank 0) + 96 (rank 1)
    pairs = enumerate_U(3, 1, 2)
    assert all(p.rank <= 1 for p in pairs)
    by_rank = {}
    for p in pairs:
        by_rank[p.rank] = by_rank.get(p.rank, 0) + 1
    assert by_rank == {0: 9, 1: 96}


def test_defining_equation_holds():
    theta = Theta(3, 1, 1)
    for pair in enumerate_U(3, 1, 1):
        assert pair.u * pair.u.psi(2) == c_alpha(pair.alpha, theta)


def test_zero_alpha_image_is_isotropic():
    pairs = enumerate_U(3, 1, 1)
    zero_pairs = [p for p in pairs if p.rank == 0]
    assert zero_pairs and all(_dual_image_isotropic(p.alpha, 3, 1) for p in zero_pairs)


def test_even_prime_rejected():
    with pytest.raises(ValidationError):
        enumerate_U(2, 1, 1)


def test_group_model_sanity():
    model = model_extraspecial(3, 2)
    assert model.size == 243
    assert model.exponent() == 3
    assert len(model.conjugacy_classes()) == 3 ** 4 + 3 - 1


def test_census_3_1_1_bijective():
    cert = xspec_census(3, 1, 1)
    assert cert.status == "pass", cert.failed_clauses()
    by_name = {c.name: c for c in cert.clauses}
    w = by_name["deficit_counts_nonisotropic_pairs"].witness
    assert w == {"U": 11, "kappa_image": 11, "deficit": 0}
    assert by_name["surjectivity_verdict"].witness["surjective"] is True


def test_table_checks_small():
    for (p, d) in ((3, 1), (5, 1)):
        cert = extraspecial_table_checks(p, d)
        assert cert.status == "pass", (p, d, cert.failed_clauses())


def test_table_checks_unsupported_params():
    with pytest.raises(ValidationError):
        extraspecial_table_checks(7, 3)
