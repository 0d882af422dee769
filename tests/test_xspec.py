import hashlib

import pytest

from chernlab import xspec
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


# SHA-256 of repr([(alpha, u.vec, rank) for each pair]): pins the pairs and
# their order
PAIR_DIGESTS = [
    ((3, 2, 1), 83, "ef4cf76e415ab5863fad9d65e12ec99517b60d1ae97f70459ec634ef988298df"),
    ((3, 1, 3), 963, "42ed3a5f7eb471031d3665c50e3157858521042915d7e23853817c144bc1c846"),
    ((5, 1, 2), 745, "9c2ee73644c6f9a7ef9e9bc1a9b406982d65afcc12436274fcce2320ba6c65a3"),
]


@pytest.mark.parametrize("pdn,count,digest", PAIR_DIGESTS, ids=[str(x[0]) for x in PAIR_DIGESTS])
def test_enumerate_u_pairs_pinned(pdn, count, digest):
    pairs = enumerate_U(*pdn)
    text = repr([(x.alpha, x.u.vec, x.rank) for x in pairs])
    assert len(pairs) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_defining_equation_holds():
    for p, d, n in ((3, 1, 1), (3, 2, 1), (5, 1, 1)):
        theta = Theta(p, 1, n)
        for pair in enumerate_U(p, d, n):
            assert pair.u * pair.u.psi(p - 1) == c_alpha(pair.alpha, theta)


def test_each_pair_checked_against_its_own_c_alpha(monkeypatch):
    # ((1,), (0,)) spans the line whose cosets ((0,), (1,)) built first
    true_c_alpha = xspec.c_alpha

    def wrong_at_one_alpha(alpha, theta):
        out = true_c_alpha(alpha, theta)
        return out + out if alpha == ((1,), (0,)) else out

    monkeypatch.setattr(xspec, "c_alpha", wrong_at_one_alpha)
    with pytest.raises(ValidationError, match="defining equation"):
        enumerate_U(3, 1, 1)


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
    assert model.exponent == 3
    assert len(model.classes) == 3 ** 4 + 3 - 1


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
