import math
import time

import pytest

from oockit.bounds import (
    cac_optimal_size,
    gdd_exists,
    in_S,
    is_prime,
    me_prime,
    mult_order,
    phi_exact,
    phi_upper_bound,
    pow4_decompose,
    prime_factorization,
    psi_e_exact,
    psi_e_upper_bound,
    tight_admissible,
)
from oockit.core import UnsupportedParameterError
from oockit.search import equi_search


class TestMultOrder:
    @pytest.mark.parametrize("a,m,expected", [(2, 5, 4), (2, 7, 3), (1, 9, 1), (2, 17, 8), (2, 41, 20)])
    def test_values(self, a, m, expected):
        assert mult_order(a, m) == expected

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            mult_order(6, 9)

    def test_agrees_with_walking_the_powers(self):
        def walked(a, m):
            order, acc = 1, a % m
            while acc != 1:
                acc = acc * a % m
                order += 1
            return order

        for m in range(2, 300):
            for a in range(m):
                if math.gcd(a, m) == 1:
                    assert mult_order(a, m) == walked(a, m), (a, m)

    def test_large_prime_modulus(self):
        # ord(2) = (p - 1) / 2 here: walking the powers takes minutes
        start = time.monotonic()
        assert mult_order(2, 1000000007) == 500000003
        assert me_prime(1000000007).value == 250000001
        assert time.monotonic() - start < 1.0


class TestCacOptimalSize:
    @pytest.mark.parametrize(
        "m,expected",
        [(48, 10), (64, 13), (6, 1), (2, 0), (10, 2), (24, 5), (4, 1), (12, 3), (16, 3), (36, 8)],
    )
    def test_values(self, m, expected):
        assert cac_optimal_size(m).value == expected

    def test_odd_modulus_unsupported(self):
        with pytest.raises(UnsupportedParameterError):
            cac_optimal_size(9)

    @pytest.mark.parametrize("m", [0, -4, 9])
    def test_rejection_names_the_requirement(self, m):
        with pytest.raises(UnsupportedParameterError, match=f"even m >= 2 only, got {m}$"):
            cac_optimal_size(m)


class TestPsiEUpperBound:
    @pytest.mark.parametrize("m,expected", [(6, 1), (8, 1), (4, 1), (1, 0), (64, 11), (48, 8)])
    def test_values(self, m, expected):
        assert psi_e_upper_bound(m).value == expected


class TestPsiEExact:
    @pytest.mark.parametrize(
        "m,expected",
        [
            (8, 1),      # tower over r = 2
            (20, 4),     # tight over r = 5
            (52, 10),    # tight over r = 13
            (4, 1), (16, 3), (64, 11),   # tower over r = 1
            (12, 2),     # tight over r = 3
            (2, 0), (6, 1), (18, 4),
            (5, 1), (13, 3),
            (7, 1), (23, 5), (31, 6),    # prime lengths
            (15, 3),     # r = 15 with r/3 = 5 admissible
        ],
    )
    def test_values(self, m, expected):
        rep = psi_e_exact(m)
        assert rep.kind == "exact" and rep.value == expected

    # lengths outside every class with a named closed form; equi_search agrees
    COMPOSITE = {9: 1, 21: 4, 33: 6, 36: 6, 49: 11, 63: 14}

    @pytest.mark.parametrize("m", list(COMPOSITE))
    def test_unknown_outside_branches(self, m):
        rep = psi_e_exact(m)
        assert (rep.value, rep.kind, rep.branch) == (self.COMPOSITE[m], "exact", "psi_e/composite")

    def test_never_exceeds_upper_bound(self):
        for m in range(1, 257):
            assert psi_e_exact(m).value <= psi_e_upper_bound(m).value, m

    def test_tower_and_tight_branches_meet_the_cap(self):
        def me(p):  # the two-case cyclotomic count me_prime had before it shared the sum
            e = mult_order(2, p)
            return (p - 1) // e * (e // 4) if e % 2 == 0 else (p - 1) // (2 * e) * (e // 2)

        for m in range(1, 20_001):
            rep = psi_e_exact(m)
            cap = psi_e_upper_bound(m).value
            r = dict(rep.dependencies)["r"]
            assert rep.kind == "exact", m
            if rep.branch in ("psi_e/tower_2mod4", "psi_e/tight_1or5mod12", "psi_e/tight_3mod12"):
                assert rep.value == cap, m
            elif rep.branch == "psi_e/prime":
                assert rep.value == cap - (r - 1) // 4 + me(r), m
            else:
                assert rep.branch == "psi_e/composite" and not is_prime(r), m

    def test_large_composite(self):
        # 255255 = 3 * 5 * 7 * 11 * 13 * 17
        assert psi_e_exact(255255).value == 63811

    def test_equals_the_exhaustive_search(self):
        for m in range(1, 73):
            assert psi_e_exact(m).value == equi_search(m, 2).best_size, m

    @pytest.mark.slow
    def test_equals_the_exhaustive_search_to_96(self):
        for m in range(73, 97):
            assert psi_e_exact(m).value == equi_search(m, 2).best_size, m


class TestMePrime:
    @pytest.mark.parametrize(
        "p,expected", [(5, 1), (7, 1), (11, 2), (13, 3), (17, 4), (19, 4), (23, 5), (31, 6), (43, 9)]
    )
    def test_values(self, p, expected):
        assert me_prime(p).value == expected

    @pytest.mark.parametrize("p", [4, 3, 9, 15])
    def test_rejects_non_primes_and_small(self, p):
        with pytest.raises(ValueError):
            me_prime(p)


class TestTightAdmissible:
    def test_examples(self):
        assert tight_admissible(13).admissible and tight_admissible(13).expected_size == 3
        assert tight_admissible(4).admissible and tight_admissible(4).expected_size == 1
        assert not tight_admissible(7).admissible
        assert tight_admissible(3).expected_size == 1
        assert tight_admissible(15).expected_size == 4
        assert tight_admissible(1).admissible and tight_admissible(1).expected_size == 0

    @pytest.mark.parametrize("m", [27, 33, 9, 2, 8, 21, 73])
    def test_inadmissible(self, m):
        # 73 = 1 (mod 8) but ord_73(2) = 9 is not divisible by 4
        assert not tight_admissible(m).admissible

    def test_factor_clauses_reported(self):
        rep = tight_admissible(21)
        failed = {c.prime for c in rep.factors if not c.satisfied}
        assert failed == {7}

    def test_three_mod_twelve_matches_its_third(self):
        # psi_e_exact names the tight 3 (mod 12) branch from tight_admissible(r) alone
        for r in range(3, 200_000, 12):
            assert tight_admissible(r).admissible is tight_admissible(r // 3).admissible, r


class TestInS:
    @pytest.mark.parametrize("s,expected", [(5, True), (13, True), (3, False), (1, True),
                                            (17, True), (73, False), (25, True), (29, True),
                                            (49, False), (65, True)])
    def test_values(self, s, expected):
        assert in_S(s) is expected

    def test_membership_implies_tight_admissibility(self):
        for s in range(1, 400):
            if in_S(s):
                assert tight_admissible(s).admissible, s

    def test_agrees_with_its_factor_clauses(self):
        # the clause form in_S had before it deferred to tight_admissible
        for s in range(1, 20_001):
            expected = s % 12 in (1, 5) and all(
                p % 8 == 5 or (p % 8 == 1 and mult_order(2, p) % 4 == 0)
                for p, _ in prime_factorization(s)
            )
            assert in_S(s) is expected, s


class TestPhiUpperBound:
    @pytest.mark.parametrize(
        "n,m,expected",
        [(2, 8, 6), (1, 64, 14), (3, 8, 13), (2, 4, 2), (3, 4, 6), (2, 5, 3), (1, 48, 10)],
    )
    def test_values(self, n, m, expected):
        assert phi_upper_bound(n, m).value == expected


class TestPhiExact:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (3, 8, 13), (3, 32, 53), (12, 8, 196), (3, 20, 34), (3, 52, 88),
            (2, 4, 2), (3, 4, 6), (1, 48, 10), (1, 64, 13), (1, 44, 9),
            (2, 16, 12), (12, 20, 496), (15, 24, 920),
        ],
    )
    def test_values(self, n, m, expected):
        rep = phi_exact(n, m)
        assert rep.kind == "exact" and rep.value == expected

    @pytest.mark.parametrize("n,m", [(5, 8), (12, 4), (6, 8), (9, 24), (2, 6), (1, 10), (4, 12)])
    def test_unknown_regions(self, n, m):
        rep = phi_exact(n, m)
        assert rep.kind == "unknown" and rep.value is None
        assert dict(rep.dependencies)["upper_bound"] == phi_upper_bound(n, m).value

    def test_exact_below_upper_bound(self):
        for n in range(1, 16):
            for m in range(1, 129):
                rep = phi_exact(n, m)
                if rep.value is not None:
                    assert rep.value <= phi_upper_bound(n, m).value, (n, m)

    def test_composition_formula_consistency(self):
        # rows divisible by three with m = 8 (mod 16): the closed form equals
        # the general cap evaluated at the exact equi-difference size
        for n in (12, 15, 21, 24):
            for m in (8, 24, 40, 56):
                psi = psi_e_exact(m).value
                assert phi_exact(n, m).value == n * (n * m + 2 * psi) // 6

    def test_cac_relaxation_dominates(self):
        for m in range(4, 201, 4):
            assert cac_optimal_size(m).value >= phi_exact(1, m).value, m


class TestGddExists:
    def test_examples(self):
        assert gdd_exists(3, 4, 8)
        assert not gdd_exists(1, 3, 2)
        assert gdd_exists(6, 4, 4)
        assert gdd_exists(3, 3, 9)      # odd m, three groups
        assert not gdd_exists(3, 3, 2)  # even m needs even v at u = 3
        assert not gdd_exists(1, 6, 2)  # u = 2 (mod 4), m = 2 (mod 4), odd v
        assert not gdd_exists(1, 5, 1)  # 3 does not divide u (u - 1) v m: no STS(5)

    def test_too_few_groups_rejected(self):
        with pytest.raises(ValueError):
            gdd_exists(3, 2, 8)


@pytest.mark.parametrize(
    "call",
    [
        lambda: psi_e_upper_bound(0),
        lambda: tight_admissible(0),
        lambda: mult_order(2, 1),
        lambda: prime_factorization(0),
        lambda: gdd_exists(0, 4, 8),
    ],
    ids=["psi_e_upper_bound", "tight_admissible", "mult_order", "prime_factorization", "gdd_exists"],
)
def test_rejects_a_length_below_its_domain(call):
    with pytest.raises(ValueError):
        call()


class TestHelpers:
    def test_pow4_decompose(self):
        assert pow4_decompose(48) == (2, 3)
        assert pow4_decompose(64) == (3, 1)
        assert pow4_decompose(7) == (0, 7)

    def test_is_prime(self):
        assert [p for p in range(1, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
