"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS line per
criterion.  Expected wall time for the whole module is a couple of minutes.
"""

import random

import pytest

from oockit.bounds import (
    cac_optimal_size,
    in_S,
    is_prime,
    me_prime,
    phi_exact,
    psi_e_exact,
    tight_admissible,
)
from oockit.cli import FAMILIES
from oockit.construct import (
    HALF_FREE,
    STANDARD,
    compose_0mod3,
    equi_2mod4,
    equi_power4,
    expand_gdd,
    explicit_code,
    g_regular_4g,
    ooc_2xm,
    ooc_3xm,
    prime_derived,
    tight_derived,
)
from oockit.core import Code, CodeParams, make_codeword
from oockit.search import (
    EXACT_COVER,
    SearchConfig,
    equi_search,
    gdd_search,
    optimal_search,
    tight_search,
)
from oockit.verify import (
    composition_inequalities,
    matrix_verdicts,
    parity_inequalities,
    verify_code,
)

LIMIT_TOWER = 2048


def _odds(lo, hi):
    start = lo if lo % 2 == 1 else lo + 1
    return set(range(start, hi + 1, 2))


def _tail(s, r):
    out = set()
    for i in range(1, s + 1):
        scale = 4 ** (s - i)
        base = 4 ** (i - 1) * r
        out |= {scale * x for x in _odds(1, base - 1) | _odds(3 * base + 1, 4 * base - 1)}
    return out


def _tight_branch(r):
    if r == 1 or (r % 12 in (1, 5) and tight_admissible(r).admissible):
        return "unit"
    if r % 12 == 3 and tight_admissible(r // 3).admissible:
        return "third"
    return None


@pytest.fixture(scope="module")
def swept():
    """builder name -> [(parameters, result)] for each family swept here."""
    families = {
        "equi_2mod4": [(m, equi_2mod4(m)) for m in range(2, 203, 4)],
        "g_regular_4g": [(g, g_regular_4g(g)) for g in range(1, 51)],
        "explicit_code": [(cid, explicit_code(cid)) for cid in ("1d48", "3x4", "3x8", "3x20", "3x32", "3x52")],
        "ooc_2xm": [(m, ooc_2xm(m)) for m in range(4, 201, 4)],
    }
    power4 = []
    for variant, smin in ((STANDARD, 0), (HALF_FREE, 1)):
        s = smin
        while 4**s * 2 <= LIMIT_TOWER:
            for r in range(2, LIMIT_TOWER // 4**s + 1, 4):
                power4.append(((s, r, variant), equi_power4(s, r, variant)))
            s += 1
    families["equi_power4"] = power4
    tight = []
    for r in range(1, 201, 2):
        if _tight_branch(r) is None:
            continue
        s = 0
        while 4**s * r <= LIMIT_TOWER:
            tight.append(((r, s), tight_derived(r, s)))
            s += 1
    families["tight_derived"] = tight
    prime = []
    for p in range(5, 62):
        if not is_prime(p):
            continue
        s = 0
        while 4**s * p <= LIMIT_TOWER:
            prime.append(((p, s), prime_derived(p, s)))
            s += 1
    families["prime_derived"] = prime
    three = sorted(
        {4, 8, 20, 32, 52}
        | {m for m in range(24, 501) if m % 16 == 8}
        | {m for m in range(96, 501) if m % 64 == 32}
        | {m for m in range(68, 501) if m % 48 in (4, 20) and in_S(m // 4)}
    )
    families["ooc_3xm"] = [(m, ooc_3xm(m)) for m in three]
    return families


def test_sweep_names_every_family(swept):
    # a family added to the `construct` table without a sweep fails here;
    # compose_0mod3 is exercised by criterion 6
    assert {*swept, "compose_0mod3"} == {row[0] for row in FAMILIES.values()}


def test_criterion_1_correlation_soundness(swept):
    total = 0
    for family, entries in swept.items():
        for key, res in entries:
            assert res.verified, (family, key)
            total += 1
    # spot re-verification through the independent matrix oracle
    for family, index in (("equi_2mod4", 3), ("ooc_2xm", 5), ("explicit_code", 2)):
        code = swept[family][index][1].code
        assert matrix_verdicts(code) == (True, True)
    print(f"\nACCEPTANCE 1 correlation soundness over {total} constructions: PASS")


def test_criterion_2_size_identities(swept):
    for m, res in swept["equi_2mod4"]:
        assert res.code.size() == (m - 2) // 4, m
    for g, res in swept["g_regular_4g"]:
        assert res.code.size() == (g + 1) // 2, g
    for (s, r, variant), res in swept["equi_power4"]:
        assert res.code.size() == (2 ** (2 * s + 1) * r + r - 6) // 12, (s, r, variant)
    for (r, s), res in swept["tight_derived"]:
        step = ((2 ** (2 * s - 1) - 2) // 3) * r if s else 0
        if _tight_branch(r) == "unit":
            expected = (r - 1) // 4 if s == 0 else step + (3 * r + 1) // 4
        else:
            expected = (r - 3) // 4 if s == 0 else step + (3 * r - 1) // 4
        assert res.code.size() == expected, (r, s)
    for (p, s), res in swept["prime_derived"]:
        me = me_prime(p).value
        step = ((2 ** (2 * s - 1) - 2) // 3) * p if s else 0
        expected = me if s == 0 else step + (p + 1) // 2 + me
        assert res.code.size() == expected, (p, s)
    for m, res in swept["ooc_2xm"]:
        assert res.code.size() == (2 if m == 4 else 3 * m // 4), m
    explicit_sizes = {4: 6, 8: 13, 20: 34, 32: 53, 52: 88}
    for m, res in swept["ooc_3xm"]:
        if m in explicit_sizes:
            expected = explicit_sizes[m]
        elif m % 16 == 8:
            expected = (27 * m - 8) // 16
        elif m % 64 == 32:
            expected = (107 * m - 32) // 64
        else:
            expected = (27 * m + 4) // 16
        assert res.code.size() == expected, m
    print("\nACCEPTANCE 2 size identities (zero tolerance): PASS")


def test_criterion_3_point_values(swept):
    assert phi_exact(2, 4).value == 2
    assert phi_exact(3, 4).value == 6
    assert phi_exact(3, 8).value == 13
    assert phi_exact(3, 32).value == 53
    assert phi_exact(3, 20).value == 34
    assert phi_exact(3, 52).value == 88
    sizes = {cid: res.code.size() for cid, res in swept["explicit_code"]}
    assert sizes == {"1d48": 10, "3x4": 6, "3x8": 13, "3x20": 34, "3x32": 53, "3x52": 88}
    assert cac_optimal_size(48).value == 10
    assert cac_optimal_size(64).value == 13
    print("\nACCEPTANCE 3 point values: PASS")


def test_criterion_4_leave_identities(swept):
    from oockit.verify import structural_facts

    for m, res in swept["equi_2mod4"]:
        assert structural_facts(res.code).difference_leave == {m // 2}, m
    for g, res in swept["g_regular_4g"]:
        expected = _odds(1, g - 1) | _odds(3 * g + 1, 4 * g - 1) | {4 * t for t in range(1, g)}
        assert structural_facts(res.code).difference_leave == expected, g
    for (s, r, variant), res in swept["equi_power4"]:
        half = r // 2
        if variant == STANDARD:
            expected = {half * 4**s} | _tail(s, r)
        else:
            expected = {3 * half * 4 ** (s - 1), 5 * half * 4 ** (s - 1)} | _tail(s, r)
        assert structural_facts(res.code).difference_leave == expected, (s, r, variant)
    for (r, s), res in swept["tight_derived"]:
        if _tight_branch(r) == "unit":
            expected = _tail(s, r)
        else:
            expected = {4**s * (r // 3), 2 * 4**s * (r // 3)} | _tail(s, r)
        assert structural_facts(res.code).difference_leave == expected, (r, s)
    print("\nACCEPTANCE 4 leave identities (zero tolerance): PASS")


def test_criterion_5_oracle_agreement():
    budget = SearchConfig(time_budget=120.0)
    out = optimal_search(2, 4, 2, budget)
    assert out.best_size == 2 and out.proven_optimal
    out = optimal_search(3, 4, 2, budget)
    assert out.best_size == 6 and out.proven_optimal
    out = optimal_search(1, 8, 2, budget)
    assert out.best_size == phi_exact(1, 8).value == 1 and out.proven_optimal
    out = optimal_search(1, 12, 2, budget)
    assert out.best_size == phi_exact(1, 12).value == 2 and out.proven_optimal
    for m in range(1, 65):
        rep = psi_e_exact(m)
        if rep.value is None:
            continue
        out = equi_search(m, 2, budget)
        assert out.proven_optimal and out.best_size == rep.value, m
    for p in range(5, 62):
        if not is_prime(p):
            continue
        out = equi_search(p, 3, budget)
        assert out.proven_optimal and out.best_size == me_prime(p).value, p
    for m in range(3, 201):
        out = tight_search(m, budget)
        assert out.proven_optimal, m
        assert (out.best is not None) == tight_admissible(m).admissible, m
    print("\nACCEPTANCE 5 oracle agreement (proven optimal): PASS")


def test_criterion_6_gdd_pipeline():
    out = gdd_search(4, 4, SearchConfig(300.0, 10**9, EXACT_COVER, 0))
    assert out.best_size == 72 and out.best is not None
    out.best.validate()
    expanded = expand_gdd(out.best, [explicit_code("3x4")])
    assert expanded.verified and expanded.code.size() == 96
    assert expanded.code.params.n == 12 and expanded.code.params.m == 4

    res = compose_0mod3(12, 8)
    assert res.verified
    assert res.code.size() == 196 == 12 * (8 * 12 * 8 + 3 * 8 - 8) // 48
    print("\nACCEPTANCE 6 group-divisible-design pipeline: PASS")


@pytest.mark.slow
def test_stretch_exhaustive_three_by_eight_certification():
    # beyond the required criteria: certify the 13-codeword optimum for
    # (3 x 8) exhaustively; skipped (not failed) if the budget runs out
    out = optimal_search(3, 8, 2, SearchConfig(time_budget=180.0))
    if not out.proven_optimal:
        pytest.skip("exhaustive (3 x 8) certification exceeded its budget")
    assert out.best_size == 13
    print("\nACCEPTANCE stretch: exhaustive (3 x 8) optimum certified: PASS")


def test_criterion_7_definition_equivalence():
    rng = random.Random(20260810)
    disagreements = 0
    for _ in range(500):
        n = rng.randint(1, 3)
        m = rng.randint(2, 12)
        k = rng.randint(2, min(4, n * m))
        lam_a = rng.choice((2, 3))
        cells = [(i, x) for i in range(n) for x in range(m)]
        codewords = [
            make_codeword(rng.sample(cells, k)) for _ in range(rng.randint(1, 5))
        ]
        code = Code(CodeParams(n, m, k, lam_a, 1), codewords)
        report = verify_code(code)
        if (report.auto_ok, report.cross_ok) != matrix_verdicts(code):
            disagreements += 1
    assert disagreements == 0
    print("\nACCEPTANCE 7 definition equivalence on 500 random codes: PASS")


def test_criterion_8_census_inequalities(swept):
    checked = 0
    for family, entries in swept.items():
        for key, res in entries:
            code = res.code
            if code.params.k != 3 or code.params.lambda_a > 2:
                continue
            for name, (lhs, rhs) in composition_inequalities(code).items():
                assert lhs <= rhs, (family, key, name)
            if code.params.n == 1 and code.params.m % 4 == 0:
                for name, (lhs, rhs) in parity_inequalities(code).items():
                    assert lhs <= rhs, (family, key, name)
            checked += 1
    assert checked > 1000
    print(f"\nACCEPTANCE 8 census inequalities over {checked} codes: PASS")
