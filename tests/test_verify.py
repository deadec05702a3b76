import random
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from oockit import verify
from oockit.construct import (
    HALF_FREE,
    compose_0mod3,
    equi_2mod4,
    equi_power4,
    explicit_code,
    g_regular_4g,
    ooc_2xm,
    ooc_3xm,
    prime_derived,
    tight_derived,
)
from oockit.core import Code, CodeParams, make_codeword, translate
from oockit.verify import (
    MAX_WITNESSES,
    VerificationReport,
    Witness,
    composition_census,
    composition_inequalities,
    difference_leave,
    matrix_correlation,
    matrix_verdicts,
    parity_census,
    parity_inequalities,
    structural_facts,
    verify_code,
)


def cw(*cells):
    return make_codeword(cells)


def one_row_code(m, slot_sets, lambda_a=2):
    return Code(
        CodeParams(1, m, 3, lambda_a, 1),
        [cw(*((0, s) for s in slots)) for slots in slot_sets],
    )


class TestVerifyCode:
    def test_explicit_three_row_code_passes(self):
        report = verify_code(explicit_code("3x8").code)
        assert report.passed and report.max_auto_multiplicity == 2

    def test_cross_violation_on_shared_pure_difference(self):
        code = one_row_code(9, [(0, 3, 6), (0, 2, 5)])
        report = verify_code(code)
        assert not report.cross_ok
        assert any(
            w.kind == "cross" and w.codewords == (0, 1) and w.difference in (3, 6)
            for w in report.witnesses
        )

    def test_auto_violation_on_third_period_triple(self):
        report = verify_code(one_row_code(9, [(0, 3, 6)]))
        assert not report.auto_ok
        assert report.max_auto_multiplicity == 3
        assert report.cross_ok

    def test_auto_multiplicity_sums_across_rows(self):
        # difference 1 appears once in row 0 and once in row 1; the shifted
        # matrix overlaps in two cells, so the multiplicities must sum
        code = Code(
            CodeParams(2, 8, 4, 1, 1),
            [cw((0, 0), (0, 1), (1, 0), (1, 1))],
        )
        report = verify_code(code)
        assert report.max_auto_multiplicity == 2
        assert not report.auto_ok
        assert matrix_verdicts(code)[0] is False

    def test_duplicate_codewords_collide(self):
        code = one_row_code(8, [(0, 1, 3), (0, 1, 3)])
        report = verify_code(code)
        assert not report.cross_ok

    def test_witness_list_truncates(self):
        code = one_row_code(40, [(0, 1, 3)] * 30)
        report = verify_code(code)
        assert len(report.witnesses) <= MAX_WITNESSES
        assert report.violation_count >= 3 * (30 * 29 // 2)

    def test_empty_code(self):
        report = verify_code(Code(CodeParams(1, 8), []))
        assert report.passed and report.max_auto_multiplicity == 0


def oracle_verify_code(code: Code) -> VerificationReport:
    """Reference difference-method check: a Counter per codeword, tuple class keys."""
    code.validate()
    m = code.params.m
    lam_a = code.params.lambda_a
    witnesses: list[Witness] = []
    violation_count = 0

    def emit(w: Witness) -> None:
        nonlocal violation_count
        violation_count += 1
        if len(witnesses) < MAX_WITNESSES:
            witnesses.append(w)

    auto_ok = True
    max_mult = 0
    for idx, cw in enumerate(code.codewords):
        pure: Counter = Counter()
        row_of: dict[int, int] = {}
        for i, x in cw:
            for j, y in cw:
                if i == j and x != y:
                    d = (x - y) % m
                    pure[d] += 1
                    row_of.setdefault(d, i)
        lam = max(pure.values(), default=0)
        max_mult = max(max_mult, lam)
        if lam > lam_a:
            auto_ok = False
            for d, count in sorted(pure.items()):
                if count > lam_a:
                    emit(Witness("auto", (idx, idx), (row_of[d], row_of[d]), d))

    owners: dict[tuple[int, int, int], list[int]] = {}
    for idx, cw in enumerate(code.codewords):
        seen: set[tuple[int, int, int]] = set()
        for a in range(len(cw)):
            i, x = cw[a]
            for b in range(a + 1, len(cw)):
                j, y = cw[b]
                if i == j:
                    d = (y - x) % m
                    key = (i, i, min(d, (m - d) % m))
                elif i < j:  # (lower row, upper row), lower slot minus upper
                    key = (i, j, (x - y) % m)
                else:
                    key = (j, i, (y - x) % m)
                if key in seen:
                    continue
                seen.add(key)
                owners.setdefault(key, []).append(idx)

    cross_ok = True
    for key in sorted(owners):
        members = owners[key]
        if len(members) < 2:
            continue
        cross_ok = False
        i, j, d = key
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                emit(Witness("cross", (members[a], members[b]), (i, j), d))

    return VerificationReport(auto_ok, cross_ok, max_mult, witnesses, violation_count)


def random_code(rng: random.Random) -> Code:
    """A small code of random shape, often failing: repeats and half periods planted."""
    n, m, lam_a = rng.randint(1, 4), rng.randint(1, 14), rng.randint(1, 3)
    k = rng.randint(1, min(4, n * m))
    cells = [(r, s) for r in range(n) for s in range(m)]
    cws = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if cws and roll < 0.15:
            cws.append(rng.choice(cws))
        elif m % 2 == 0 and k >= 2 and roll < 0.35:
            r, s = rng.randrange(n), rng.randrange(m)
            half = {(r, s), (r, (s + m // 2) % m)}
            rest = rng.sample([c for c in cells if c not in half], k - 2)
            cws.append(make_codeword([*half, *rest]))
        else:
            cws.append(make_codeword(rng.sample(cells, k)))
    return Code(CodeParams(n, m, k, lam_a, 1), cws)


def grow_passing_code(rng: random.Random, params: CodeParams, codewords: list, draw) -> Code:
    """`codewords`, then each of 60 drawn codewords that keeps the code passing by the oracle."""
    for _ in range(60):
        trial = Code(params, [*codewords, draw(rng)])
        if oracle_verify_code(trial).passed:
            codewords = trial.codewords
    return Code(params, codewords)


def any_codeword(n: int, m: int):
    cells = [(r, s) for r in range(n) for s in range(m)]
    return lambda rng: make_codeword(rng.sample(cells, 3))


def half_period_codeword(n: int, m: int):
    """A codeword with a pure pair at difference m/2: one row, or a pair on either row."""

    def draw(rng):
        r, s = rng.randrange(n), rng.randrange(m)
        half = {(r, s), (r, (s + m // 2) % m)}
        third = rng.choice([(q, t) for q in range(n) for t in range(m) if (q, t) not in half])
        return make_codeword([*half, third])

    return draw


@pytest.fixture
def fast_pass(monkeypatch):
    """What `verify._weight3_pass` returned, one entry per `verify_code` call
    on a weight-3 code: the report when it decided, None when the witness
    path ran."""
    results = []
    real = verify._weight3_pass

    def spy(code):
        results.append(real(code))
        return results[-1]

    monkeypatch.setattr(verify, "_weight3_pass", spy)
    return results


FAMILY_CODES = {
    "equi_2mod4-14": lambda: equi_2mod4(14),
    "equi_2mod4-18": lambda: equi_2mod4(18),
    "g_regular_4g-3": lambda: g_regular_4g(3),
    "g_regular_4g-5": lambda: g_regular_4g(5),
    "equi_power4-1-6": lambda: equi_power4(1, 6),
    "equi_power4-2-2-half_free": lambda: equi_power4(2, 2, HALF_FREE),
    "tight_derived-13-1": lambda: tight_derived(13, 1),
    "tight_derived-15-1": lambda: tight_derived(15, 1),
    "prime_derived-11-1": lambda: prime_derived(11, 1),
    "prime_derived-31-0": lambda: prime_derived(31, 0),
    "explicit-1d48": lambda: explicit_code("1d48"),
    "explicit-3x52": lambda: explicit_code("3x52"),
    "ooc_2xm-8": lambda: ooc_2xm(8),
    "ooc_2xm-20": lambda: ooc_2xm(20),
    "ooc_3xm-20": lambda: ooc_3xm(20),
    "ooc_3xm-24": lambda: ooc_3xm(24),
    "compose_0mod3-12-8": lambda: compose_0mod3(12, 8),
}


class TestVerifyCodeAgainstOracle:
    def test_random_codes(self):
        rng = random.Random(20261018)
        failing = 0
        for _ in range(3000):
            code = random_code(rng)
            report = verify_code(code)
            assert report == oracle_verify_code(code), code
            failing += not report.passed
        assert failing > 1000

    @pytest.mark.parametrize(
        "build",
        [lambda: ooc_3xm(5408), lambda: equi_power4(3, 330), lambda: ooc_2xm(2000)],
        ids=["ooc_3xm-5408", "equi_power4-3-330", "ooc_2xm-2000"],
    )
    def test_large_codes_with_a_planted_translate(self, build):
        code = build().code
        assert verify_code(code) == oracle_verify_code(code)
        m = code.params.m
        planted = Code(code.params, code.codewords + [translate(code.codewords[0], m // 3, m)])
        report = verify_code(planted)
        assert not report.cross_ok
        assert report == oracle_verify_code(planted)

    @pytest.mark.parametrize("family", FAMILY_CODES)
    def test_every_family_and_its_sub_codes_pass_in_the_weight3_pass(self, family, fast_pass):
        code = FAMILY_CODES[family]().code
        rng = random.Random(family)
        for size in [len(code.codewords)] + [rng.randint(1, len(code.codewords)) for _ in range(20)]:
            sub = Code(code.params, rng.sample(code.codewords, size))
            report = verify_code(sub)
            assert report == oracle_verify_code(sub) and report.passed
            assert fast_pass[-1] is report

    @pytest.mark.parametrize("n, m", [(1, 9), (1, 24), (2, 12), (3, 15)])
    def test_third_period_codewords_at_lambda_3(self, n, m, fast_pass):
        third = make_codeword((n - 1, s) for s in (0, m // 3, 2 * m // 3))
        code = grow_passing_code(
            random.Random(n * m), CodeParams(n, m, 3, 3, 1), [third], any_codeword(n, m)
        )
        report = verify_code(code)
        assert report == oracle_verify_code(code) and report.passed
        assert report.max_auto_multiplicity == 3 and fast_pass[-1] is report
        at_two = Code(replace(code.params, lambda_a=2), code.codewords)
        assert verify_code(at_two) == oracle_verify_code(at_two)
        assert fast_pass[-1] is None

    @pytest.mark.parametrize("n, m", [(1, 16), (2, 8), (2, 12), (3, 10)])
    def test_half_period_codewords(self, n, m, fast_pass):
        code = grow_passing_code(
            random.Random(n * m), CodeParams(n, m), [], half_period_codeword(n, m)
        )
        code = grow_passing_code(random.Random(m), code.params, code.codewords, any_codeword(n, m))
        assert len(code.codewords) >= 2
        report = verify_code(code)
        assert report == oracle_verify_code(code) and report.passed
        assert report.max_auto_multiplicity == 2 and fast_pass[-1] is report
        at_one = Code(replace(code.params, lambda_a=1), code.codewords)
        assert verify_code(at_one) == oracle_verify_code(at_one)
        assert fast_pass[-1] is None

    @pytest.mark.parametrize("family", ["ooc_3xm-20", "ooc_2xm-8", "equi_power4-1-6"])
    def test_unsorted_cells_take_the_witness_path(self, family, fast_pass):
        code = FAMILY_CODES[family]().code
        sorted_report = oracle_verify_code(code)
        for idx, cw in enumerate(code.codewords):
            for order in ((2, 1, 0), (1, 0, 2), (0, 2, 1)):
                hand = list(code.codewords)
                hand[idx] = tuple(cw[o] for o in order)
                report = verify_code(Code(code.params, hand))
                assert fast_pass[-1] is None
                assert report == sorted_report == oracle_verify_code(Code(code.params, hand))

    @pytest.mark.parametrize(
        "codewords, cross_ok",
        [
            # both codewords hold rows (0, 1) at difference 6 once the second
            # one's pair is read lower row first
            ([((0, 0), (0, 1), (1, 3)), ((1, 4), (0, 2), (0, 5))], False),
            ([((0, 0), (0, 1), (1, 3)), ((1, 0), (0, 2), (0, 4))], True),
            ([((0, 0), (0, 1), (1, 3)), ((1, 4), (0, 2), (0, 3))], False),
            ([((1, 3), (0, 0), (0, 1)), ((1, 4), (0, 2), (0, 5))], False),
        ],
    )
    def test_unsorted_cells_equal_the_oracle(self, codewords, cross_ok, fast_pass):
        code = Code(CodeParams(2, 8), codewords)
        report = verify_code(code)
        assert fast_pass[-1] is None
        assert report == oracle_verify_code(code)
        assert report.cross_ok is cross_ok

    @pytest.mark.parametrize("lambda_a", [1, 2, 3])
    def test_every_codeword_and_every_pair_on_I2_x_Z6(self, lambda_a, fast_pass):
        # the weight-3 pass restates `_pair_classes` for each row shape; on
        # this grid every shape meets every difference, the half period and
        # the third period included
        params = CodeParams(2, 6, 3, lambda_a, 1)
        cws = list(combinations([(r, s) for r in range(2) for s in range(6)], 3))
        codes = [[cw] for cw in cws] + [list(pair) for pair in combinations(cws, 2)]
        passing = 0
        for codewords in codes:
            code = Code(params, codewords)
            report = verify_code(code)
            assert report == oracle_verify_code(code), codewords
            assert (fast_pass[-1] is report) == report.passed, codewords
            passing += report.passed
        assert 0 < passing < len(codes)


def outcome(code: Code):
    try:
        return verify_code(code)
    except Exception as exc:
        return type(exc).__name__, str(exc)


GOOD = ((0, 0), (0, 1), (1, 3))
MALFORMED = {
    "weight-2": (None, lambda: [GOOD, ((0, 2), (1, 0))]),
    "weight-4": (None, lambda: [GOOD, ((0, 2), (0, 4), (1, 0), (1, 1))]),
    "repeated-cell": (None, lambda: [GOOD, ((0, 2), (0, 2), (1, 0))]),
    "row-past-n": (None, lambda: [GOOD, ((0, 2), (1, 0), (2, 0))]),
    "negative-row": (None, lambda: [GOOD, ((-1, 0), (0, 2), (1, 0))]),
    "slot-past-m": (None, lambda: [GOOD, ((0, 2), (1, 0), (1, 8))]),
    "negative-slot": (None, lambda: [GOOD, ((0, -1), (0, 2), (1, 0))]),
    "unsorted-cells": (True, lambda: [GOOD, ((1, 0), (0, 2), (0, 4))]),
    "unsorted-cells-sharing-a-class": (False, lambda: [GOOD, ((1, 4), (0, 2), (0, 3))]),
    "float-slot": (None, lambda: [GOOD, ((0, 2), (0, 4.5), (1, 0))]),
    "list-cells": (None, lambda: [GOOD, ([0, 2], [0, 4], [1, 0])]),
    "generator-codeword": (None, lambda: [GOOD, (c for c in ((0, 2), (0, 4), (1, 0)))]),
    "generator-of-codewords": (True, lambda: (cw for cw in [GOOD, ((0, 2), (0, 4), (1, 0))])),
}


class TestWeight3PassNeverDecidesAMalformedCode:
    @pytest.mark.parametrize("name", MALFORMED)
    def test_the_witness_path_gives_the_outcome(self, name, fast_pass, monkeypatch):
        passes, codewords = MALFORMED[name]
        params = CodeParams(2, 8)
        got = outcome(Code(params, codewords()))
        assert fast_pass == [None]
        monkeypatch.setattr(verify, "_weight3_pass", lambda code: None)
        assert got == outcome(Code(params, codewords()))
        if passes is None:
            assert isinstance(got, tuple)  # an exception of `Code.validate`
        else:
            assert got.passed is passes


def test_bool_cells_pass_both_paths_alike(fast_pass, monkeypatch):
    # `Code.validate` takes a bool as an int, as the weight-3 pass does
    bools = ((False, 0), (False, 1), (True, 3))
    code = Code(CodeParams(2, 8), [bools, ((0, 2), (0, 4), (1, 0))])
    report = verify_code(code)
    assert fast_pass == [report] and report.passed
    monkeypatch.setattr(verify, "_weight3_pass", lambda code: None)
    assert verify_code(code) == report


class TestMatrixCorrelation:
    def test_zero_shift_self_is_weight(self):
        a = cw((0, 0), (0, 1), (0, 2))
        assert matrix_correlation(a, a, 0, CodeParams(1, 8)) == 3

    def test_disjoint_rows_never_overlap(self):
        a = cw((0, 0), (0, 1), (0, 2))
        b = cw((1, 0), (1, 1), (1, 2))
        assert all(matrix_correlation(a, b, r, CodeParams(2, 8)) == 0 for r in range(8))

    def test_shifted_interval_overlap(self):
        a = cw((0, 0), (0, 1), (0, 2))
        assert matrix_correlation(a, a, 1, CodeParams(1, 8)) == 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matrix_correlation(cw((0, 9),), cw((0, 0),), 0, CodeParams(1, 8))

    def test_matrix_verdicts_agree_on_examples(self):
        good = explicit_code("3x8").code
        assert matrix_verdicts(good) == (True, True)
        bad = one_row_code(9, [(0, 3, 6), (0, 2, 5)])
        assert matrix_verdicts(bad) == (False, False)
        # cells out of row order: both codewords hold rows (0, 1) at difference 6
        unsorted = Code(
            CodeParams(2, 7), [((0, 0), (1, 1), (1, 3)), ((1, 2), (0, 1), (0, 5))]
        )
        report = verify_code(unsorted)
        assert matrix_verdicts(unsorted) == (report.auto_ok, report.cross_ok) == (True, False)


class TestCompositionCensus:
    def test_explicit_three_row_split(self):
        c = composition_census(explicit_code("3x8").code)
        assert (c.alpha, c.beta, c.gamma) == (3, 6, 4)
        assert (c.alpha3, c.beta1, c.beta2) == (3, 0, 6)

    def test_empty_code(self):
        c = composition_census(Code(CodeParams(3, 8), []))
        assert (c.alpha, c.beta, c.gamma) == (0, 0, 0)

    def test_single_transversal(self):
        c = composition_census(Code(CodeParams(3, 8), [cw((0, 0), (1, 1), (2, 3))]))
        assert (c.alpha, c.beta, c.gamma) == (0, 0, 1)

    def test_bucket_sums(self):
        c = composition_census(explicit_code("3x52").code)
        assert c.alpha2 + c.alpha3 + c.alpha4 + c.alpha5 + c.alpha6 == c.alpha
        assert c.beta1 + c.beta2 == c.beta
        assert c.alpha + c.beta + c.gamma == 88

    def test_rejects_a_weight_two_code(self):
        with pytest.raises(ValueError, match="weight-3 codes"):
            composition_census(Code(CodeParams(1, 8, 2), [cw((0, 0), (0, 1))]))


class TestParityCensus:
    def test_explicit_one_row_code_breakdown(self):
        code = explicit_code("1d48").code
        pc = parity_census(code)
        assert pc.total() == 10
        assert (pc.c_o, pc.c_e, pc.c_d) == (6, 0, 1)
        assert (pc.n_oe, pc.n_od, pc.n_e, pc.n_d) == (0, 3, 0, 0)

    def test_single_progression(self):
        pc = parity_census(one_row_code(8, [(0, 1, 2)]))
        assert (pc.c_o, pc.total()) == (1, 1)

    def test_two_odd_one_doubly_even_pair(self):
        # halved sets {1,16,17} and {4,5,9}: two odds plus a doubly even each
        pc = parity_census(one_row_code(48, [(0, 1, 17), (0, 5, 9)]))
        assert pc.n_od == 2 and pc.total() == 2

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            parity_census(one_row_code(6, [(0, 1, 2)]))

    def test_rejects_a_two_row_codeword(self):
        with pytest.raises(ValueError, match="single-row codewords"):
            parity_census(Code(CodeParams(2, 8), [cw((0, 0), (0, 1), (1, 2))]))


class TestStructuralFacts:
    def test_leave_of_smallest_2mod4_family(self):
        facts = structural_facts(equi_2mod4(6).code)
        assert facts.difference_leave == {3}
        assert facts.is_equi_difference and not facts.is_tight_cac

    def test_regular_subgroups_of_4g_family(self):
        facts = structural_facts(g_regular_4g(2).code)
        assert facts.difference_leave == {1, 4, 7}
        assert facts.regular_subgroups == {1, 2}

    def test_tight_on_five(self):
        facts = structural_facts(one_row_code(5, [(0, 1, 2)]))
        assert facts.difference_leave == frozenset()
        assert facts.is_tight_cac

    def test_leave_and_support_partition_nonzero_residues(self):
        code = equi_2mod4(18).code
        facts = structural_facts(code)
        support = set()
        for w in code.codewords:
            slots = [s for _, s in w]
            support |= {(x - y) % 18 for x in slots for y in slots if x != y}
        assert facts.difference_leave | support == set(range(1, 18))
        assert not facts.difference_leave & support

    def test_needs_one_row(self):
        with pytest.raises(ValueError):
            structural_facts(explicit_code("3x8").code)
        with pytest.raises(ValueError):
            difference_leave(explicit_code("3x8").code)

    def test_difference_leave_is_the_facts_leave(self):
        for code in (equi_2mod4(6).code, g_regular_4g(2).code, one_row_code(9, [(0, 3, 6)])):
            assert difference_leave(code) == structural_facts(code).difference_leave
        assert difference_leave(one_row_code(9, [(0, 3, 6)])) == {1, 2, 4, 5, 7, 8}
        assert difference_leave(Code(CodeParams(1, 1), [])) == frozenset()


class TestCensusInequalities:
    def test_composition_bounds_on_examples(self):
        for code_id in ("3x8", "3x20", "3x32", "3x52", "3x4", "1d48"):
            code = explicit_code(code_id).code
            for name, (lhs, rhs) in composition_inequalities(code).items():
                assert lhs <= rhs, (code_id, name)

    def test_parity_bounds_on_one_row_code(self):
        code = explicit_code("1d48").code
        bounds = parity_inequalities(code)
        assert bounds["odd_capacity"] == (12, 12)
        assert bounds["singly_even_capacity"] == (6, 6)
        assert bounds["doubly_even_capacity"] == (5, 6)

    def test_parity_bounds_need_one_row(self):
        with pytest.raises(ValueError, match="1-D codes"):
            parity_inequalities(Code(CodeParams(2, 8), []))
