import itertools
import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from oockit.core import (
    Code,
    CodeParams,
    classify_codeword,
    difference_profile,
    halved_difference_set,
    is_equi_difference_codeword,
    make_codeword,
    normalize,
    parity_class,
    pure_difference_support,
    restrict_to_row,
    translate,
)


def cw(*cells):
    return make_codeword(cells)


class TestCodeParams:
    def test_defaults(self):
        p = CodeParams(3, 8)
        assert (p.k, p.lambda_a, p.lambda_c) == (3, 2, 1)

    @pytest.mark.parametrize("bad", [dict(n=0, m=4), dict(n=1, m=0), dict(n=1, m=4, k=0)])
    def test_rejects_bad_dimensions(self, bad):
        with pytest.raises(ValueError):
            CodeParams(**bad)

    def test_rejects_non_unit_cross_correlation(self):
        with pytest.raises(ValueError):
            CodeParams(1, 8, lambda_c=2)


class TestCodewords:
    def test_cells_sorted_and_deduped(self):
        assert cw((1, 3), (0, 5)) == ((0, 5), (1, 3))
        with pytest.raises(ValueError):
            cw((0, 1), (0, 1), (1, 2))

    def test_code_validate_catches_out_of_range(self):
        code = Code(CodeParams(1, 4), [cw((0, 0), (0, 1), (0, 5))])
        with pytest.raises(ValueError):
            code.validate()

    @pytest.mark.parametrize("cell", [(0, 4.5), (1.0, 2), (0, "3"), (None, 2), (0, 3 + 0j)])
    def test_code_validate_names_a_cell_that_is_not_ints(self, cell):
        code = Code(CodeParams(2, 8), [cw((0, 0), (0, 1), (1, 3)), ((0, 1), (1, 5), cell)])
        named = re.escape(f"cell ({cell[0]},{cell[1]}) of codeword 1")
        with pytest.raises(ValueError, match=named):
            code.validate()

    def test_code_validate_takes_a_bool_as_an_int(self):
        # bool is an int subclass, and its class keys are ints
        Code(CodeParams(2, 8), [((False, 0), (False, 1), (True, 3))]).validate()

    @pytest.mark.parametrize("cell", [(1, 4.5), (1.0, 2), (0, "3"), (None, 2)])
    def test_make_codeword_names_a_cell_that_is_not_ints(self, cell):
        # int() would truncate 4.5 to 4 and read "3" as 3: another codeword
        with pytest.raises(ValueError, match=re.escape(f"cell ({cell[0]},{cell[1]})")):
            make_codeword([(0, 0), (0, 1), cell])

    def test_make_codeword_takes_a_bool_as_an_int(self):
        out = make_codeword([(True, False), (0, 0), (False, 3)])
        assert out == ((0, 0), (0, 3), (1, 0))
        assert all(type(x) is int for cell in out for x in cell)

    def test_code_validate_catches_wrong_weight(self):
        code = Code(CodeParams(2, 4, k=3), [cw((0, 0), (1, 1))])
        with pytest.raises(ValueError):
            code.validate()


class TestDifferenceProfile:
    def test_single_row_multiset(self):
        # {0,3,6} on Z_8: hand enumeration of all six ordered pairs
        prof = difference_profile(cw((0, 0), (0, 3), (0, 6)), CodeParams(1, 8))
        assert prof == {(0, 0): Counter({3: 2, 5: 2, 6: 1, 2: 1})}

    def test_all_rows_same_slot(self):
        prof = difference_profile(cw((0, 0), (1, 0), (2, 0)), CodeParams(3, 4))
        assert set(prof) == {(i, j) for i in range(3) for j in range(3) if i != j}
        assert all(c == Counter({0: 1}) for c in prof.values())

    def test_third_period_triple_has_multiplicity_three(self):
        prof = difference_profile(cw((0, 0), (0, 3), (0, 6)), CodeParams(1, 9))
        assert prof[(0, 0)][3] == 3

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(ValueError):
            difference_profile(cw((0, 0), (0, 9)), CodeParams(1, 8))


class TestHalvedDifferenceSet:
    def test_small_generator(self):
        # {0,i,2i} with i <= m/4 folds to {i, 2i}
        assert halved_difference_set(cw((0, 0), (0, 3), (0, 6)), 16) == {3, 6}

    def test_large_generator(self):
        # m/4 < i < m/2 folds to {i, m-2i}
        assert halved_difference_set(cw((0, 0), (0, 5), (0, 10)), 16) == {5, 6}

    def test_non_equi_codeword(self):
        assert halved_difference_set(cw((0, 0), (0, 1), (0, 17)), 48) == {1, 16, 17}

    def test_rejects_bad_modulus_and_rows(self):
        with pytest.raises(ValueError):
            halved_difference_set(cw((0, 0), (0, 1), (0, 2)), 6)
        with pytest.raises(ValueError):
            halved_difference_set(cw((0, 0), (1, 1), (0, 2)), 8)


class TestClassify:
    def test_quarter_period_triple(self):
        assert classify_codeword(cw((0, 0), (0, 2), (0, 4)), CodeParams(1, 8)) == "alpha3"

    def test_two_rows_plain(self):
        assert classify_codeword(cw((0, 0), (0, 2), (1, 5)), CodeParams(2, 8)) == "beta2"

    def test_two_rows_half_period(self):
        assert classify_codeword(cw((0, 0), (0, 4), (1, 5)), CodeParams(2, 8)) == "beta1"

    def test_three_rows(self):
        assert classify_codeword(cw((0, 0), (1, 1), (2, 3)), CodeParams(3, 8)) == "gamma"

    def test_full_support_sizes(self):
        assert classify_codeword(cw((0, 0), (0, 1), (0, 2)), CodeParams(1, 9)) == "alpha4"
        assert classify_codeword(cw((0, 0), (0, 1), (0, 4)), CodeParams(1, 8)) == "alpha5"
        assert classify_codeword(cw((0, 0), (0, 1), (0, 3)), CodeParams(1, 9)) == "alpha6"
        assert classify_codeword(cw((0, 0), (0, 3), (0, 6)), CodeParams(1, 9)) == "alpha2"

    def test_weight_checked(self):
        with pytest.raises(ValueError):
            classify_codeword(cw((0, 0), (0, 1)), CodeParams(1, 8))


class TestParityClass:
    def test_odd_even(self):
        assert parity_class(cw((0, 0), (0, 1), (0, 2)), 8) == "i"

    def test_even_doubly(self):
        assert parity_class(cw((0, 0), (0, 2), (0, 4)), 16) == "ii"

    def test_doubly_doubly(self):
        assert parity_class(cw((0, 0), (0, 12), (0, 24)), 48) == "iii"

    def test_three_element_classes(self):
        assert parity_class(cw((0, 0), (0, 1), (0, 3)), 8) == "iv"
        assert parity_class(cw((0, 0), (0, 1), (0, 17)), 48) == "v"
        assert parity_class(cw((0, 0), (0, 2), (0, 8)), 24) == "vi"
        assert parity_class(cw((0, 0), (0, 4), (0, 12)), 32) == "vii"

    def test_third_period_rejected(self):
        with pytest.raises(ValueError):
            parity_class(cw((0, 0), (0, 4), (0, 8)), 12)

    def test_weight_checked(self):
        with pytest.raises(ValueError, match="needs weight 3, got 2"):
            parity_class(cw((0, 0), (0, 1)), 8)

    def test_every_triple_gets_a_label_or_lies_on_the_third_period(self):
        # the seven count patterns are every halved set a weight-3 codeword has
        labels = Counter()
        for m in range(4, 33, 4):
            for slots in itertools.combinations(range(m), 3):
                try:
                    labels[parity_class(cw(*((0, s) for s in slots)), m)] += 1
                except ValueError as err:
                    assert "third-period" in str(err), (m, slots)
                    labels["third period"] += 1
        assert sum(labels.values()) == sum(math.comb(m, 3) for m in range(4, 33, 4))
        assert set(labels) == {"i", "ii", "iii", "iv", "v", "vi", "vii", "third period"}


class TestNormalize:
    def test_translates_to_origin(self):
        assert normalize(cw((0, 5), (0, 6), (0, 7)), 8) == cw((0, 0), (0, 1), (0, 2))

    def test_already_minimal(self):
        w = cw((0, 0), (0, 1), (1, 3))
        assert normalize(w, 8) == w

    def test_weight_two(self):
        # all four translations checked by hand
        assert normalize(cw((0, 2), (1, 3)), 4) == cw((0, 0), (1, 1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_matches_scan_on_every_three_subset(self, n):
        # every 3-subset of I_n x Z_m, m <= 12: the ties at d = m/2 and of
        # equal gaps included; a normal codeword comes back as itself
        for m in range(1, 13):
            cells = [(r, s) for r in range(n) for s in range(m)]
            for w in itertools.combinations(cells, 3):
                least = min(translate(w, s, m) for s in range(m))
                got = normalize(w, m)
                assert got == least, (w, m)
                assert (got is w) == (w == least), (w, m)

    @pytest.mark.parametrize(
        "w,m",
        [
            (((0, 5), (0, 2), (1, 3)), 8),  # unsorted
            (((1, 3), (0, 2), (0, 6)), 8),
            ([(0, 0), (0, 1), (0, 3)], 8),  # a list of cells
            (([0, 0], [0, 1], [0, 3]), 8),  # list cells
            (((0, 0), (0, 1), (0, 9)), 8),  # out of range
            (((0, -3), (1, 0), (1, 2)), 8),
            (((0, 0), (0, 8), (1, 1)), 8),  # equal mod m
            (((0, 1), (0, 1), (1, 1)), 8),  # a repeated cell
        ],
    )
    def test_other_inputs_take_the_candidate_shifts(self, w, m):
        got = normalize(w, m)
        assert got == min(translate(w, s, m) for s in range(m))
        assert type(got) is tuple and all(type(cell) is tuple for cell in got)


class TestRestrictToRow:
    def test_keeps_only_full_row_codewords(self):
        code = Code(
            CodeParams(2, 8),
            [cw((0, 0), (0, 1), (0, 3)), cw((0, 0), (1, 1), (1, 3)), cw((1, 0), (1, 2), (1, 5))],
        )
        sub = restrict_to_row(code, 1)
        assert sub.params.n == 1
        assert sub.codewords == [cw((0, 0), (0, 2), (0, 5))]


@st.composite
def codeword_and_params(draw, max_n=3, max_m=12, k=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(max(2, k), max_m))
    cells = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
            min_size=k,
            max_size=k,
        )
    )
    return make_codeword(cells), CodeParams(n, m, k)


@st.composite
def codeword_with_crowded_lowest_row(draw):
    """Up to three cells on the lowest row, up to three above it, slots up to 3m."""
    m = draw(st.integers(1, 16))
    r0 = draw(st.integers(0, 2))
    low = draw(st.sets(st.integers(0, 3 * m), max_size=3))
    high = draw(
        st.sets(st.tuples(st.integers(r0 + 1, r0 + 3), st.integers(0, 3 * m)), max_size=3)
    )
    return make_codeword([(r0, s) for s in low] + list(high)), m


class TestProperties:
    @given(codeword_with_crowded_lowest_row())
    @example(((), 1))
    @example(((), 7))
    @example((make_codeword(((0, 0), (0, 3), (1, 5))), 1))
    @example((make_codeword(((1, 9), (1, 13), (1, 20), (2, 4))), 8))
    def test_normalize_matches_scan_over_all_shifts(self, pair):
        w, m = pair
        assert normalize(w, m) == min(translate(w, s, m) for s in range(m))

    @given(codeword_and_params(), st.integers(0, 30))
    def test_profile_translation_invariant(self, pair, shift):
        w, params = pair
        assert difference_profile(w, params) == difference_profile(
            translate(w, shift, params.m), params
        )

    @given(codeword_and_params())
    def test_profile_total_size(self, pair):
        w, params = pair
        k = params.k
        total = sum(sum(c.values()) for c in difference_profile(w, params).values())
        assert total == k * (k - 1)

    @given(codeword_and_params(), st.integers(0, 30))
    def test_normalize_orbit_constant(self, pair, shift):
        w, params = pair
        m = params.m
        assert normalize(w, m) == normalize(translate(w, shift, m), m)
        assert normalize(normalize(w, m), m) == normalize(w, m)

    @given(codeword_and_params(), st.integers(0, 30))
    def test_classify_translation_invariant(self, pair, shift):
        w, params = pair
        assert classify_codeword(w, params) == classify_codeword(
            translate(w, shift, params.m), params
        )

    @given(st.integers(1, 12), st.data())
    def test_parity_class_matches_membership_recount(self, quarter, data):
        m = 4 * quarter
        slots = data.draw(
            st.sets(st.integers(0, m - 1), min_size=3, max_size=3)
        )
        w = make_codeword((0, s) for s in slots)
        if len(pure_difference_support(w, m)) == 2:
            return
        label = parity_class(w, m)
        halved = halved_difference_set(w, m)
        counts = (
            sum(1 for d in halved if d % 2),
            sum(1 for d in halved if d % 4 == 2),
            sum(1 for d in halved if d % 4 == 0),
        )
        expected = {
            (1, 1, 0): "i", (0, 1, 1): "ii", (0, 0, 2): "iii",
            (2, 1, 0): "iv", (2, 0, 1): "v", (0, 2, 1): "vi", (0, 0, 3): "vii",
        }
        assert expected[counts] == label

    @given(st.integers(3, 12), st.data())
    def test_equi_difference_detection_matches_orbit_scan(self, m, data):
        slots = data.draw(st.sets(st.integers(0, m - 1), min_size=3, max_size=3))
        w = make_codeword((0, s) for s in slots)
        gens = set()
        for a in range(1, m):
            if a != 0 and (2 * a) % m not in (0, a):
                gens.add(normalize(make_codeword(((0, 0), (0, a), (0, 2 * a % m))), m))
        assert is_equi_difference_codeword(w, m) == (normalize(w, m) in gens)

    def test_a_two_row_codeword_is_not_equi_difference(self):
        assert not is_equi_difference_codeword(cw((0, 0), (0, 1), (1, 2)), 8)
