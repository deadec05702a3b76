import array
import functools
import hashlib
import inspect
import itertools
import math
import re
import random
import sys
import time
from dataclasses import replace
from math import comb
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oockit import search
from oockit.bounds import cac_optimal_size, me_prime, phi_exact, psi_e_exact
from oockit.construct import compose_0mod3, ooc_3xm
from oockit.core import Code, CodeParams, SearchExhausted, make_codeword, normalize
from oockit.search import (
    EXACT_COVER,
    HILL_CLIMB,
    GddBaseBlocks,
    SearchConfig,
    _Budget,
    _codeword_mask,
    _max_packing,
    _orbit_representatives,
    equi_search,
    gdd_search,
    optimal_search,
    tight_search,
)
from oockit.verify import _pair_classes, _pure_classes, verify_code


# the first code of size 7 that the 2 x 10 packing search finds
FIRST_SEVEN = [
    make_codeword(cells)
    for cells in (
        ((0, 0), (0, 1), (0, 2)),
        ((0, 0), (0, 3), (0, 6)),
        ((0, 0), (0, 5), (1, 0)),
        ((0, 0), (1, 1), (1, 2)),
        ((0, 0), (1, 3), (1, 6)),
        ((0, 0), (1, 4), (1, 8)),
        ((0, 0), (1, 7), (1, 9)),
    )
]


class TestOptimalSearch:
    def test_two_by_four(self):
        out = optimal_search(2, 4, 2)
        assert out.best_size == 2 and out.proven_optimal

    def test_three_by_four(self):
        out = optimal_search(3, 4, 2)
        assert out.best_size == 6 and out.proven_optimal

    def test_one_row_cases(self):
        assert optimal_search(1, 8, 2).best_size == 1
        assert optimal_search(1, 12, 2).best_size == 2

    def test_relaxed_autocorrelation_matches_closed_form(self):
        for m in (2, 4, 6, 8, 10, 12):
            out = optimal_search(1, m, 3)
            assert out.proven_optimal
            assert out.best_size == cac_optimal_size(m).value, m

    def test_witness_verifies(self):
        out = optimal_search(3, 4, 2)
        assert verify_code(out.best).passed

    def test_an_unverifiable_packing_is_refused(self, monkeypatch):
        # {0, 1, 2} and {0, 1, 3}, the first two candidates on Z_8, share the difference 1
        monkeypatch.setattr(search, "_max_packing", lambda masks, pure, budget: ([0, 1], True))
        with pytest.raises(AssertionError, match="unverifiable witness"):
            optimal_search(1, 8)

    @pytest.mark.parametrize("field", ["time_budget", "node_budget"])
    def test_nan_budget_rejected(self, field):
        # a NaN deadline or node cap would never stop a search
        with pytest.raises(ValueError, match="NaN"):
            SearchConfig(**{field: float("nan")})
        SearchConfig(**{field: float("inf")})
        SearchConfig(**{field: 0})

    def test_unknown_strategy_rejected(self):
        # else it would run as the exact cover and report its result as proven
        with pytest.raises(ValueError, match="exact_cover or hill_climb_restart"):
            SearchConfig(strategy="bogus")

    def test_budget_exhaustion_reports_partial(self):
        out = optimal_search(3, 8, 2, SearchConfig(node_budget=50))
        assert not out.proven_optimal
        assert out.nodes <= 51

    def test_determinism(self):
        a = optimal_search(2, 6, 2)
        b = optimal_search(2, 6, 2)
        assert a.best.codewords == b.best.codewords and a.nodes == b.nodes

    @pytest.mark.parametrize(
        "n, m, size, nodes", [(2, 10, 7, 1124), (3, 5, 8, 76), (4, 3, 6, 5172)]
    )
    def test_node_counts_unchanged(self, n, m, size, nodes):
        # figures of the search bounded by the classes its candidates hold;
        # under the free-class bound they were 65 739, 220 and 67 494
        out = optimal_search(n, m)
        assert (out.best_size, out.nodes, out.proven_optimal) == (size, nodes, True)

    @pytest.mark.parametrize(
        "node_budget, size, nodes", [(1, 0, 1), (17, 7, 17), (1000, 7, 1000), (30001, 7, 1124)]
    )
    def test_node_budget_outcomes_unchanged(self, node_budget, size, nodes):
        # the outcomes of the search that filtered a candidate list at every
        # node, up to its first 1 000 nodes; the whole tree now takes 1 124
        out = optimal_search(2, 10, 2, SearchConfig(node_budget=node_budget))
        assert (out.best_size, out.nodes, out.proven_optimal) == (size, nodes, nodes < node_budget)
        assert out.best.codewords == FIRST_SEVEN[:size]

    def test_budget_covers_setup(self):
        start = time.monotonic()
        out = optimal_search(6, 60, 2, SearchConfig(time_budget=0.2))
        assert time.monotonic() - start < 1.5
        assert (out.best_size, out.proven_optimal, out.best.codewords) == (0, False, [])


@pytest.mark.parametrize("n, m", [(1, 12), (2, 10), (3, 8), (4, 5)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_orbit_representatives_match_normalized_subsets(n, m, k):
    cells = [(i, x) for i in range(n) for x in range(m)]
    expected = sorted({normalize(make_codeword(c), m) for c in itertools.combinations(cells, k)})
    assert list(_orbit_representatives(n, m, k)) == expected


class TestEquiSearch:
    def test_matches_exact_formulas(self):
        for m in (4, 8, 12, 13, 20):
            assert equi_search(m, 2).best_size == psi_e_exact(m).value

    def test_small_unknown_value(self):
        # no closed form at m = 9; exhaustive packing gives 1
        out = equi_search(9, 2)
        assert out.best_size == 1 and out.proven_optimal

    def test_relaxation_matches_prime_formula(self):
        for p in (5, 7, 11, 13):
            assert equi_search(p, 3).best_size == me_prime(p).value

    def test_third_period_needs_relaxation(self):
        # on Z_9 the generator 3 is only available at lambda_a = 3
        assert equi_search(9, 3).best_size == 2
        assert equi_search(9, 2).best_size == 1

    def test_trivial_moduli(self):
        assert equi_search(1, 2).best_size == 0
        assert equi_search(2, 2).best_size == 0

    @pytest.mark.parametrize(
        "m, size, nodes, generators",
        [
            (109, 27, 166, [1, 3, 4, 5, 7, 9, 12, 15, 16, 20, 21, 22, 25, 26,
                            27, 28, 29, 31, 34, 35, 36, 38, 43, 45, 46, 48, 49]),
            (103, 25, 614, [1, 3, 4, 5, 11, 12, 14, 16, 17, 18, 19, 20, 21,
                            23, 25, 26, 27, 30, 31, 35, 37, 44, 45, 47, 48]),
        ],
    )
    def test_node_counts_unchanged(self, m, size, nodes, generators):
        # the generators of the search that filtered a candidate list at
        # every node, on the nodes of the union bound (32 990 and 148 258 before)
        out = equi_search(m, 2)
        assert (out.best_size, out.nodes, out.proven_optimal) == (size, nodes, True)
        assert [cw[1][1] for cw in out.best.codewords] == generators

    def test_lambda_one_gives_the_empty_code(self):
        # every {0, a, 2a} repeats the difference a, so its peak is at least two
        for m in range(1, 61):
            out = equi_search(m, 1)
            assert out.best.codewords == [] and out.proven_optimal and out.nodes == 0


def _equi_vertices_by_hand(m, lambda_a):
    """The generator rule written out: 2a = 0 is no codeword, and
    lambda_a < 3 drops the third-period generators (3a = 0)."""
    by_support = {}
    for a in range(1, m):
        if (2 * a) % m == 0 or lambda_a < 3 and (3 * a) % m == 0:
            continue
        by_support.setdefault(frozenset({a, m - a, (2 * a) % m, (m - 2 * a) % m}), a)
    return sorted((a, supp) for supp, a in by_support.items())


@pytest.mark.parametrize("lambda_a", [2, 3, 4])
def test_equi_vertices_follow_the_peak_rule(lambda_a):
    # the generators that equi_search packs: those of _equi_codewords whose
    # peak passes the packing's filter
    for m in range(1, 400):
        kept = [cw[1][1] for cw in search._equi_codewords(m) if _codeword_mask(cw, 1, m)[1] <= lambda_a]
        assert kept == [a for a, _ in _equi_vertices_by_hand(m, lambda_a)], m


def test_peak_rule_is_the_codewords_peak():
    # the rule _equi_vertices_by_hand applies instead of building each codeword's mask
    for m in range(1, 200):
        for a in range(1, m):
            if (2 * a) % m:
                cw = tuple(sorted([(0, 0), (0, a), (0, 2 * a % m)]))
                peak = _codeword_mask(cw, 1, m)[1]
                assert peak == (3 if (3 * a) % m == 0 else 2), (m, a)


@pytest.mark.parametrize("run", [lambda c: equi_search(400_001, 2, c),
                                 lambda c: tight_search(400_001, c)])
def test_one_dimensional_budget_covers_setup(run):
    # the generator walk reads the clock: unread, it ran 10 s (tight) and
    # past 170 s (equi, whose packing masks then grow as m^2)
    start = time.monotonic()
    out = run(SearchConfig(time_budget=0.2))
    assert time.monotonic() - start < 2.0
    assert (out.best_size, out.proven_optimal, out.nodes) == (0, False, 0)


def test_equi_mask_build_reads_the_clock(monkeypatch):
    # the generator walk and the mask build, which grows as m^2, are one
    # paced loop: a budget spent after the first mask stops it before the
    # packing search starts
    budgets = []

    class Recorded(_Budget):
        def __init__(self, config):
            super().__init__(config)
            budgets.append(self)

    def spent_after_the_first(cw, n, m):
        budgets[0].deadline = float("-inf")
        return _codeword_mask(cw, n, m)

    def refuse(*args):
        raise AssertionError("the packing search ran on a spent budget")

    monkeypatch.setattr(search, "_Budget", Recorded)
    monkeypatch.setattr(search, "_codeword_mask", spent_after_the_first)
    monkeypatch.setattr(search, "_max_packing", refuse)
    out = equi_search(5003, 2)
    assert (out.best_size, out.proven_optimal, out.nodes) == (0, False, 0)


@st.composite
def _shape_and_codewords(draw, count):
    """n <= 4, m <= 14 and `count` codewords of one weight k <= 4 (k = 0: empty)."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 14))
    k = draw(st.integers(0, min(4, n * m)))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    cws = [make_codeword(draw(st.sets(cell, min_size=k, max_size=k))) for _ in range(count)]
    return n, m, cws


def _verified(n, m, cws):
    """verify_code on the (n x m, k, 2, 1) code of these codewords of weight k;
    the empty codeword gives the empty code."""
    k = max(len(cws[0]), 1)
    return verify_code(Code(CodeParams(n, m, k, 2, 1), [cw for cw in cws if cw]))


HALF = make_codeword([(1, 0), (1, 3), (1, 4)])  # 0 and 3 at the half period of Z_6


class TestMasksAgreeWithVerify:
    @given(_shape_and_codewords(1))
    @example((2, 6, [HALF]))
    @example((1, 9, [make_codeword([(0, 0), (0, 3), (0, 6)])]))
    @example((3, 5, [()]))
    def test_peak_is_the_auto_multiplicity(self, case):
        n, m, (cw,) = case
        assert _codeword_mask(cw, n, m)[1] == _verified(n, m, [cw]).max_auto_multiplicity

    @given(_shape_and_codewords(2))
    @example((2, 6, [HALF, make_codeword([(0, 1), (1, 1), (1, 2)])]))
    @example((2, 8, [make_codeword([(0, 0), (1, 3)]), make_codeword([(0, 5), (1, 0)])]))
    def test_disjoint_masks_are_cross_clean(self, case):
        n, m, (a, b) = case
        assume(_verified(n, m, [a]).passed and _verified(n, m, [b]).passed)
        disjoint = _codeword_mask(a, n, m)[0] & _codeword_mask(b, n, m)[0] == 0
        assert disjoint == _verified(n, m, [a, b]).cross_ok


@pytest.mark.parametrize("n, m", [(1, 12), (2, 10), (3, 8), (4, 5), (3, 1), (2, 2)])
def test_pure_classes_are_the_same_row_keys(n, m):
    pure = _pure_classes(n, m)
    for cw in _orbit_representatives(n, m, 3):
        keys, same_row = _pair_classes(cw, n, m)
        assert {k for k in keys if pure >> k & 1} == set(same_row)


def _largest_disjoint(masks):
    """Size of the largest set of pairwise disjoint masks, by listing every
    such set: the subsets of the first i masks grow by mask i where it fits."""
    union = {0: 0}  # subset of indices -> union of its masks
    for i, mask in enumerate(masks):
        union.update({s | 1 << i: u | mask for s, u in union.items() if u & mask == 0})
    return max(map(int.bit_count, union))


@st.composite
def _mask_family(draw):
    """0-12 masks of at least two bits over at most 16 classes, and the
    bitset of the pure classes among them.  Most masks are as small as a
    codeword's, so that a choice keeps many candidates and removes few."""
    width = draw(st.integers(2, 16))
    pure = draw(st.integers(0, (1 << width) - 1))
    most = draw(st.sampled_from([3, 3, width]))
    bits = st.sets(st.integers(0, width - 1), min_size=2, max_size=most)
    masks = draw(st.lists(bits, max_size=12))
    return [sum(1 << b for b in mask) for mask in masks], pure, width


def _reference_packing(masks, pure, width):
    """(indices, nodes) of the packing search with the free-class bound: depth
    first, lowest index first, a frame done when its candidates or the
    capacity of the classes no chosen mask holds cannot beat the best."""
    min_bits = min((x.bit_count() for x in masks), default=1)
    rated = all((x & pure).bit_count() + 2 * x.bit_count() >= 6 for x in masks)
    best, nodes = [], 0

    def capacity(free):
        rate = ((free & pure).bit_count() + 2 * free.bit_count()) // 6 if rated else math.inf
        return min(free.bit_count() // min_bits, rate)

    def search(chosen, cands, free):
        nonlocal best, nodes
        cap = capacity(free)
        while cands and len(chosen) + min(len(cands), cap) > len(best):
            nodes += 1
            i, *cands = cands
            if len(chosen) + 1 > len(best):
                best = chosen + [i]
            search(chosen + [i], [j for j in cands if not masks[j] & masks[i]], free & ~masks[i])

    search([], list(range(len(masks))), (1 << width) - 1)
    return best, nodes


@settings(max_examples=300)
@given(_mask_family())
def test_packing_is_a_largest_disjoint_set(family):
    # the union bound cuts only subtrees that cannot beat the best so far:
    # same first-found packing as the free-class bound, on no more nodes
    masks, pure, width = family
    budget = _Budget(SearchConfig())
    chosen, complete = _max_packing(masks, pure, budget)
    reference, nodes = _reference_packing(masks, pure, width)
    assert (chosen, complete) == (reference, True)
    assert budget.nodes <= nodes
    assert all(masks[i] & masks[j] == 0 for i, j in itertools.combinations(chosen, 2))
    assert len(chosen) == _largest_disjoint(masks)


def _algorithm_x(n_cols, rows, order, limit):
    """(rows, complete, nodes) of Algorithm X on sets: the first uncovered
    column of least live size, its rows by rank in `order`, one node per row
    tried; the `limit`-th node stops the search incomplete."""
    rank = {r: i for i, r in enumerate(range(len(rows)) if order is None else order)}
    nodes = 0

    def search(cols, live, chosen):
        nonlocal nodes
        if not cols:
            return chosen
        c = min(cols, key=lambda c: (sum(c in rows[r] for r in live), c))
        for r in sorted((r for r in live if c in rows[r]), key=rank.__getitem__):
            nodes += 1
            if nodes == limit:
                raise StopIteration
            left = {s for s in live if not set(rows[s]) & set(rows[r])}
            found = search(cols - set(rows[r]), left, chosen + [r])
            if found is not None:
                return found
        return None

    try:
        return search(set(range(n_cols)), set(range(len(rows))), []), True, nodes
    except StopIteration:
        return None, False, nodes


def test_exact_cover_kernel_is_algorithm_x():
    rng = random.Random(27)
    for _ in range(3000):
        n_cols = rng.randint(0, 8)
        rows = [tuple(rng.sample(range(n_cols), rng.randint(1, min(4, n_cols))))
                for _ in range(rng.randint(0, 14) if n_cols else 0)]
        order = rng.sample(range(len(rows)), len(rows)) if rng.random() < 0.9 else None
        limit = rng.choice([None, 1, 2, 3, 5, 8, 13])
        rank = None  # or the inverse of `order`: each row id's position in it
        if order is not None:
            rank = array.array("l", sorted(range(len(rows)), key=order.__getitem__))
        budget = _Budget(SearchConfig())
        picked, complete = search._ExactCover(n_cols, rows, budget).solve(budget, rank, limit)
        assert (picked, complete, budget.nodes) == _algorithm_x(n_cols, rows, order, limit)


class TestTightSearch:
    def test_thirteen(self):
        out = tight_search(13)
        assert out.best_size == 3
        assert out.best.codewords == [
            make_codeword(((0, 0), (0, 1), (0, 2))),
            make_codeword(((0, 0), (0, 3), (0, 6))),
            make_codeword(((0, 0), (0, 4), (0, 8))),
        ]

    def test_four(self):
        out = tight_search(4)
        assert out.best_size == 1
        assert out.best.codewords == [make_codeword(((0, 0), (0, 1), (0, 2)))]

    def test_seven_fails_with_proof(self):
        out = tight_search(7)
        assert out.best is None and out.proven_optimal

    def test_trivial_modulus(self):
        # an exact cover over zero columns: the empty code, proven at once
        out = tight_search(1)
        assert (out.best_size, out.nodes, out.proven_optimal, out.best.codewords) == (0, 0, True, [])

    def test_pinned_outcomes_up_to_300(self):
        # the tight search tries rows by id (no `order`): its node counts,
        # proofs and witnesses for m = 1..300, pinned as one digest
        digest = hashlib.sha256()
        for m in range(1, 301):
            out = tight_search(m)
            best = out.best.codewords if out.best else None
            digest.update(repr((m, out.nodes, out.proven_optimal, out.best_size, best)).encode())
        assert digest.hexdigest() == "785154be8e2ae1c36708bd7cd999eedfca46d3c04896843b4612b1817db292d1"


class TestGddSearch:
    def test_exact_cover_4x4(self):
        out = gdd_search(4, 4, SearchConfig(120.0, 10**9, EXACT_COVER, 0))
        assert out.best_size == 72 and out.proven_optimal
        assert isinstance(out.best, GddBaseBlocks)

    def test_hill_climb_4x8(self):
        out = gdd_search(4, 8, SearchConfig(240.0, 10**9, HILL_CLIMB, 0))
        assert out.best_size == 144
        assert not out.proven_optimal  # witness only, by definition

    def test_nonexistent_type_skips_search(self):
        # three groups over even m need even group multiplier
        out = gdd_search(3, 2)
        assert out.best is None and out.nodes == 0

    def test_block_count_formula(self):
        out = gdd_search(5, 4, SearchConfig(120.0, 10**9, EXACT_COVER, 0))
        n = 15
        assert out.best_size == 4 * n * (n - 3) // 6

    def test_restarts_obey_the_node_budget(self):
        assert gdd_search(4, 8, SearchConfig(node_budget=100)).nodes <= 100
        out = gdd_search(5, 7, SearchConfig(node_budget=1000, seed=1))
        assert out.nodes <= 1000 and not out.proven_optimal

    def test_exhausted_tree_is_a_proof_of_non_existence(self):
        # no cyclic (3*2)^3 design exists; with the admissibility test out of
        # the way the exact cover has to prove it by searching the whole tree
        with mock.patch.object(search, "gdd_exists", return_value=True):
            out = gdd_search(3, 2)
        assert (out.best, out.best_size, out.proven_optimal, out.nodes) == (None, 0, True, 351384)

    def test_an_odd_row_pair_count_is_a_proof_of_non_existence(self):
        # (3*1)^4 has an odd (u - 1) v m, so gdd_exists rules it out; with the
        # test out of the way the exact cover searches its whole tree for nothing
        assert not search.gdd_exists(3, 4, 1)
        with mock.patch.object(search, "gdd_exists", return_value=True):
            out = gdd_search(4, 1)
        assert (out.best, out.best_size, out.proven_optimal, out.nodes) == (None, 0, True, 600)

    def test_budget_covers_setup(self):
        # block enumeration and the class tuples of (3*40)^6 take seconds
        start = time.monotonic()
        out = gdd_search(6, 40, SearchConfig(time_budget=0.2))
        assert time.monotonic() - start < 1.5
        assert (out.best, out.nodes, out.proven_optimal) == (None, 0, False)

    def test_budget_covers_the_build_and_every_restart(self):
        # (3*40)^6 has 864 000 candidates: building its cover matrix, and
        # shuffling and ranking them for each restart, take up to a second
        # each, and a budget may end during any of them
        start = time.monotonic()
        out = gdd_search(6, 40, SearchConfig(time_budget=2.5))
        assert time.monotonic() - start < 3.0
        assert (out.best, out.proven_optimal) == (None, False)

    def test_hill_climb_budget_covers_its_matrix_build(self):
        # the hill climb moves on the order-1 exact cover matrix, whose
        # 864 000 rows at (3*40)^6 take longer to build than the budget
        start = time.monotonic()
        out = gdd_search(6, 40, SearchConfig(time_budget=0.2, strategy=HILL_CLIMB))
        assert time.monotonic() - start < 1.0
        assert (out.best, out.proven_optimal) == (None, False)
        assert out.nodes == 0

    def test_hill_climb_budget_covers_the_greedy_start(self, monkeypatch):
        # the greedy start reads the clock before each row it places
        cover, _ = search._gdd_matrix(4, 8, 1, _Budget(SearchConfig()))
        _past_the_deadline(monkeypatch)
        budget = _Budget(SearchConfig())
        with pytest.raises(search._Spent):
            search._gdd_hill_climb(cover, budget, random.Random(0))
        assert budget.nodes == 0

    @pytest.mark.parametrize("strategy", [EXACT_COVER, HILL_CLIMB])
    def test_budget_covers_candidate_numbering(self, strategy):
        # (3*8)^40 numbers 266 760 row triples and has 17 M candidates: its
        # row order alone outlasts the budget
        start = time.monotonic()
        out = gdd_search(40, 8, SearchConfig(0.5, strategy=strategy))
        assert time.monotonic() - start < 1.0
        assert (out.best, out.proven_optimal) == (None, False)

    def test_hill_climb_node_budget_ends_during_its_moves(self):
        out = gdd_search(4, 8, SearchConfig(node_budget=50, strategy=HILL_CLIMB))
        assert (out.best, out.proven_optimal, out.nodes) == (None, False, 50)

    @pytest.mark.parametrize("u, m", [(3, 3), (3, 5), (4, 8), (5, 4)])
    def test_the_order_one_matrix_is_the_hill_climbs_own_encoding(self, u, m):
        # the hill climb once numbered each block's classes and each class's
        # blocks itself; the matrix holds the same, a column in another order
        classes, covering = _hill_climb_encoding(u, m)
        cover, _ = search._gdd_matrix(u, m, 1, _Budget(SearchConfig()))
        assert cover.rows == classes
        assert [sorted(col) for col in cover.cols] == [sorted(col) for col in covering]

    def test_too_few_groups(self):
        with pytest.raises(ValueError):
            gdd_search(2, 4)

    def test_determinism_with_seed(self):
        a = gdd_search(4, 4, SearchConfig(60.0, 10**9, EXACT_COVER, 7))
        b = gdd_search(4, 4, SearchConfig(60.0, 10**9, EXACT_COVER, 7))
        assert a.best.base_blocks == b.best.base_blocks
        assert a.nodes == b.nodes

    def test_validation_rejects_bad_blocks(self):
        design = gdd_search(3, 3).best
        m, groups, blocks = design.m, design.groups, design.base_blocks
        three = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        for gdd, message in [
            # two rows of one group; a row outside the groups
            (GddBaseBlocks(2, three, [make_codeword(((0, 0), (1, 0), (3, 1)))]), "three distinct"),
            (GddBaseBlocks(2, three[:2], [make_codeword(((0, 0), (3, 0), (6, 1)))]), "three distinct"),
            (GddBaseBlocks(2, [[0, 1, 2], [2, 3, 4], [5, 6, 7]]), "must partition the row set"),
            (GddBaseBlocks(m, groups, blocks + blocks[:1]), "covered twice"),
            (GddBaseBlocks(m, groups, blocks[1:]), "leave cross-group classes uncovered"),
        ]:
            with pytest.raises(ValueError, match=message):
                gdd.validate()

    def test_validation_rejects_a_slot_that_is_not_an_int(self):
        # make_codeword would once truncate 0.5 to 0 and pass the design
        design = gdd_search(3, 5, SearchConfig(seed=3)).best
        (a, _), b, c = design.base_blocks[0]
        blocks = [((a, 0.5), b, c), *design.base_blocks[1:]]
        with pytest.raises(ValueError, match=re.escape(f"cell ({a},0.5)")):
            GddBaseBlocks(design.m, design.groups, blocks).validate()


@functools.lru_cache(maxsize=None)
def _base(u, m0):
    return gdd_search(u, m0, SearchConfig()).best


class TestLiftGdd:
    @pytest.mark.parametrize(
        "u,m0,k",
        [(u, m0, k) for u in (4, 5, 6) for m0 in (4, 8) for k in (1, 3, 5, 7)] + [(4, 32, 3)],
    )
    def test_lift_is_a_design(self, u, m0, k):
        lifted = _base(u, m0).lift(k)
        assert lifted.m == m0 * k and lifted.groups == _base(u, m0).groups
        assert len(lifted.base_blocks) == k * len(_base(u, m0).base_blocks)
        lifted.validate()

    def test_factor_one_returns_the_base(self):
        base = _base(4, 8)
        lifted = base.lift(1)
        assert (lifted.m, lifted.base_blocks) == (base.m, base.base_blocks)

    @pytest.mark.parametrize("k", [0, 2, 4, -3])
    def test_even_or_nonpositive_factor_rejected(self, k):
        with pytest.raises(ValueError):
            _base(4, 4).lift(k)


class TestRestartSlices:
    def test_first_slice_is_the_column_count(self):
        # seed 0 fails its first slice of 432 nodes and then finishes within
        # the doubled one; a first slice of a node per row, 6 912, took 7 057
        first = gdd_search(4, 8, SearchConfig())
        again = gdd_search(4, 8, SearchConfig())
        columns = (comb(12, 2) - 4 * 3) * 8  # cross-group row pairs x Z_8
        assert first.best_size == 144 and first.proven_optimal
        assert columns < first.nodes <= 3 * columns
        assert again.nodes == first.nodes
        assert again.best.base_blocks == first.best.base_blocks

    def test_a_search_that_fits_its_first_slice_never_restarts(self):
        out = gdd_search(3, 5, SearchConfig(seed=3))
        assert out.proven_optimal and out.nodes <= 27 * 5  # 27 cross-group row pairs x Z_5


def _hill_climb_encoding(u: int, m: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The classes of every block and the blocks on every class, as the hill
    climb numbered them before it read the order-1 matrix: the reference."""
    triples, pair_orbit, _ = search._gdd_candidates(u, m, 1, _Budget(SearchConfig()))
    pairs = list(pair_orbit)  # pair p holds columns p*m to p*m + m - 1
    col = {pair: first for pair, (first, _) in pair_orbit.items()}
    offsets = [(col[a, b], col[a, c], col[b, c]) for a, b, c in triples]
    n, mm = 3 * u, m * m
    triple_id = {triple: t for t, triple in enumerate(triples)}

    def classes(b: int) -> tuple[int, int, int]:
        c12, c13, c23 = offsets[b // mm]
        x2, x3 = b // m % m, b % m
        return c12 + x2, c13 + x3, c23 + (x3 - x2) % m

    def covering(cid: int) -> list[int]:
        (i, j), d = pairs[cid // m], cid % m
        out: list[int] = []
        for t in range(n):
            if t // 3 == i // 3 or t // 3 == j // 3:
                continue
            if t < i:  # {(t, z), (i, 0), (j, d)} shifted by -z
                first = triple_id[t, i, j] * mm
                out += [first + (-z % m) * m + (d - z) % m for z in range(m)]
            elif t < j:
                first = triple_id[i, t, j] * mm + d
                out += range(first, first + mm, m)
            else:
                first = (triple_id[i, j, t] * m + d) * m
                out += range(first, first + m)
        return out

    block_ids, class_ids = range(len(triples) * mm), range(len(pairs) * m)
    return list(map(classes, block_ids)), list(map(covering, class_ids))


def _blocks_digest(out) -> str:
    return hashlib.sha256(repr(sorted(out.best.base_blocks)).encode()).hexdigest()


def _paced_shuffle(order, rng, budget):
    """`rng.shuffle(order)` with its draws under `budget.paced`: the reference
    for the draws and clock reads of `search._shuffle`."""
    for i in budget.paced(reversed(range(1, len(order)))):
        j = rng._randbelow(i + 1)
        order[i], order[j] = order[j], order[i]


def _clock_reads(shuffle, n: int, spent_at: int):
    """The generator state at each clock read of `shuffle` over n rows, and
    the order and state it leaves once read `spent_at` raises `_Spent`."""
    order, rng, budget = list(range(n)), random.Random(5), _Budget(SearchConfig())
    states = []

    def check():
        states.append(rng.getstate())
        if len(states) == spent_at:
            raise search._Spent

    budget.check = check
    try:
        shuffle(order, rng, budget)
    except search._Spent:
        pass
    return states, order, rng.getstate()


class TestShuffle:
    """`search._shuffle` makes the draws of `random.shuffle` and returns the
    rank table `_ExactCover.solve` takes."""

    @pytest.mark.parametrize("n", [*range(10), 1023, 1024, 1025, 1026, 2047, 2048, 2049, 41067])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_the_draws_of_random_shuffle(self, n, seed):
        start = random.Random(-seed).sample(range(n), n)  # a restart shuffles the last order
        expected, reference = start[:], random.Random(seed)
        reference.shuffle(expected)
        order, rng = start[:], random.Random(seed)
        rank = search._shuffle(order, rng, _Budget(SearchConfig()))
        assert order == expected
        assert rng.getstate() == reference.getstate()
        assert rank.typecode == "l" and len(rank) == n
        assert all(rank[rid] == i for i, rid in enumerate(order))  # the inverse permutation

    @pytest.mark.parametrize("n, reads", [(1024, 0), (1025, 1), (2048, 1), (2049, 2), (41067, 40)])
    @pytest.mark.parametrize("spent_at", [0, 1, 2, 40])
    def test_the_clock_is_read_where_paced_reads_it(self, n, reads, spent_at):
        # before draw 1024, 2048, ...; a read that raises stops at that draw
        states, order, state = _clock_reads(search._shuffle, n, spent_at)
        assert len(states) == (reads if spent_at == 0 else min(reads, spent_at))
        assert (states, order, state) == _clock_reads(_paced_shuffle, n, spent_at)

    @pytest.mark.parametrize("n", [1024, 1025, 41067])
    def test_a_clock_past_the_deadline_stops_it_at_the_first_read(self, n):
        runs = []
        for shuffle in (search._shuffle, _paced_shuffle):
            order, rng, budget = list(range(n)), random.Random(3), _Budget(SearchConfig())
            budget.deadline = time.monotonic() - 1.0
            try:
                shuffle(order, rng, budget)
                spent = False
            except search._Spent:
                spent = True
            runs.append((spent, order, rng.getstate()))
        assert runs[0] == runs[1]
        assert runs[0][0] == (n > 1024)  # 1 024 rows take 1 023 draws, no read


def test_a_restart_past_the_deadline_gets_an_empty_slice(monkeypatch):
    # the clock can pass the deadline between the last check of `_shuffle`
    # and the slice's own read of it; the slice then gets no time, not a
    # negative budget, which SearchConfig rejects
    shuffle = search._shuffle

    def late(order, rng, budget):
        rank = shuffle(order, rng, budget)
        budget.deadline = time.monotonic() - 1.0
        return rank

    monkeypatch.setattr(search, "_shuffle", late)
    out = gdd_search(3, 5, SearchConfig(seed=3))
    assert (out.best, out.proven_optimal) == (None, False)


def _rotated(block, u: int, k: int):
    """The block after k rotations of the orbit cover: groups below the
    rotation's odd order N move by k mod N, the last group of an even u stays."""
    order = u - 1 + u % 2
    return [(r if r // 3 == order else 3 * ((r // 3 + k) % order) + r % 3, x) for r, x in block]


class TestOrbitCover:
    """`search._gdd_search` above order 1, the first search of
    `compose_0mod3` from six groups on, and its numbering at order 1."""

    @pytest.mark.parametrize("u", range(6, 14))
    @pytest.mark.parametrize("m, seed", [(4, 0), (8, 1), (8, 2)])
    def test_a_design_fixed_by_the_rotation(self, u, m, seed):
        out = search._gdd_search(u, m, SearchConfig(seed=seed), u - 1 + u % 2)
        out.best.validate()  # every cross-group class covered exactly once
        blocks = {normalize(b, m) for b in out.best.base_blocks}
        assert len(blocks) == len(out.best.base_blocks) == 3 * comb(u, 2) * m
        assert all(normalize(_rotated(b, u, 1), m) in blocks for b in blocks)
        assert out.proven_optimal

    @pytest.mark.parametrize(
        "u, m, rows, left_out, columns",
        [
            # below six groups the identity: the direct cover, every group
            # triple and each of the 54 cross-group row pairs on its own
            (4, 8, 4 * 27 * 64, 0, 54 * 8),
            # Z_5 and a fixed group: 4 triple orbits; each has a group pair
            # orbit twice, so some blocks meet only two class orbits
            (6, 8, 4 * 27 * 64, 192, 216),
            (7, 4, 5 * 27 * 16, None, 27 * 4),
            # Z_9: 84 triples, {0, 3, 6} and its images form the one short orbit
            (9, 4, 9 * 27 * 16, None, 36 * 4),
            # Z_9 and a fixed group: 4 orbits meet the fixed group, 9 do not
            (10, 4, 13 * 27 * 16, None, 45 * 4),
        ],
    )
    def test_rows_and_columns(self, monkeypatch, u, m, rows, left_out, columns):
        covers = []
        monkeypatch.setattr(search, "_first_cover", lambda cover, *rest: covers.append(cover))
        order = u - 1 + u % 2 if u >= 6 else 1
        assert search._gdd_search(u, m, SearchConfig(), order).best is None
        [cover] = covers
        assert (len(cover.rows), len(cover.cols)) == (rows, columns)
        assert all(len(set(row)) == len(row) for row in cover.rows)
        if left_out is not None:
            assert cover.rows.count(()) == left_out

    @pytest.mark.parametrize("config", [SearchConfig(node_budget=0), SearchConfig(time_budget=0)])
    def test_a_spent_budget_is_no_proof(self, config):
        out = search._gdd_search(6, 8, config, 5)
        assert (out.best, out.proven_optimal) == (None, False)


class TestPinnedGddOutcomes:
    """Node counts and witnesses of the GDD searches, which a rewrite of
    their kernels or of the exact cover's restart schedule must keep.  The
    last five exact covers backtrack little: they pin the trees of searches
    whose cost is mostly setup."""

    @pytest.mark.parametrize(
        "u, m, seed, nodes, digest",
        [
            (4, 8, 0, 577, "0b95de13c7eb3e8e24554423cde2154e4ec16e7142092cc2b874ff25ee4c6c0d"),
            (5, 7, 1, 2116, "f1d10a34b3ff57663008b832aae392655b20594bfcc3e9f55519cc1d180a4fd0"),
            (3, 9, 5, 81, "1b42cbe645e76ce0abbc09fb569130606aa4e8f4e02d56d8e2b6117667c6e759"),
            (3, 31, 324, 305, "4c38aac3168e9474ada6b01124ad829b2302821ef987de925c40c12d3cdf9607"),
            (3, 39, 924, 351, "7c946733a9b9cde119f972d0190fa20ded5a8d9ecbea1acd2c3dc3429d14679d"),
            (5, 8, 0, 245, "bcc1006bb1f459d97616671810fdd3053ff5a3fb3d24e329f69d45c899ea7bbf"),
            (6, 8, 0, 380, "23cf22d0fc28fb77cba5530c98b241031afb1044920eb430c0371aabb36e7cbe"),
            (4, 6, 127, 220, "29945825629c38fef7f0be5c1dba2a68aab8a74fad8e24fd1f46d00fa0fb1228"),
        ],
    )
    def test_exact_cover(self, u, m, seed, nodes, digest):
        out = gdd_search(u, m, SearchConfig(seed=seed))
        assert (out.nodes, out.proven_optimal, _blocks_digest(out)) == (nodes, True, digest)

    def test_a_deep_tree_is_cut_after_a_node_per_column(self):
        # (3*32)^6 at seed 0: a first slice of a node per row spent 552 960
        # of its 556 106 nodes on a failed restart before this witness
        out = gdd_search(6, 32, SearchConfig(seed=0))
        digest = "8c1902ba44d50f189935c2bb8f7d5a77533302a993d88523f9231c232d6540fb"
        assert (out.nodes, out.proven_optimal, _blocks_digest(out)) == (7466, True, digest)

    @pytest.mark.parametrize(
        "u, m, seed, nodes, digest",
        [
            (3, 3, 1, 1640, "58d0c00125785800d5bf49595f2a980a49e5fb3c3b36d2805fc1c6d0e04c33ef"),
            (4, 8, 0, 75805, "8c71b28410e5ab4c99c8a5f9b6fbbe706c1001816dfda6586602a50305eacfe3"),
            (3, 5, 7, 2158, "4c254643c1e810e22137ced53be25c92e7aab27386da50bebede7c59f01fe248"),
            (5, 4, 0, 65190, "1ed749e40d134be4649881cf77debe24bfb2254b66974833cdaec9aff203be66"),
        ],
    )
    def test_hill_climb(self, u, m, seed, nodes, digest):
        """The hill climb draws its candidates from the columns of the
        order-1 exact cover matrix, where they stand in row-id order, not in
        the order it once listed them in: the same sets, other draws, so
        these moved from 1 667, 465, 5 367 and 1 849 nodes."""
        out = gdd_search(u, m, SearchConfig(strategy=HILL_CLIMB, seed=seed))
        assert (out.nodes, _blocks_digest(out)) == (nodes, digest)


class TestDepthBeyondTheRecursionLimit:
    """Searches deeper than the default recursion limit of 1 000 frames."""

    def test_exact_cover(self):
        out = tight_search(8005)
        assert out.best_size == 2001 > sys.getrecursionlimit()
        assert out.proven_optimal and out.nodes == 2001

    def test_packing(self):
        masks = [1 << i for i in range(2500)]
        chosen, complete = _max_packing(masks, 0, _Budget(SearchConfig()))
        assert (sorted(chosen), complete) == (list(range(2500)), True)

    def test_three_row_construction_through_the_tight_search(self):
        result = ooc_3xm(15892)
        assert len(result.code.codewords) == phi_exact(3, 15892).value


_EVERY_SEARCH = {
    "optimal 2x10": lambda c: optimal_search(2, 10, 2, c),
    "equi 103": lambda c: equi_search(103, 2, c),
    "equi 61 relaxed": lambda c: equi_search(61, 3, c),
    "tight 8005": lambda c: tight_search(8005, c),
    "gdd 4x8 exact cover": lambda c: gdd_search(4, 8, c),
    "gdd 4x8 hill climb": lambda c: gdd_search(4, 8, replace(c, strategy=HILL_CLIMB)),
}

_UNPROVEN = [(1, False, 0), (1, False, 0), (17, False, 0), (400, False, 0)]


@pytest.mark.parametrize(
    "name, outcomes",
    [
        ("optimal 2x10", [(1, False, 0), (1, False, 0), (17, False, 7), (400, False, 7)]),
        ("equi 103", [(1, False, 0), (1, False, 0), (17, False, 16), (400, False, 24)]),
        ("equi 61 relaxed", [(1, False, 0), (1, False, 0), (17, False, 14), (27, True, 15)]),
        ("tight 8005", _UNPROVEN),
        ("gdd 4x8 exact cover", _UNPROVEN),
        ("gdd 4x8 hill climb", _UNPROVEN),
    ],
)
def test_node_budget_outcomes_of_every_search(name, outcomes):
    # (nodes, proven_optimal, best_size) at node budgets 0, 1, 17 and 400: a
    # budget N stops a search at its max(N, 1)-th node, so a zero budget
    # counts the node it stops at
    runs = [_EVERY_SEARCH[name](SearchConfig(node_budget=n, seed=0)) for n in (0, 1, 17, 400)]
    assert [(out.nodes, out.proven_optimal, out.best_size) for out in runs] == outcomes


_SETUPS = {
    "optimal 6x60": lambda: optimal_search(6, 60),
    "equi 400001": lambda: equi_search(400_001),
    "tight 400001": lambda: tight_search(400_001),
    **{
        f"gdd {u}x{m} {s}": functools.partial(gdd_search, u, m, SearchConfig(strategy=s))
        for u, m in ((40, 8), (6, 40))
        for s in (EXACT_COVER, HILL_CLIMB)
    },
    "gdd orbit 13x32": functools.partial(search._gdd_search, 13, 32, SearchConfig(), 13),
}


def _past_the_deadline(monkeypatch):
    """A `time` stand-in on `oockit.search`: the clock reads 0 when the
    budget starts and is past its deadline at every later read."""
    reads = itertools.chain([0.0], itertools.repeat(float("inf")))
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=functools.partial(next, reads)))


@pytest.mark.parametrize("name", list(_SETUPS))
def test_a_clock_past_the_deadline_stops_every_setup(name, monkeypatch):
    # the deterministic form of the wall-clock setup tests
    _past_the_deadline(monkeypatch)
    start = time.monotonic()
    out = _SETUPS[name]()
    assert time.monotonic() - start < 0.5
    assert (out.best_size, out.proven_optimal, out.nodes) == (0, False, 0)


def test_a_clock_past_the_deadline_stops_the_orbit_setup_of_compose(monkeypatch, gdd_matrices):
    # 13 groups: 608 256 rows to build; no fallback after a spent budget
    _past_the_deadline(monkeypatch)
    start = time.monotonic()
    with pytest.raises(SearchExhausted):
        compose_0mod3(39, 32)
    assert time.monotonic() - start < 0.5
    assert [b.order for b in gdd_matrices] == [13]


def test_a_spent_budget_stops_the_orbit_setup_before_its_matrix(monkeypatch):
    # 16 groups: the pair orbits are set up over 1 128 row pairs under the
    # clock, so a zero budget never reaches the matrix build
    def unreached(*args):
        raise AssertionError("the matrix build ran on a spent budget")

    monkeypatch.setattr(search._ExactCover, "__init__", unreached)
    with pytest.raises(SearchExhausted):
        compose_0mod3(48, 8, SearchConfig(time_budget=0))


def test_a_clock_past_the_deadline_stops_the_pair_orbits_within_an_orbit(monkeypatch):
    # 200 groups under Z_199: each new orbit inserts 199 pair images, so a
    # clock read per 1 024 row pairs visited let up to 1 023 orbits run first
    _past_the_deadline(monkeypatch)
    visited = []

    def combinations(*args):
        for pair in itertools.combinations(*args):
            visited.append(pair)
            yield pair

    counting = SimpleNamespace(**{**vars(itertools), "combinations": combinations})
    monkeypatch.setattr(search, "itertools", counting)
    with pytest.raises(search._Spent):
        search._gdd_candidates(200, 8, 199, _Budget(SearchConfig()))
    assert len(visited) < 100


def test_public_functions_are_the_four_searches():
    # the per-layer trace reads `proven_optimal` off every public function here
    public = {
        name
        for name, fn in vars(search).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == search.__name__
    }
    assert public == {"optimal_search", "equi_search", "tight_search", "gdd_search"}
