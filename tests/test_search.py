import functools
import hashlib
import inspect
import itertools
import sys
import time
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from oockit import search
from oockit.bounds import cac_optimal_size, me_prime, phi_exact, psi_e_exact
from oockit.construct import ooc_3xm
from oockit.core import Code, CodeParams, make_codeword, normalize
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
from oockit.verify import verify_code


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

    @pytest.mark.parametrize("field", ["time_budget", "node_budget"])
    def test_nan_budget_rejected(self, field):
        # a NaN deadline or node cap would never stop a search
        with pytest.raises(ValueError, match="NaN"):
            SearchConfig(**{field: float("nan")})
        SearchConfig(**{field: float("inf")})
        SearchConfig(**{field: 0})

    def test_budget_exhaustion_reports_partial(self):
        out = optimal_search(3, 8, 2, SearchConfig(node_budget=50))
        assert not out.proven_optimal
        assert out.nodes <= 51

    def test_determinism(self):
        a = optimal_search(2, 6, 2)
        b = optimal_search(2, 6, 2)
        assert a.best.codewords == b.best.codewords and a.nodes == b.nodes

    @pytest.mark.parametrize("n, m, size, nodes", [(2, 10, 7, 65739), (3, 5, 8, 220)])
    def test_node_counts_unchanged(self, n, m, size, nodes):
        # figures of the search that normalized every k-subset of cells
        out = optimal_search(n, m)
        assert (out.best_size, out.nodes, out.proven_optimal) == (size, nodes, True)

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
    for m in range(1, 400):
        assert search._equi_vertices(m, lambda_a) == _equi_vertices_by_hand(m, lambda_a)


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
        assert _codeword_mask(cw, n, m)[3] == _verified(n, m, [cw]).max_auto_multiplicity

    @given(_shape_and_codewords(2))
    @example((2, 6, [HALF, make_codeword([(0, 1), (1, 1), (1, 2)])]))
    @example((2, 8, [make_codeword([(0, 0), (1, 3)]), make_codeword([(0, 5), (1, 0)])]))
    def test_disjoint_masks_are_cross_clean(self, case):
        n, m, (a, b) = case
        assume(_verified(n, m, [a]).passed and _verified(n, m, [b]).passed)
        disjoint = _codeword_mask(a, n, m)[0] & _codeword_mask(b, n, m)[0] == 0
        assert disjoint == _verified(n, m, [a, b]).cross_ok


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
        assert (out.best, out.best_size, out.proven_optimal, out.nodes) == (None, 0, True, 351330)

    def test_budget_covers_setup(self):
        # block enumeration and the class tuples of (3*40)^6 take seconds
        start = time.monotonic()
        out = gdd_search(6, 40, SearchConfig(time_budget=0.2))
        assert time.monotonic() - start < 1.5
        assert (out.best, out.nodes, out.proven_optimal) == (None, 0, False)

    def test_budget_covers_the_build_and_every_restart(self):
        # (3*40)^6 has 864 000 candidates: building and threading its cover
        # matrix take seconds each, and a budget may end during either
        start = time.monotonic()
        out = gdd_search(6, 40, SearchConfig(time_budget=2.5))
        assert time.monotonic() - start < 3.0
        assert (out.best, out.proven_optimal) == (None, False)

    def test_hill_climb_budget_covers_the_greedy_start(self):
        start = time.monotonic()
        out = gdd_search(6, 40, SearchConfig(time_budget=0.2, strategy=HILL_CLIMB))
        assert time.monotonic() - start < 1.0
        assert (out.best, out.proven_optimal) == (None, False)
        assert out.nodes == 0

    def test_hill_climb_node_budget_ends_during_its_moves(self):
        out = gdd_search(4, 8, SearchConfig(node_budget=50, strategy=HILL_CLIMB))
        assert (out.best, out.proven_optimal, out.nodes) == (None, False, 50)

    def test_too_few_groups(self):
        with pytest.raises(ValueError):
            gdd_search(2, 4)

    def test_determinism_with_seed(self):
        a = gdd_search(4, 4, SearchConfig(60.0, 10**9, EXACT_COVER, 7))
        b = gdd_search(4, 4, SearchConfig(60.0, 10**9, EXACT_COVER, 7))
        assert a.best.base_blocks == b.best.base_blocks
        assert a.nodes == b.nodes

    def test_validation_rejects_bad_blocks(self):
        # two rows of one group; a row outside the groups
        for groups, block in [
            ([[0, 1, 2], [3, 4, 5], [6, 7, 8]], ((0, 0), (1, 0), (3, 1))),
            ([[0, 1, 2], [3, 4, 5]], ((0, 0), (3, 0), (6, 1))),
        ]:
            gdd = GddBaseBlocks(m=2, groups=groups, base_blocks=[make_codeword(block)])
            with pytest.raises(ValueError):
                gdd.validate()


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
    def test_first_slice_is_the_candidate_count(self):
        # seed 0 fails its first slice of 6 912 nodes and then finishes within
        # the doubled one; a fixed 200 000-node first slice took 200 145
        first = gdd_search(4, 8, SearchConfig())
        again = gdd_search(4, 8, SearchConfig())
        candidates = comb(4, 3) * 27 * 8 * 8
        assert first.best_size == 144 and first.proven_optimal
        assert candidates < first.nodes <= candidates + 1000
        assert again.nodes == first.nodes
        assert again.best.base_blocks == first.best.base_blocks

    def test_a_search_that_fits_its_first_slice_never_restarts(self):
        out = gdd_search(3, 5, SearchConfig(seed=3))
        assert out.proven_optimal and out.nodes <= comb(3, 3) * 27 * 5 * 5


def _blocks_digest(out) -> str:
    return hashlib.sha256(repr(sorted(out.best.base_blocks)).encode()).hexdigest()


class TestPinnedGddOutcomes:
    """Node counts and witnesses of the search that enumerated every
    candidate block and rebuilt the cover matrix on each restart."""

    @pytest.mark.parametrize(
        "u, m, seed, nodes, digest",
        [
            (4, 8, 0, 7057, "0b95de13c7eb3e8e24554423cde2154e4ec16e7142092cc2b874ff25ee4c6c0d"),
            (5, 7, 1, 4128, "1212c8251136010f797a40b0c91fd7e0f58f7ebdb86dfc19416e323928ef7393"),
            (3, 9, 5, 81, "1b42cbe645e76ce0abbc09fb569130606aa4e8f4e02d56d8e2b6117667c6e759"),
        ],
    )
    def test_exact_cover(self, u, m, seed, nodes, digest):
        out = gdd_search(u, m, SearchConfig(seed=seed))
        assert (out.nodes, out.proven_optimal, _blocks_digest(out)) == (nodes, True, digest)

    @pytest.mark.parametrize(
        "u, m, seed, nodes, digest",
        [
            (3, 3, 1, 1667, "975ea818ce956f45f78fd2ffe337658ece4f0145258e70c66fef4f9b558868ec"),
            (4, 8, 0, 465, "b7d326b409f578440887667343f91fcfd599c902d8ce7afed8aed58364f237be"),
            (3, 5, 7, 5367, "421cd17836a6c94d2667717d2319743fb41ce6a21049438795933797a5314ae8"),
            (5, 4, 0, 1849, "93e6bf126cdc85d17289c57b87524e6d2896ab606fef1893b33f01769c2dfce9"),
        ],
    )
    def test_hill_climb(self, u, m, seed, nodes, digest):
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
        chosen, complete = _max_packing(masks, [(1, 0)] * 2500, 2500, 0, _Budget(SearchConfig()))
        assert (sorted(chosen), complete) == (list(range(2500)), True)

    def test_three_row_construction_through_the_tight_search(self):
        result = ooc_3xm(15892)
        assert len(result.code.codewords) == phi_exact(3, 15892).value


def test_public_functions_are_the_four_searches():
    # the per-layer trace reads `proven_optimal` off every public function here
    public = {
        name
        for name, fn in vars(search).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == search.__name__
    }
    assert public == {"optimal_search", "equi_search", "tight_search", "gdd_search"}
