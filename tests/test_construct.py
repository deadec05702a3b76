import dataclasses
import inspect
import random
import typing

import pytest

from oockit import construct, search
from oockit.bounds import is_prime, phi_exact, psi_e_exact, tight_admissible
from oockit.cli import main
from oockit.construct import (
    EXPLICIT_IDS,
    compose_0mod3,
    equi_2mod4,
    equi_power4,
    expand_gdd,
    explicit_code,
    fill_regular,
    g_regular_4g,
    ooc_2xm,
    ooc_3xm,
    prime_derived,
    quadruple,
    tight_derived,
)
from oockit.core import (
    Code,
    SearchExhausted,
    UnsupportedParameterError,
    VerificationFailure,
    make_codeword,
    restrict_to_row,
)
from oockit.construct import _equi_generators
from oockit.search import (
    EXACT_COVER,
    HILL_CLIMB,
    GddBaseBlocks,
    SearchConfig,
    equi_search,
    gdd_search,
    tight_search,
)
from oockit.verify import structural_facts, verify_code


def cw(*cells):
    return make_codeword(cells)


class TestEqui2mod4:
    def test_smallest(self):
        res = equi_2mod4(6)
        assert res.code.codewords == [cw((0, 0), (0, 1), (0, 2))]
        assert res.claimed_leave == {3}

    def test_ten(self):
        res = equi_2mod4(10)
        assert res.code.codewords == [
            cw((0, 0), (0, 1), (0, 2)),
            cw((0, 0), (0, 3), (0, 6)),
        ]
        assert res.claimed_leave == {5}

    def test_degenerate(self):
        res = equi_2mod4(2)
        assert res.code.size() == 0 and res.claimed_leave == {1}

    def test_wrong_residue(self):
        with pytest.raises(UnsupportedParameterError):
            equi_2mod4(8)


class TestGRegular4g:
    def test_even_branch(self):
        res = g_regular_4g(2)
        assert res.code.codewords == [cw((0, 0), (0, 3), (0, 6))]
        assert res.claimed_leave == {1, 4, 7}

    def test_odd_branch_generators(self):
        gens = [w[1][1] for w in g_regular_4g(5).code.codewords]
        assert gens == [5, 7, 9]

    def test_smallest(self):
        res = g_regular_4g(1)
        assert res.code.codewords == [cw((0, 0), (0, 1), (0, 2))]
        assert res.claimed_leave == frozenset()

    def test_regularity(self):
        for g in (2, 5, 8, 13):
            facts = structural_facts(g_regular_4g(g).code)
            assert g in facts.regular_subgroups


class TestFillRegular:
    def test_empty_fill(self):
        res = fill_regular(g_regular_4g(2), equi_2mod4(2))
        assert res.code.size() == 1 and res.claimed_leave == {1, 4, 7}

    def test_fill_with_2mod4(self):
        res = fill_regular(g_regular_4g(6), equi_2mod4(6))
        assert res.code.size() == 4
        assert res.claimed_leave == {1, 3, 5, 12, 19, 21, 23}

    def test_fill_reaches_exact_size(self):
        res = fill_regular(g_regular_4g(5), tight_derived(5, 0))
        assert res.code.size() == 4 == psi_e_exact(20).value

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            fill_regular(g_regular_4g(2), equi_2mod4(6))

    def test_rejects_non_regular_outer(self):
        outer = equi_2mod4(10)  # 2-regular only
        with pytest.raises(ValueError):
            fill_regular(outer, tight_derived(5, 0))

    def test_rejects_unverified_input(self):
        outer = dataclasses.replace(g_regular_4g(6), verified=False)
        with pytest.raises(ValueError, match="filling requires verified inputs"):
            fill_regular(outer, equi_2mod4(6))


class TestQuadruple:
    def test_from_trivial(self):
        res = quadruple(equi_2mod4(2))
        assert res.code.size() == 1 and res.claimed_leave == {1, 4, 7}

    def test_matches_tight_route(self):
        res = quadruple(tight_derived(5, 0))
        assert res.code.size() == 4
        assert res.claimed_leave == {1, 3, 17, 19}

    def test_from_2mod4(self):
        assert quadruple(equi_2mod4(6)).code.size() == 4

    def test_rejects_unverified_input(self):
        with pytest.raises(ValueError):
            quadruple(dataclasses.replace(equi_2mod4(6), verified=False))

    def test_rejects_non_equi_difference_input(self):
        with pytest.raises(ValueError):
            quadruple(explicit_code("1d48"))

    def test_carrier_size_is_claimed_apart_from_the_built_code(self, monkeypatch):
        inner = tight_derived(13, 0)
        tower = construct._tower

        def one_generator_short(*args):
            gens, leave = tower(*args)
            return gens[:-1], leave

        monkeypatch.setattr(construct, "_tower", one_generator_short)
        with pytest.raises(VerificationFailure) as info:
            quadruple(inner)
        assert str(info.value) == "quadruple: built 9 codewords, claimed 10"


@pytest.mark.parametrize(
    "args,message",
    [
        (["tight", "--r", "4"], "family needs odd r >= 1, got 4"),
        (["tight", "--r", "13", "--s", "-1"], "need s >= 0, got -1"),
        (["gregular4g", "--g", "0"], "need g >= 1, got 0"),
    ],
)
def test_construct_rejects_a_parameter_out_of_range(capsys, args, message):
    assert main(["construct", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: equi_power4(1, 6, "x"), UnsupportedParameterError, "unknown variant 'x'"),
        (
            lambda: fill_regular(explicit_code("1d48"), tight_derived(1, 0)),
            ValueError,
            "filling requires equi-difference inputs",
        ),
        (
            lambda: expand_gdd(gdd_search(3, 3).best, []),
            ValueError,
            "no input code with 3 rows for group [0, 1, 2]",
        ),
    ],
    ids=["unknown-variant", "fill-non-equi-difference", "expand-missing-rows"],
)
def test_library_rejects_an_input_it_has_no_code_for(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestEquiPower4:
    def test_standard_base(self):
        res = equi_power4(1, 2, "standard")
        assert res.code.codewords == [cw((0, 0), (0, 3), (0, 6))]
        assert res.claimed_leave == {1, 4, 7}

    def test_half_free_swap(self):
        res = equi_power4(1, 2, "half_free")
        assert res.code.codewords == [cw((0, 0), (0, 2), (0, 4))]
        assert res.claimed_leave == {1, 3, 5, 7}

    def test_two_stages(self):
        res = equi_power4(2, 2, "standard")
        assert res.code.size() == 5
        gens = sorted(w[1][1] for w in res.code.codewords)
        assert gens == [9, 11, 12, 13, 15]

    def test_half_free_two_stages_matches_listed_leave(self):
        res = equi_power4(2, 2, "half_free")
        assert sorted(res.claimed_leave) == [1, 3, 4, 5, 7, 12, 20, 25, 27, 28, 29, 31]

    def test_size_formula(self):
        for s, r in ((0, 6), (1, 6), (2, 10), (3, 2)):
            res = equi_power4(s, r, "standard")
            assert res.code.size() == (2 ** (2 * s + 1) * r + r - 6) // 12

    def test_half_free_needs_a_stage(self):
        with pytest.raises(UnsupportedParameterError):
            equi_power4(0, 6, "half_free")

    def test_wrong_residue(self):
        with pytest.raises(UnsupportedParameterError):
            equi_power4(1, 4, "standard")


class TestTightDerived:
    def test_base_five(self):
        res = tight_derived(5, 0)
        assert res.code.codewords == [cw((0, 0), (0, 1), (0, 2))]
        assert res.claimed_leave == frozenset()

    def test_thirteen_lifted(self):
        res = tight_derived(13, 1)
        assert res.code.size() == 10
        assert sorted(res.claimed_leave) == [1, 3, 5, 7, 9, 11, 41, 43, 45, 47, 49, 51]

    def test_three_base_is_empty(self):
        res = tight_derived(3, 0)
        assert res.code.size() == 0 and res.claimed_leave == {1, 2}

    def test_third_period_lift(self):
        res = tight_derived(15, 1)
        assert res.code.size() == (3 * 15 - 1) // 4
        assert {4 * 5, 8 * 5} <= res.claimed_leave

    def test_unit_tower(self):
        assert tight_derived(1, 1).code.size() == 1
        assert tight_derived(1, 3).code.size() == (2**5 - 2) // 3 + 1

    def test_inadmissible_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            tight_derived(7, 0)
        with pytest.raises(UnsupportedParameterError):
            tight_derived(9, 0)


class TestPrimeDerived:
    def test_base_seven(self):
        assert prime_derived(7, 0).code.size() == 1

    def test_tower_sizes(self):
        assert prime_derived(7, 1).code.size() == 5
        assert prime_derived(5, 1).code.size() == 4
        assert prime_derived(31, 1).code.size() == 22  # (31+1)/2 + 6

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            prime_derived(9, 0)

    def test_negative_s_rejected_before_the_search(self):
        with pytest.raises(ValueError, match=r"^need s >= 0, got -2$"):
            prime_derived(5, -2)

    def test_base_past_the_old_search_budget(self):
        # the base search at p = 127 outlived its 60 s budget
        assert prime_derived(127, 0).code.size() == psi_e_exact(127).value == 27


def _generators(outcome):
    """The generators a of the {0, a, 2a} codewords of a search witness."""
    return [cells[1][1] for cells in outcome.best.codewords]


class TestEquiGenerators:
    """`_equi_generators` against the oracles, which return the
    lexicographically least largest code: the packing search by its
    search order, the exact cover at every length tried here."""

    def test_tight_search_witness(self):
        lengths = [r for r in range(1, 1200, 2) if tight_admissible(r).admissible] + [8005]
        assert len(lengths) == 176
        for r in lengths:
            # the tight partition holds the third-period codeword, the (r,3,2,1) code does not
            expected = [a for a in _generators(tight_search(r)) if 3 * a != r]
            assert _equi_generators(r) == expected, r

    @pytest.mark.parametrize("lengths", [range(5, 62),
                                         pytest.param(range(62, 114), marks=pytest.mark.slow)])
    def test_conflict_avoiding_search_at_primes(self, lengths):
        for p in filter(is_prime, lengths):
            assert _equi_generators(p) == _generators(equi_search(p, 3)), p

    @pytest.mark.parametrize("lengths", [range(1, 89, 2),
                                         pytest.param(range(89, 98, 2), marks=pytest.mark.slow)])
    def test_packing_search_at_odd_lengths(self, lengths):
        for m in lengths:
            assert _equi_generators(m) == _generators(equi_search(m, 2)), m

    def test_count_is_psi_e(self):
        for m in range(1, 6002, 2):
            assert len(_equi_generators(m)) == psi_e_exact(m).value, m
        assert len(_equi_generators(255255)) == psi_e_exact(255255).value == 63811


def test_one_dimensional_bases_run_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a construction ran a search")

    monkeypatch.setattr(search, "equi_search", refuse)
    monkeypatch.setattr(search, "tight_search", refuse)
    for build, args in [(tight_derived, (13, 2)), (tight_derived, (15, 1)),
                        (prime_derived, (127, 1)), (ooc_3xm, (68,))]:
        assert build(*args).verified


def test_equi_builds_psi_e_at_every_length():
    # `_equi` is keyed by m alone, so it also reaches the composite class,
    # which no family builds yet; `_finalize` checks the size and the leave
    composite = 0
    for m in range(1, 1201):
        gens, leave = construct._equi(m)
        psi = psi_e_exact(m)
        code = construct._one_row_code(m, gens)
        assert construct._finalize(code, psi.value, leave, f"equi/{m}").verified
        composite += psi.branch == "psi_e/composite"
    assert composite == 390


def test_every_public_function_returns_a_construction_result():
    # the traced benchmark pass (perfbench/spans.py) wraps every public
    # function of the module and reads `res.code.size()` from its result,
    # so a helper that returns anything else must stay private
    public = [fn for name, fn in vars(construct).items()
              if not name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == construct.__name__]
    assert equi_power4 in public and prime_derived in public
    for fn in public:
        assert typing.get_type_hints(fn)["return"] is construct.ConstructionResult, fn.__name__


FAMILY_TOWERS = [
    *[(f"power4-{r}", lambda s, r=r: equi_power4(s, r)) for r in (6, 10, 14)],
    *[(f"tight-{r}", lambda s, r=r: tight_derived(r, s)) for r in (5, 13, 15)],
    *[(f"prime-{p}", lambda s, p=p: prime_derived(p, s)) for p in (7, 11)],
]


@pytest.mark.parametrize(
    "build", [b for _, b in FAMILY_TOWERS], ids=[name for name, _ in FAMILY_TOWERS]
)
def test_family_towers_state_the_law_of_quadruple(build):
    # the families tower generator lists, `quadruple` towers codes: s steps
    # of `quadruple` from the s = 0 result give the same code and leave
    step = build(0)
    for s in range(1, 4):
        step = quadruple(step)
        tower = build(s)
        assert tower.code.codewords == step.code.codewords
        assert tower.claimed_leave == step.claimed_leave


# every 1-D family and each three-row class, with the arguments (built
# before counting) and the codewords a builder makes besides its result's:
# fill_regular keeps the 3 codewords of its outer input
ONE_MAKE_CASES = [
    (equi_2mod4, lambda: (202,), 0),
    (g_regular_4g, lambda: (9,), 0),
    (g_regular_4g, lambda: (10,), 0),
    (fill_regular, lambda: (g_regular_4g(6), equi_2mod4(6)), -3),
    (quadruple, lambda: (tight_derived(13, 1),), 0),
    (equi_power4, lambda: (7, 6), 0),
    (equi_power4, lambda: (3, 10, "half_free"), 0),
    (tight_derived, lambda: (13, 6), 0),
    (tight_derived, lambda: (15, 3), 0),
    (prime_derived, lambda: (61, 0), 0),
    (prime_derived, lambda: (61, 5), 0),
    (explicit_code, lambda: ("1d48",), 0),
    # the explicit lengths, then m = 8 (mod 16), 32 (mod 64), 4 and 20 (mod 48)
    *[(ooc_3xm, lambda m=m: (m,), 0)
      for m in (4, 8, 20, 32, 52, 24, 40, 16216, 96, 160, 68, 100, 116, 148)],
]


@pytest.mark.parametrize(
    "builder,make_args,extra",
    ONE_MAKE_CASES,
    ids=[f"{b.__name__}-{i}" for i, (b, _, _) in enumerate(ONE_MAKE_CASES)],
)
def test_each_codeword_is_made_once(monkeypatch, builder, make_args, extra):
    args = make_args()
    calls, checked_calls = [], []
    make, check = construct._codeword, construct.make_codeword

    def counted(cells):
        calls.append(None)
        return make(cells)

    def counted_check(cells):
        checked_calls.append(None)
        return check(cells)

    # each codeword is made once by the private constructor; its cells are
    # checked by the final check, never by the per-codeword `make_codeword`
    monkeypatch.setattr(construct, "_codeword", counted)
    monkeypatch.setattr(construct, "make_codeword", counted_check)
    leave_calls = []
    measure = construct.difference_leave

    def counted_leave(code):
        leave_calls.append(None)
        return measure(code)

    # a claimed leave is measured once, by the final check, and never read off a stage
    monkeypatch.setattr(construct, "difference_leave", counted_leave)
    res = builder(*args)
    assert len(calls) == res.code.size() + extra
    assert checked_calls == []
    assert len(leave_calls) == (res.claimed_leave is not None)


class TestExplicitCodes:
    @pytest.mark.parametrize(
        "code_id,size",
        [("1d48", 10), ("3x4", 6), ("3x8", 13), ("3x20", 34), ("3x32", 53), ("3x52", 88)],
    )
    def test_sizes_and_verification(self, code_id, size):
        res = explicit_code(code_id)
        assert res.verified and res.code.size() == size

    def test_listed_members_of_1d48(self):
        cws = explicit_code("1d48").code.codewords
        assert cw((0, 0), (0, 1), (0, 17)) in cws
        assert cw((0, 0), (0, 12), (0, 24)) in cws

    def test_all_ids_covered(self):
        assert set(EXPLICIT_IDS) == {"1d48", "3x4", "3x8", "3x20", "3x32", "3x52"}

    def test_unknown_id(self):
        with pytest.raises(UnsupportedParameterError):
            explicit_code("4x4")


class TestTwoRows:
    def test_m4(self):
        res = ooc_2xm(4)
        assert res.code.codewords == [
            cw((0, 0), (0, 1), (0, 2)),
            cw((1, 0), (1, 1), (1, 2)),
        ]

    def test_m8(self):
        assert ooc_2xm(8).code.size() == 6

    def test_m12(self):
        assert ooc_2xm(12).code.size() == 9

    def test_wrong_residue(self):
        with pytest.raises(UnsupportedParameterError):
            ooc_2xm(10)

    def test_builds_exactly_where_phi_is_exact(self):
        for m in range(1, 201):
            phi = phi_exact(2, m)
            if phi.kind == "exact":
                assert ooc_2xm(m).code.size() == phi.value, m
            else:
                with pytest.raises(UnsupportedParameterError, match=f"class {phi.branch},"):
                    ooc_2xm(m)


class TestThreeRows:
    def test_dispatch_to_explicit(self):
        assert ooc_3xm(8).branch == "explicit/3x8"

    @pytest.mark.parametrize("m,formula", [
        (24, lambda m: (27 * m - 8) // 16),
        (40, lambda m: (27 * m - 8) // 16),
        (96, lambda m: (107 * m - 32) // 64),
        (68, lambda m: (27 * m + 4) // 16),
        (116, lambda m: (27 * m + 4) // 16),
    ])
    def test_general_family_sizes(self, m, formula):
        assert ooc_3xm(m).code.size() == formula(m)

    def test_row_subcodes_are_optimal_equi_difference(self):
        for m in (24, 68, 96):
            code = ooc_3xm(m).code
            for row in range(3):
                sub = restrict_to_row(code, row)
                facts = structural_facts(sub)
                assert facts.is_equi_difference
                assert sub.size() == psi_e_exact(m).value

    def test_out_of_scope_m(self):
        for m in (10, 16, 48, 64, 196):  # 196/4 = 49 fails admissibility
            with pytest.raises(UnsupportedParameterError):
                ooc_3xm(m)

    def test_builds_exactly_where_phi_is_exact(self):
        for m in range(1, 601):
            phi = phi_exact(3, m)
            if phi.kind == "exact":
                assert ooc_3xm(m).code.size() == phi.value, m
            else:
                with pytest.raises(UnsupportedParameterError, match=f"class {phi.branch},"):
                    ooc_3xm(m)


class TestExpandGdd:
    def test_degenerate_single_group(self):
        inner = explicit_code("3x8")
        gdd = GddBaseBlocks(m=8, groups=[[0, 1, 2]], base_blocks=[])
        res = expand_gdd(gdd, [inner])
        assert res.code.size() == 13
        assert sorted(res.code.codewords) == sorted(inner.code.codewords)

    def test_gdd_over_3x4(self):
        outcome = gdd_search(4, 4, SearchConfig(120.0, 10**9, "exact_cover", 0))
        res = expand_gdd(outcome.best, [explicit_code("3x4")])
        assert res.code.size() == 72 + 4 * 6
        assert res.code.params.n == 12

    def test_rejects_mismatched_modulus(self):
        gdd = GddBaseBlocks(m=4, groups=[[0, 1, 2]], base_blocks=[])
        with pytest.raises(ValueError):
            expand_gdd(gdd, [explicit_code("3x8")])

    def test_rejects_two_inputs_with_one_row_count(self):
        # one of them would be left out of the expansion without a word
        gdd = GddBaseBlocks(m=8, groups=[[0, 1, 2]], base_blocks=[])
        with pytest.raises(ValueError, match="two input codes have 3 rows"):
            expand_gdd(gdd, [ooc_3xm(8), explicit_code("3x8")])

    def test_rejects_unverified_input(self):
        gdd = GddBaseBlocks(m=8, groups=[[0, 1, 2]], base_blocks=[])
        inner = dataclasses.replace(explicit_code("3x8"), verified=False)
        with pytest.raises(ValueError, match="expansion requires verified input codes"):
            expand_gdd(gdd, [inner])

    def test_group_restriction_recovers_input(self):
        inner = explicit_code("3x4")
        outcome = gdd_search(4, 4, SearchConfig(120.0, 10**9, "exact_cover", 0))
        res = expand_gdd(outcome.best, [inner])
        inner_set = set(inner.code.codewords)
        for rows in outcome.best.groups:
            rowset = set(rows)
            relabel = {row: i for i, row in enumerate(rows)}
            restricted = {
                make_codeword((relabel[r], s) for r, s in w)
                for w in res.code.codewords
                if {r for r, _ in w} <= rowset
            }
            assert restricted == inner_set
        # base blocks never put two cells in one group: mixed classes only
        for block in outcome.best.base_blocks:
            assert len({r // 3 for r, _ in block}) == 3


def _none_fixed_by_the_rotation(monkeypatch, built) -> list[tuple]:
    """Make each GDD cover search above order 1 spend five nodes, drawing
    once from its rng per node, and find no cover; `built` is the
    `gdd_matrices` list.  Returns the list that gets the state of the rng
    each order-1 search starts from."""
    first, starts = search._first_cover, []

    def none_fixed(cover, budget, rng):
        if built[-1].order == 1:
            starts.append(rng.getstate())
            return first(cover, budget, rng)
        for _ in range(5):
            budget.tick()
            rng.random()
        return None

    monkeypatch.setattr(search, "_first_cover", none_fixed)
    return starts


class TestCompose:
    def test_three_rows_delegates(self):
        assert compose_0mod3(3, 8).code.size() == 13

    def test_three_rows_take_no_search_config(self):
        with pytest.raises(UnsupportedParameterError, match="no search flags"):
            compose_0mod3(3, 8, SearchConfig(seed=1))

    def test_twelve_by_eight(self):
        res = compose_0mod3(12, 8)
        assert res.code.size() == 196 == 12 * (8 * 12 * 8 + 3 * 8 - 8) // 48

    @pytest.mark.parametrize("n,m,m0", [(12, 8, 8), (12, 24, 8), (15, 20, 4), (12, 96, 32)])
    def test_one_search_at_the_two_part_of_m(self, monkeypatch, n, m, m0):
        calls, real = [], construct._gdd_search

        def record(u, length, config, *orders):
            calls.append((u, length, orders))
            return real(u, length, config, *orders)

        monkeypatch.setattr(construct, "_gdd_search", record)
        res = compose_0mod3(n, m)
        assert calls == [(n // 3, m0, (1,))]  # below six groups the direct search alone
        assert res.code.size() == phi_exact(n, m).value and res.verified

    @pytest.mark.parametrize("n,m", [*((3 * u, 8) for u in range(6, 14)), (18, 32), (24, 32),
                                     (18, 20), (21, 96)])
    def test_six_or_more_groups_take_the_orbit_cover(self, gdd_matrices, n, m):
        res = compose_0mod3(n, m)
        u = n // 3
        # no fallback to the direct search
        assert [(b.u, b.m, b.order) for b in gdd_matrices] == [(u, m & -m, u - 1 + u % 2)]
        assert res.code.size() == phi_exact(n, m).value and res.verified
        assert verify_code(res.code).passed

    def test_one_seed_gives_one_code(self):
        first = compose_0mod3(21, 8, SearchConfig(seed=5)).code.codewords
        assert compose_0mod3(21, 8, SearchConfig(seed=5)).code.codewords == first
        assert compose_0mod3(21, 8, SearchConfig(seed=6)).code.codewords != first

    def test_no_design_fixed_by_the_rotation_falls_back_to_the_direct_search(
        self, monkeypatch, gdd_matrices
    ):
        starts = _none_fixed_by_the_rotation(monkeypatch, gdd_matrices)
        res = compose_0mod3(18, 8, SearchConfig(seed=2))
        assert res.code.size() == phi_exact(18, 8).value and verify_code(res.code).passed
        rotated, direct = gdd_matrices
        assert [(b.u, b.m, b.order) for b in gdd_matrices] == [(6, 8, 5), (6, 8, 1)]
        # the caller's seed, undrawn by the rotated search
        assert starts == [random.Random(2).getstate()]
        assert rotated.budget is direct.budget  # one budget: the direct search runs on what is left
        nodes = direct.budget.nodes  # the rotated search's five and the direct search's
        gdd_matrices.clear()
        # a node budget N stops the whole search at its N-th node
        with pytest.raises(SearchExhausted):
            compose_0mod3(18, 8, SearchConfig(node_budget=nodes, seed=2))
        assert gdd_matrices[-1].budget.nodes == nodes
        gdd_matrices.clear()
        again = compose_0mod3(18, 8, SearchConfig(node_budget=nodes + 1, seed=2))
        assert again.code.codewords == res.code.codewords
        assert gdd_matrices[-1].budget.nodes == nodes

    def test_the_rotated_matrix_is_freed_before_the_direct_one_is_built(
        self, monkeypatch, gdd_matrices
    ):
        _none_fixed_by_the_rotation(monkeypatch, gdd_matrices)
        compose_0mod3(18, 8)
        assert [(b.order, b.held) for b in gdd_matrices] == [(5, 0), (1, 0)]

    def test_hill_climb_keeps_the_direct_search(self, monkeypatch, gdd_matrices):
        climbs = []

        def spent(cover, budget, rng):
            climbs.append(len(cover.cols))
            raise search._Spent

        monkeypatch.setattr(search, "_gdd_hill_climb", spent)
        with pytest.raises(SearchExhausted):
            compose_0mod3(18, 8, SearchConfig(strategy=HILL_CLIMB))
        assert [(b.u, b.m, b.order) for b in gdd_matrices] == [(6, 8, 1)]
        assert climbs == [15 * 9 * 8]  # every cross-group class

    def test_unreachable_parameters(self):
        with pytest.raises(UnsupportedParameterError):
            compose_0mod3(12, 4)
        with pytest.raises(UnsupportedParameterError):
            compose_0mod3(6, 8)
        with pytest.raises(UnsupportedParameterError):
            compose_0mod3(9, 8)
        with pytest.raises(UnsupportedParameterError):
            compose_0mod3(7, 8)

    def test_rejects_every_class_without_a_three_row_code(self, monkeypatch):
        # a rejection needs no search
        monkeypatch.setattr(construct, "_gdd_search", None)
        for n in range(-2, 16):
            for m in range(1, 65):
                if n == 3 or n >= 1 and phi_exact(n, m).branch.startswith("phi/rows0mod3_"):
                    continue
                with pytest.raises(UnsupportedParameterError):
                    compose_0mod3(n, m)


def _recording(real, calls):
    def record(code):
        calls.append(code)
        return real(code)

    return record


def _gdd_4x4():
    return gdd_search(4, 4, SearchConfig(120.0, 10**9, EXACT_COVER, 0)).best


# public builder, its arguments (built before counting), and how many
# structural_facts calls it may make on codes other than its result: the
# caller's inputs (prime_derived reads its searched base's leave directly)
ONE_VERIFICATION_CASES = [
    (equi_2mod4, lambda: (26,), 0),
    (g_regular_4g, lambda: (9,), 0),
    (fill_regular, lambda: (g_regular_4g(6), equi_2mod4(6)), 2),
    (quadruple, lambda: (tight_derived(5, 0),), 1),
    (equi_power4, lambda: (3, 6), 0),
    (equi_power4, lambda: (2, 10, "half_free"), 0),
    (tight_derived, lambda: (13, 2), 0),
    (tight_derived, lambda: (15, 1), 0),
    (prime_derived, lambda: (7, 0), 0),
    (prime_derived, lambda: (11, 2), 0),
    (explicit_code, lambda: ("3x20",), 0),
    (ooc_2xm, lambda: (20,), 0),
    (ooc_3xm, lambda: (8,), 0),
    (ooc_3xm, lambda: (24,), 0),
    (ooc_3xm, lambda: (96,), 0),
    (ooc_3xm, lambda: (68,), 0),
    (expand_gdd, lambda: (_gdd_4x4(), [explicit_code("3x4")]), 0),
    (compose_0mod3, lambda: (12, 8, SearchConfig(30.0, 10**9, EXACT_COVER, 3)), 0),
    (compose_0mod3, lambda: (18, 8), 0),
    (compose_0mod3, lambda: (18, 8, SearchConfig(seed=4)), 0),
]


class TestConstructionHygiene:
    def test_every_result_reverifies(self):
        for res in (
            equi_2mod4(26),
            g_regular_4g(9),
            equi_power4(1, 10, "half_free"),
            tight_derived(17, 1),
            prime_derived(11, 1),
            ooc_2xm(20),
            ooc_3xm(40),
        ):
            assert res.verified
            assert verify_code(res.code).passed

    @pytest.mark.parametrize(
        "builder,make_args,other_facts",
        ONE_VERIFICATION_CASES,
        ids=[f"{b.__name__}-{i}" for i, (b, _, _) in enumerate(ONE_VERIFICATION_CASES)],
    )
    def test_one_verification_per_public_result(
        self, monkeypatch, builder, make_args, other_facts
    ):
        args = make_args()
        verified, checked, facts = [], [], []
        monkeypatch.setattr(construct, "verify_code", _recording(construct.verify_code, verified))
        monkeypatch.setattr(search, "verify_code", _recording(search.verify_code, checked))
        monkeypatch.setattr(
            construct, "structural_facts", _recording(construct.structural_facts, facts)
        )
        res = builder(*args)
        assert res.verified
        assert len(verified) == 1 and verified[0] is res.code
        # a searched design is not checked on its own; expand_gdd validates its caller's
        assert len(checked) == (builder is expand_gdd)
        assert sum(c is res.code for c in facts) <= 1
        assert sum(c is not res.code for c in facts) == other_facts


def _one_above(bound):
    """`bound` with every value raised by one, still reported exact."""

    def patched(*args):
        rep = bound(*args)
        return dataclasses.replace(rep, value=rep.value + 1)

    return patched


OPTIMAL_BUILDERS = [
    (equi_2mod4, (10,)),
    (equi_power4, (1, 6)),
    (equi_power4, (2, 6, "half_free")),
    (tight_derived, (15, 1)),
    (prime_derived, (7, 1)),
    (ooc_2xm, (12,)),
    (ooc_3xm, (24,)),
    (explicit_code, ("3x8",)),
    (compose_0mod3, (12, 8, SearchConfig(seed=3))),
    (compose_0mod3, (18, 8)),
    (compose_0mod3, (18, 8, SearchConfig(seed=4))),
]


@pytest.mark.parametrize(
    "builder,args",
    OPTIMAL_BUILDERS,
    ids=[f"{b.__name__}-{i}" for i, (b, _) in enumerate(OPTIMAL_BUILDERS)],
)
def test_optimal_builders_claim_the_exact_size_from_bounds(monkeypatch, builder, args):
    monkeypatch.setattr(construct, "psi_e_exact", _one_above(construct.psi_e_exact))
    monkeypatch.setattr(construct, "phi_exact", _one_above(construct.phi_exact))
    with pytest.raises(VerificationFailure, match="claimed"):
        builder(*args)


# builders that claim a difference leave, with their arguments (built before
# the patch, so the inputs of fill_regular and quadruple pass unchanged)
LEAVE_BUILDERS = [
    (equi_2mod4, lambda: (10,)),
    (g_regular_4g, lambda: (5,)),
    (equi_power4, lambda: (1, 6)),
    (equi_power4, lambda: (2, 6, "half_free")),
    (tight_derived, lambda: (13, 1)),
    (tight_derived, lambda: (15, 1)),
    (prime_derived, lambda: (7, 1)),
    (quadruple, lambda: (tight_derived(5, 0),)),
    (fill_regular, lambda: (g_regular_4g(6), equi_2mod4(6))),
]


@pytest.mark.parametrize(
    "builder,make_args",
    LEAVE_BUILDERS,
    ids=[f"{b.__name__}-{i}" for i, (b, _) in enumerate(LEAVE_BUILDERS)],
)
def test_builders_reject_a_wrong_claimed_leave(monkeypatch, builder, make_args):
    args = make_args()
    finalize = construct._finalize
    moved = []

    def drop_largest_add_least_absent(code, claimed_size, claimed_leave, branch):
        dropped = max(claimed_leave)
        added = min(set(range(1, code.params.m)) - set(claimed_leave))
        moved.append((added, dropped))
        return finalize(code, claimed_size, (set(claimed_leave) - {dropped}) | {added}, branch)

    monkeypatch.setattr(construct, "_finalize", drop_largest_add_least_absent)
    with pytest.raises(VerificationFailure, match="leave mismatch") as info:
        builder(*args)
    ((added, dropped),) = moved
    assert str(info.value).endswith(f"missing=[{added}], extra=[{dropped}]")


def test_a_correlation_failure_exits_3_with_its_witnesses(monkeypatch, capsys):
    build = construct._one_row_code

    def doubled(m, gens):
        code = build(m, gens)
        return Code(code.params, code.codewords * 2)

    monkeypatch.setattr(construct, "_one_row_code", doubled)
    assert main(["construct", "equi2mod4", "--m", "202"]) == 3
    out, err = capsys.readouterr()
    first, *witnesses = err.splitlines()
    assert out == ""
    assert first == (
        "verification failure: equi/2mod4: correlation check failed (auto_ok=True, cross_ok=False)"
    )
    assert len(witnesses) == 20
    assert all(w.startswith("  witness: Witness(kind='cross', ") for w in witnesses)


# the cells of a built codeword are checked once, by `_finalize` (through
# `Code.validate`): a repeated cell or one outside I_n x Z_m still fails there
@pytest.mark.parametrize(
    "cells,message",
    [
        (((0, 0), (0, 3), (0, 3)), "codeword 1 repeats a cell"),
        (((0, 0), (0, 3), (0, 10)), r"cell \(0,10\) of codeword 1 outside I_1 x Z_10"),
        (((0, 0), (1, 3), (0, 6)), r"cell \(1,3\) of codeword 1 outside I_1 x Z_10"),
    ],
)
def test_finalize_rejects_a_bad_cell_naming_its_codeword(cells, message):
    code = equi_2mod4(10).code
    bad = Code(code.params, [code.codewords[0], cells])
    with pytest.raises(ValueError, match=message):
        construct._finalize(bad, 2, None, "equi/2mod4")


def _with_a_repeated_cell(monkeypatch, builder):
    if builder is ooc_3xm:  # the last `_add` of the body lands twice on (1, 0)
        body = construct._THREE_ROW_BODIES["phi/rows0mod3_8mod16"]

        def faulty(m):
            cws = body(m)[:-1]
            construct._add(cws, m, (0, 0), (1, m), (1, 0))
            return cws

        monkeypatch.setitem(construct._THREE_ROW_BODIES, "phi/rows0mod3_8mod16", faulty)
    else:  # the generator 0 of `_place_on_rows` repeats one cell three times
        equi = construct._equi
        monkeypatch.setattr(construct, "_equi", lambda m: ([0] + equi(m)[0][1:], equi(m)[1]))


@pytest.mark.parametrize("builder,args", [(ooc_3xm, (24,)), (equi_2mod4, (10,))])
def test_a_body_that_repeats_a_cell_fails_its_family(monkeypatch, builder, args):
    _with_a_repeated_cell(monkeypatch, builder)
    with pytest.raises(ValueError, match="repeat|duplicate"):
        builder(*args)
