"""The document writers against their definitions.

`render_json` must print what `json.dumps(doc, sort_keys=True, indent=2)`
prints, for code documents and for every report that nests one; for report
objects, what it prints of their `dataclasses.asdict` copies; and
`render_matrix` what a per-character scan of each codeword prints.
"""

import contextlib
import io
import json
from dataclasses import asdict, fields, is_dataclass

import pytest
from hypothesis import example, given, strategies as st

from oockit.bounds import BoundReport
from oockit.cli import main
from oockit.core import Code, CodeParams, make_codeword
from oockit.document import code_to_document, parse_json, render_json, render_matrix
from oockit.search import GddBaseBlocks, SearchConfig, gdd_search
from oockit.verify import CompositionCensus, ParityCensus, VerificationReport, Witness

# JSON values other than code documents.  NaN is left out because it is
# unequal to itself, so parse(render(doc)) == doc could not hold; the keys
# "codewords" and "base_blocks" are left out because each names an array of
# integer cells.
KEYS = st.text(max_size=6).filter(lambda key: key not in ("codewords", "base_blocks"))
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=12,
)

# a claimed leave: null, empty, one entry or many
LEAVES = (
    st.none()
    | st.just([])
    | st.lists(st.integers(1, 10**9), min_size=1, max_size=1)
    | st.lists(st.integers(1, 10**9), min_size=2, max_size=300)
)


def _leave_document(leave):
    """The code {0, 1, 2} on Z_6 with this claimed leave."""
    code = Code(CodeParams(1, 6), [make_codeword(((0, 0), (0, 1), (0, 2)))])
    return code_to_document(code, {"claimed_leave": leave})


@st.composite
def codes_and_metadata(draw):
    """A code over k = 1..4 and large cells, and metadata for its document."""
    n = draw(st.integers(1, 10**6))
    m = draw(st.integers(1, 10**12))
    k = draw(st.integers(1, 4))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    codewords = draw(
        st.lists(
            st.lists(cell, min_size=k, max_size=k, unique=True).map(make_codeword), max_size=12
        )
    )
    metadata = {
        "branch": draw(st.none() | st.text(max_size=12)),
        "claimed_size": draw(st.none() | st.integers(0, 10**9)),
        "claimed_leave": draw(LEAVES),
        "verified": draw(st.booleans()),
        "provenance": draw(st.none() | st.text()),
        **draw(st.dictionaries(KEYS, VALUES, max_size=3)),
    }
    return Code(CodeParams(n, m, k), codewords), metadata


def code_documents():
    """Documents as code_to_document writes them."""
    return codes_and_metadata().map(lambda pair: code_to_document(*pair))


def _gdd_witness():
    block = st.lists(st.lists(st.integers(0, 10**6), min_size=2, max_size=2), max_size=4)
    return st.fixed_dictionaries(
        {
            "m": st.integers(1, 100),
            "groups": st.integers(1, 100),
            "base_blocks": st.lists(block, max_size=5),
        }
    )


def _search_reports():
    return st.fixed_dictionaries(
        {
            "best_size": st.integers(0, 10**6),
            "proven_optimal": st.booleans(),
            "nodes": st.integers(0, 10**9),
            "elapsed_ms": st.integers(0, 10**6),
            "witness": st.none() | code_documents() | _gdd_witness(),
        }
    )


def _catalogs():
    row = st.fixed_dictionaries(
        {
            "n": st.integers(1, 40),
            "m": st.integers(1, 10**5),
            "constructed": st.none() | st.integers(0, 10**6),
            "bound": st.integers(0, 10**6),
            "kind": st.sampled_from(["exact", "upper_bound"]),
            "verified": st.booleans(),
        }
    )
    return st.fixed_dictionaries({"rows": st.lists(row, max_size=6)})


def _verify_reports():
    witness = st.dictionaries(KEYS, SCALARS | st.lists(st.integers(), max_size=3), max_size=4)
    census = st.none() | st.dictionaries(st.text(max_size=8), st.integers(0, 10**6), max_size=5)
    return st.fixed_dictionaries(
        {
            "verification": st.fixed_dictionaries(
                {
                    "auto_ok": st.booleans(),
                    "cross_ok": st.booleans(),
                    "max_auto_multiplicity": st.integers(0, 10),
                    "violation_count": st.integers(0, 10**6),
                    "witnesses": st.lists(witness, max_size=4),
                }
            ),
            "composition_census": census,
            "parity_census": census,
        }
    )


DOCUMENTS = (
    code_documents()
    | _search_reports()
    | _catalogs()
    | _verify_reports()
    | st.dictionaries(KEYS, VALUES, max_size=5)
)


class TestRenderJson:
    @given(DOCUMENTS)
    @example({})
    @example([])
    @example({"codewords": [], "metadata": {}, "params": {"a": [], "b": {}}})
    @example({"codewords": [[]], "witness": {"codewords": [[[0, 0]], []]}})
    @example({"codewords": None, "witness": {"codewords": {}}})
    @example({"provenance": "construct 3xm --m 24 — été \U0001f600", "x": [None, True, False]})
    @example({1: "a", 2: {"codewords": [[[0, 1]]]}})
    @example(_leave_document(None))
    @example(_leave_document(set()))
    @example(_leave_document({3}))
    @example(_leave_document(set(range(1, 10**4, 7))))
    @example({"a": [True, 1], "b": [1, -2, 10**30], "c": {}, "d": [[1], [2, 3]], "e": [1.0]})
    # bool cells, which verify_code passes, are written as the ints they equal
    @example(code_to_document(Code(CodeParams(2, 8), [((False, 0), (True, 1), (True, 3))])))
    def test_equals_json_dumps(self, doc):
        assert render_json(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @given(DOCUMENTS)
    def test_parse_inverts_render(self, doc):
        assert parse_json(render_json(doc)) == doc

    def test_a_cell_that_is_not_an_integer_is_refused(self):
        # render_json's template would write the slot 4.5 as 4: another code
        with pytest.raises(TypeError):
            code_to_document(Code(CodeParams(2, 8), [((0, 0), (0, 1), (1, 4.5))]))

    @given(codes_and_metadata())
    def test_the_tuple_form_renders_as_the_document(self, pair):
        # what the CLI writes for a code: its codewords as normal-form tuples
        assert render_json(code_to_document(*pair, tuples=True)) == render_json(code_to_document(*pair))

    @pytest.mark.parametrize(
        "command",
        [
            "construct 3xm --m 24",
            "construct 2xm --m 16",
            "construct power4 --s 1 --r 6",
            "construct nxm --n 12 --m 24 --seed 3",  # lifted: some codewords move
            "search optimal --n 2 --m 6",
            "search equi --m 50",
            "search tight --m 13",
            "search gdd --u 3 --m 5 --strategy exact_cover --seed 3",
            "search gdd --u 4 --m 8 --seed 0",
            "bound phi --n 3 --m 24",
            "catalog --n 2 --m 4..40",
        ],
    )
    def test_cli_reports_equal_json_dumps(self, command):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(command.split()) == 0
        text = out.getvalue()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def _asdict_copy(value):
    """`value` with every dataclass instance in it replaced by its `asdict` copy."""
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, dict):
        return {key: _asdict_copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_asdict_copy(item) for item in value]
    return value


def _counts(cls):
    return st.builds(cls, **{f.name: st.integers(0, 10**6) for f in fields(cls)})


PAIRS = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))
WITNESSES = st.builds(
    Witness, st.sampled_from(["auto", "cross"]), PAIRS, PAIRS, st.integers(0, 10**6)
)


@st.composite
def gdd_witnesses(draw):
    """GddBaseBlocks, built with and without its ignored group_type."""
    groups = draw(st.lists(st.lists(st.integers(0, 40), max_size=4), max_size=4))
    cell = st.tuples(st.integers(0, 40), st.integers(0, 10**6))
    blocks = draw(
        st.lists(st.lists(cell, max_size=3, unique=True).map(make_codeword), max_size=4)
    )
    extra = draw(st.sampled_from([{}, {"group_type": None}, {"group_type": [(3, 4)]}]))
    return GddBaseBlocks(draw(st.integers(1, 100)), groups, blocks, **extra)


# the report objects the CLI writes: a verify report and its censuses, a bound
# report and a GDD search witness
REPORTS = st.one_of(
    st.builds(
        VerificationReport,
        st.booleans(),
        st.booleans(),
        st.integers(0, 10),
        st.lists(WITNESSES, max_size=3),
        st.integers(0, 10**6),
    ),
    _counts(CompositionCensus),
    _counts(ParityCensus),
    st.builds(
        BoundReport,
        st.none() | st.integers(0, 10**6),
        st.sampled_from(["exact", "upper_bound", "unknown"]),
        st.text(max_size=12),
        st.lists(st.tuples(st.text(max_size=8), st.integers(0, 10**6)), max_size=3).map(tuple),
    ),
    gdd_witnesses(),
)


class TestRenderReports:
    @given(
        REPORTS
        | st.dictionaries(KEYS, REPORTS | st.none(), min_size=1, max_size=3)
        | st.lists(REPORTS, min_size=1, max_size=3)
    )
    def test_equals_json_dumps_of_the_asdict_copy(self, report):
        expected = json.dumps(_asdict_copy(report), sort_keys=True, indent=2)
        assert render_json(report) == expected

    @pytest.mark.parametrize("u, m, seed", [(3, 5, 3), (4, 8, 0), (5, 8, 0), (3, 39, 924)])
    def test_a_gdd_search_witness_equals_json_dumps(self, u, m, seed):
        witness = gdd_search(u, m, SearchConfig(seed=seed)).best
        expected = json.dumps(vars(witness), sort_keys=True, indent=2)
        assert render_json(witness) == expected
        assert render_json({"witness": witness}) == json.dumps(
            {"witness": vars(witness)}, sort_keys=True, indent=2
        )

    def test_empty_and_four_cell_base_blocks_equal_json_dumps(self):
        blocks = [(), ((0, 0), (1, 2), (2, 4), (3, 10**12)), ((1, 0),), ()]
        for witness in (GddBaseBlocks(5, [[0, 1], [2], [3]], blocks), GddBaseBlocks(1, [])):
            for report in (witness, {"best": witness, "nodes": 3}, [witness, None]):
                expected = json.dumps(_asdict_copy(report), sort_keys=True, indent=2)
                assert render_json(report) == expected

    @pytest.mark.parametrize(
        "report",
        [
            BoundReport(1, "exact", "x", frozenset({("a", 1)})),
            {"verification": BoundReport(1, "exact", "x", (("a", frozenset()),))},
            [VerificationReport(True, True, 1, [Witness("auto", frozenset(), (0, 0), 1)], 0)],
            {"census": frozenset({1, 2})},
        ],
    )
    def test_a_frozenset_is_no_json_value(self, report):
        with pytest.raises(TypeError):
            render_json(report)


def _matrix_by_scan(code: Code) -> str:
    """One '0'/'1' character per slot, by a set lookup of its cell."""
    p = code.params
    blocks = []
    for cw in code.codewords:
        cells = set(cw)
        rows = ["".join("1" if (i, x) in cells else "0" for x in range(p.m)) for i in range(p.n)]
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks)


@st.composite
def small_codes(draw):
    n, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(1, 4))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    k = min(k, n * m)
    codewords = draw(
        st.lists(st.lists(cell, min_size=k, max_size=k, unique=True).map(make_codeword), max_size=6)
    )
    return Code(CodeParams(n, m, k), codewords)


@given(small_codes())
def test_render_matrix_equals_the_scan(code):
    assert render_matrix(code) == _matrix_by_scan(code)
