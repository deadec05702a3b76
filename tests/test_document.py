"""The document writers against their definitions.

`render_json` must print what `json.dumps(doc, sort_keys=True, indent=2)`
prints, for code documents and for every report that nests one; and
`render_matrix` what a per-character scan of each codeword prints.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, strategies as st

from oockit.cli import main
from oockit.core import Code, CodeParams, make_codeword
from oockit.document import code_to_document, parse_json, render_json, render_matrix

# JSON values other than code documents.  NaN is left out because it is
# unequal to itself, so parse(render(doc)) == doc could not hold; the key
# "codewords" is left out because it names an array of integer cells.
KEYS = st.text(max_size=6).filter(lambda key: key != "codewords")
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
def code_documents(draw):
    """Documents as code_to_document writes them, over k = 1..4 and large cells."""
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
    return code_to_document(Code(CodeParams(n, m, k), codewords), metadata)


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
    def test_equals_json_dumps(self, doc):
        assert render_json(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @given(DOCUMENTS)
    def test_parse_inverts_render(self, doc):
        assert parse_json(render_json(doc)) == doc

    @pytest.mark.parametrize(
        "command",
        [
            "search optimal --n 2 --m 6",
            "search equi --m 50",
            "search tight --m 13",
            "search gdd --u 3 --m 5 --strategy exact_cover --seed 3",
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
