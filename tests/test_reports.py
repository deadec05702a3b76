"""Each report's JSON holds its dataclass's fields, byte for byte.

Each hash is the sha256 of stdout, recorded while `cli.py` still wrote the
`bound`, `verify` and GDD witness objects field by field.  The `search gdd`
hash leaves out the `elapsed_ms` line, the one line that varies between runs.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import fields

import pytest

from oockit.bounds import BoundReport
from oockit.cli import main
from oockit.construct import equi_power4
from oockit.core import Code, CodeParams, make_codeword
from oockit.document import code_to_document, render_json
from oockit.search import GddBaseBlocks, SearchConfig, gdd_search
from oockit.verify import CompositionCensus, ParityCensus, VerificationReport

BOUND_GOLDEN = {
    "bound phi --n 3 --m 32": "89043693240fb7b2f2ef19849cda7339be08d02742d03f71b65ba1dacca312bd",
    # kind unknown, with a dependency
    "bound phi --n 5 --m 8": "262048ab0b6c5410786f2cbabd22499e4570e6cda1f8fb3d59cf47e7cd245cc8",
    "bound psi_e --m 320": "05c7232449e34e06bba9097e9924ce5f7aa5f6139c6534ae7f5b39d4d1c5614f",
    "bound cac --m 48": "74d05b314b00d50bcbe7f412b46351116bc9e0a67334aeadbf84c048d5602934",
    "bound me --m 13": "4271186860a0b0c7052120959c3cb1fe4106f7e8224b72eff243b629aee481bc",
}
# name -> (sha256, exit code) of `verify -` on the document of equi_power4(1, 6),
# whose parity census is filled, and of that code plus the third-period
# codeword {0, 8, 16}, which breaks the autocorrelation cap and has no parity class
VERIFY_GOLDEN = {
    "power4-1-6": ("bf49939107797758d10cadc41f7d0c87251550801cbbceb12a142a8187912cbc", 0),
    "power4-1-6-third": ("912ffd75c64cedc9156f6961031d96e5d89f7ceaf99b7731bd3a44a7e82a78d7", 1),
}
GDD = "search gdd --u 3 --m 5 --seed 3"
GDD_GOLDEN = "8e8a945b39e40439fe6f3db447b0921aeb7a0c6d412d41c8f972518186580fa0"


def _stdout(argv: list[str], exit_code: int = 0) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == exit_code
    return out.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verify_stdout(name: str, monkeypatch) -> str:
    code = equi_power4(1, 6).code
    if name.endswith("-third"):
        code = Code(code.params, code.codewords + [make_codeword(((0, 0), (0, 8), (0, 16)))])
    monkeypatch.setattr("sys.stdin", io.StringIO(render_json(code_to_document(code))))
    return _stdout(["verify", "-"], VERIFY_GOLDEN[name][1])


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


@pytest.mark.parametrize("command", list(BOUND_GOLDEN))
def test_bound_json_is_byte_identical(command):
    assert _sha256(_stdout(command.split())) == BOUND_GOLDEN[command]


@pytest.mark.parametrize("name", list(VERIFY_GOLDEN))
def test_verify_json_is_byte_identical(name, monkeypatch):
    assert _sha256(_verify_stdout(name, monkeypatch)) == VERIFY_GOLDEN[name][0]


def test_gdd_search_json_is_byte_identical():
    lines = _stdout(GDD.split()).splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith('  "elapsed_ms": ')]
    assert len(kept) == len(lines) - 1
    assert _sha256("".join(kept)) == GDD_GOLDEN


def test_report_keys_are_the_dataclass_fields(monkeypatch):
    assert json.loads(_stdout(["bound", "phi", "--n", "5", "--m", "8"])).keys() == _names(
        BoundReport
    )
    report = json.loads(_verify_stdout("power4-1-6", monkeypatch))
    assert report["verification"].keys() == _names(VerificationReport)
    assert report["composition_census"].keys() == _names(CompositionCensus)
    assert report["parity_census"].keys() == _names(ParityCensus)
    witness = json.loads(_stdout(GDD.split()))["witness"]
    assert witness.keys() == _names(GddBaseBlocks)  # the group_type InitVar is no field
    params = code_to_document(equi_power4(1, 6).code)["params"]
    assert params.keys() == _names(CodeParams)


@pytest.mark.parametrize("nodes", [1, 17, 100, 432, 433, 500, 577])
def test_gdd_exact_cover_spends_exactly_its_node_budget(nodes):
    # the first restart's slice is one node per column: 54 cross-group row pairs x 8 = 432
    outcome = gdd_search(4, 8, SearchConfig(node_budget=nodes))
    assert (outcome.nodes, outcome.best, outcome.proven_optimal) == (nodes, None, False)


def test_gdd_exact_cover_finds_its_witness_at_node_577():
    outcome = gdd_search(4, 8, SearchConfig(node_budget=578))
    assert (outcome.nodes, outcome.best_size, outcome.proven_optimal) == (577, 144, True)
