"""Byte-identical CLI output for a fixed golden set of small commands.

Each hash is the sha256 of stdout, recorded before `core.normalize` and the
candidate enumeration of `optimal_search` were rewritten; the entries after
the matrix render were recorded before the constructions stopped verifying
their internal stages, and the last three before `equi_search` moved onto
the shared branch-and-bound and GDD restarts took the caller's node budget.
Search commands use `--format text`, because their JSON carries `elapsed_ms`
and the text carries `nodes`.  The `verify` entries were recorded before
`verify_code` became one pass over integer class keys, and the `catalog`
entries before `catalog` dispatched through the `construct` family table.
The `search optimal` and `search equi` entries were re-recorded when the
packing search came to be bounded by the classes its candidates hold: only
their `nodes=` changed.  The `construct nxm` entry was re-recorded when the
GDD exact cover's first restart shrank to a node per column: seed 3 now
restarts once and finds another code of the same 196 codewords.  The
lifted `construct nxm` entry (m = 24 = 3 x 8) was recorded before a three-cell
codeword took a closed-form normal form and the CLI wrote codewords from
their tuples.  The four `construct nxm` entries of six groups and more, whose
designs come from the cover under a rotation of the groups, were recorded
before that search and its fallback to the direct cover ran as one search
on one budget.
"""

import contextlib
import hashlib
import io

import pytest

from oockit.cli import main
from oockit.construct import ooc_3xm
from oockit.core import Code, make_codeword
from oockit.document import code_to_document, render_json

NXM = "construct nxm --n 12 --m 8 --budget-seconds 30 --strategy exact_cover --seed 3"

GOLDEN = {
    "construct 3xm --m 24": "ab9e855c03174eed60c15426335bd54d9b781012771d8e7b395ba6f98406f25b",
    "construct 2xm --m 16": "56f020ccbbc07a60186aff043e53063eed39e5b80bb070a620e07cc3bc8fa58d",
    "construct equi2mod4 --m 18": "058bb5d98f8bcd5f236804ee930fb6d93e4e09bc90ac1111c0ef56f4ee9958d2",
    "construct gregular4g --g 5": "79a2fb68ce14af57d184f4f47568c1dfe6ec41e6494c2fd782dd62615daee743",
    "construct power4 --s 1 --r 6": "d662fb853bfe0da1b1490894ba3dab0b60c641bdd0a269db889d6413e08646c3",
    "construct tight --r 13": "316fd2a4373e7ce1b471d5fcff95ba1059e7dce4e113b760eccf314e1af68a35",
    "construct prime --p 7 --s 1": "87b7b0e22f3ab93a0dd8797c0c0d6c7b020f4c45c0e76fd91eb72f51d3bfb7fd",
    "construct explicit --id 3x8": "3119a9fe790ec480ed6d5af737f1fe6b0792aa4b741ab48e9fb46f37cb5f96d7",
    # m = 8 is its own base (lift factor 1): the searched design, unlifted
    NXM: "83722fdf04e00d0ad45ebde529566d0fece31cf3afcbf8144093e3dc71b0ce5b",
    # lift factor 3: 12 of its 592 codewords are not their own normal form
    "construct nxm --n 12 --m 24 --seed 3": (
        "23a02340234089cd2f61a6f3be2d7f427690823ca03970f614e49732d4628d06"
    ),
    # the orbit route: Z_5 and a fixed group, Z_7, and Z_7 and a fixed group
    "construct nxm --n 18 --m 8": (
        "d831f42a129aa7f67e761e76ee3b925f98766efefaecf0ffbd7662cc14567983"
    ),
    "construct nxm --n 21 --m 8 --seed 5": (
        "9983ccca594ff060f011d367a05bf746beb54e1eb054beb3fc90f2dd97db7b77"
    ),
    "construct nxm --n 18 --m 20": (
        "93bc227ac51f1b18e222c5541780c2ae8088bc1a908c0bf95113fdd3d1c28ad8"
    ),
    "construct nxm --n 24 --m 32": (
        "ae010adad6b6b4bda46c75171815e082f27f59570cacaefb67f19fe5c96ccb08"
    ),
    "construct 3xm --m 24 --format matrix": (
        "86354f3aba98aec91e2ad6b21fd7b49a1ea9da7d6e3b3065d783b60db29f331a"
    ),
    "construct power4 --s 2 --r 6 --variant half_free": (
        "c7d8180b167ea36bc6e451ead7af1d5ad559a3c342a0da064f168ac7850d1ff1"
    ),
    "construct tight --r 15 --s 1": (
        "703ec16b4b5b6922e0fe9e9aaa06b9a9d4deac2a230b8289a93b8ddc95d29c99"
    ),
    "construct prime --p 11": "6db2991fd72aeb656f7ad7ea26d09f9eabf349e61007a00c6b09d45530e860a2",
    "construct prime --p 5 --s 2": (
        "a41a886f80a3bc11057be3c3ff3ae4b7c0bd5efdce9454821bd25b7bf186f664"
    ),
    "construct 3xm --m 96": "c87d4df97677ac4e53a0add34325dcc38a9553907644de570e1f56e03a773e7b",
    "construct 3xm --m 68": "debf234c21b8896f26c5cacdd74a46f74537d03ac9133e761bd6509ab547733a",
    "construct 3xm --m 116": "111d85f56c02266fcbcf73e3530b39d0b3b10df9933c26b84bedfa660c5633ce",
    "search optimal --n 2 --m 6 --format text": (
        "def53bae18aeae7e62cea0ed83a647e1ee44c2bd6b6bb6f85c1c56bb21694c10"
    ),
    "search tight --m 13 --format text": (
        "46fdb7c1fade8be6a19517fd7698e1f9b5fac7b6e0470e2a77dec8cf3da17904"
    ),
    # best_size=15 proven_optimal=True nodes=27
    "search equi --m 61 --lambda-a 3 --format text": (
        "e8ed6897f5e6b73ccfeec036137961186b7ff59365d036a2c28dbb6e9616349d"
    ),
    "search equi --m 50 --format text": (
        "4562f35b4f28a78a79a6cae9459699c956701a6116d43edeab2f20dd6f82bc0f"
    ),
    "search gdd --u 3 --m 5 --strategy exact_cover --seed 3 --format text": (
        "86f48457f2fbab9e8617423938a27b2a8196f9936614bd978a2af4e55b2f1e74"
    ),
    "catalog --n 1 --m 40..56": (
        "f4a4048cd5db9c29c1e5dd032b69dba2acfd649854740e242af1b5cc63ebcb42"
    ),
    "catalog --n 2 --m 4..40": (
        "157b4380c0bcf9ee0279935ec664a21555f4a98cd6b4a78ac720477e59715356"
    ),
    "catalog --n 3 --m 8..104 --format text": (
        "7dcfc8ef2665c1d6d173977cac6160d53aa26f936f7d979c49a5c5679b21d543"
    ),
}


def _stdout_sha256(command: str, exit_code: int = 0) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == exit_code
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_output_is_byte_identical(command):
    assert _stdout_sha256(command) == GOLDEN[command]


def test_seed_alone_reaches_the_search():
    assert _stdout_sha256("construct nxm --n 12 --m 8 --seed 3") == GOLDEN[NXM]


def _verify_documents() -> dict[str, tuple[Code, int]]:
    """name -> (code, expected exit) for the golden `verify` documents.

    "doubled" lists every codeword of ooc_3xm(96) twice and adds a
    third-period codeword in row 0: auto and cross witnesses, and more
    violations than MAX_WITNESSES.
    """
    code = ooc_3xm(96).code
    third = make_codeword(((0, 0), (0, 32), (0, 64)))
    doubled = Code(code.params, code.codewords * 2 + [third])
    return {"3xm-96": (code, 0), "3xm-96-doubled": (doubled, 1)}


VERIFY_GOLDEN = {
    "3xm-96": "c63d27c5296b60cd9f15003a6bad185664c1db05f6f6dbb2cb8b2f3b537b8b5b",
    "3xm-96-doubled": "bb17842b0744a5ee77fa10f16ab52d5a5d312f97abb5f322ad9b22f470b6288e",
}


@pytest.mark.parametrize("name", list(VERIFY_GOLDEN))
def test_verify_output_is_byte_identical(tmp_path, name):
    code, exit_code = _verify_documents()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(render_json(code_to_document(code)), encoding="utf-8")
    command = f"verify {path} --format json"
    assert _stdout_sha256(command, exit_code) == VERIFY_GOLDEN[name]
