"""Stable JSON interchange format for codes.

Documents are canonical: sorted keys, slot-normalized and sorted codewords,
integers only.  parse(render(doc)) == doc.

`render_json(doc)` prints what `json.dumps(doc, sort_keys=True, indent=2)`
prints.  That call runs CPython's pure-Python encoder, since the C one takes
no indent, so `render_json` walks a document, or a report that nests one (a
search report's `"witness"`), and the objects in it.  It writes a
`"codewords"` array from one %-template per cell and one join per codeword,
a list of ints (a claimed leave) with one join, and any other value through
`json.dumps(value, sort_keys=True, indent=2)`, re-indented to its depth;
keys and scalars through the C encoder.  A codewords array holds integer
cells, as `code_to_document` writes them and `document_to_code` requires.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields

from .core import Code, CodeParams, Codeword, make_codeword, normalize

SCHEMA_VERSION = "1"


class DocumentError(ValueError):
    """The input is not a well-formed code document."""


def code_to_document(code: Code, metadata: dict | None = None) -> dict:
    p = code.params
    cws = sorted(normalize(cw, p.m) for cw in code.codewords)
    meta = {
        "branch": None,
        "claimed_size": None,
        "claimed_leave": None,
        "verified": False,
        "provenance": None,
    }
    meta.update(metadata or {})
    if isinstance(meta.get("claimed_leave"), (set, frozenset)):
        meta["claimed_leave"] = sorted(meta["claimed_leave"])
    # a CodeParams holds only its int fields, so a copy of its attributes is
    # `asdict(p)`; asdict's first call in a process costs about 0.2 ms more
    return {
        "schema_version": SCHEMA_VERSION,
        "params": dict(vars(p)),
        "codewords": [[[r, s] for r, s in cw] for cw in cws],
        "metadata": meta,
    }


def document_to_code(doc: dict) -> tuple[Code, dict]:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {doc.get('schema_version')!r}")
    params = doc.get("params")
    if not isinstance(params, dict):
        raise DocumentError("missing params object")
    # the CodeParams fields, JSON integers only: `type(...) is int` turns away
    # floats, strings and booleans, which int() would read as some other code;
    # n and m have no default, so an absent one reads as None and is turned away
    values = []
    for f in fields(CodeParams):
        value = params.get(f.name, None if f.default is MISSING else f.default)
        if type(value) is not int:
            raise DocumentError(f"bad params: {f.name} must be an integer, got {value!r}")
        values.append(value)
    try:
        p = CodeParams(*values)
    except ValueError as exc:
        raise DocumentError(f"bad params: {exc}") from exc
    raw = doc.get("codewords")
    if not isinstance(raw, list):
        raise DocumentError("codewords must be a list")
    codewords: list[Codeword] = []
    for entry in raw:
        if not isinstance(entry, list) or not all(
            isinstance(c, list) and len(c) == 2 and type(c[0]) is int and type(c[1]) is int
            for c in entry
        ):
            raise DocumentError(f"malformed codeword entry {entry!r}")
        try:
            codewords.append(make_codeword(entry))
        except ValueError as exc:
            raise DocumentError(f"bad codeword {entry!r}: {exc}") from exc
    metadata = doc.get("metadata")
    if metadata is None:  # absent or null
        metadata = {}
    elif not isinstance(metadata, dict):
        raise DocumentError("metadata must be an object")
    code = Code(p, codewords)
    try:
        code.validate()
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    return code, metadata


def render_json(doc: dict) -> str:
    return _render(doc, "", _holds_codewords(doc))  # other reports: json writes them whole


def _render(value, pad: str, walk: bool) -> str:
    """`value` as `json.dumps(value, sort_keys=True, indent=2)` writes it at indent `pad`."""
    inner = pad + "  "
    if walk and type(value) is dict and value and all(type(key) is str for key in value):
        items = []
        for key in sorted(value):
            item = value[key]
            text = (
                _codewords(item, inner)
                if key == "codewords" and type(item) is list
                else _render(item, inner, True)
            )
            items.append(f"{inner}{json.dumps(key)}: {text}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if walk and type(value) is list and value and all(type(x) is int for x in value):
        return f"[\n{inner}" + f",\n{inner}".join(map(str, value)) + f"\n{pad}]"
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)
    return json.dumps(value)


def _holds_codewords(value) -> bool:
    """True for an object with a "codewords" key, or one nested in it through objects."""
    return type(value) is dict and (
        "codewords" in value or any(map(_holds_codewords, value.values()))
    )


def _codewords(codewords: list, pad: str) -> str:
    """A codewords array whose key sits at indent `pad`: one template per [r, s] cell."""
    if not codewords:
        return "[]"
    word = pad + "  "
    cell = f"{word}  [\n{word}    %d,\n{word}    %d\n{word}  ]"
    head, tail = word + "[\n", f"\n{word}]"
    words = [
        head + ",\n".join([cell % (r, s) for r, s in cw]) + tail if cw else word + "[]"
        for cw in codewords
    ]
    return "[\n" + ",\n".join(words) + f"\n{pad}]"


def parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc


def render_matrix(code: Code) -> str:
    """One n x m block of '0'/'1' characters per codeword, blank-line separated."""
    p = code.params
    blocks = []
    for cw in code.codewords:
        rows = [["0"] * p.m for _ in range(p.n)]
        for i, x in cw:
            rows[i][x] = "1"
        blocks.append("\n".join(map("".join, rows)))
    return "\n\n".join(blocks)
