"""Output checks and digests; run outside the timed region.

Sizes come from the closed forms in ``oockit.bounds``; correlation from
``verify_code`` on the parsed output and, for small outputs, from the
independent matrix-correlation oracle ``matrix_verdicts``.  Canonical form,
difference leaves and tight partitions are checked by code of this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from oockit import bounds, core, document, verify
from oockit.search import GddBaseBlocks

from workloads import Op, three_row_ok

# matrix_verdicts costs about (codewords^2 * m) shift overlaps
MATRIX_ORACLE_LIMIT = 40_000

OK, FAILED, KNOWN_DEFECT = "ok", "failed", "known_defect"


@dataclass
class Outcome:
    """What one operation did: its latency, exit code, output or exception."""

    seconds: float
    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None  # "TypeName: message" of an escaped exception
    result: object = None  # return value of a library call

    @property
    def error_type(self) -> str | None:
        return self.error.split(":", 1)[0] if self.error else None


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# independent helpers
# ---------------------------------------------------------------------------


def least_translate(cw, m: int) -> tuple:
    """Lexicographically least slot translate, trying only shifts that move a
    cell of the lowest row to slot 0 (the least translate must do that)."""
    r0 = min(r for r, _ in cw)
    return min(
        tuple(sorted((r, (s - t) % m) for r, s in cw)) for r, t in cw if r == r0
    )


def difference_leave(codewords, m: int) -> set[int]:
    covered = set()
    for cw in codewords:
        slots = [s for _, s in cw]
        covered.update((x - y) % m for x in slots for y in slots if x != y)
    return set(range(1, m)) - covered


def parse_matrix(text: str, n: int, m: int) -> list[tuple]:
    codewords = []
    for block in text.strip("\n").split("\n\n"):
        rows = block.split("\n")
        _require(len(rows) == n and all(len(r) == m for r in rows), "matrix block shape")
        codewords.append(tuple(
            (i, x) for i, row in enumerate(rows) for x, ch in enumerate(row) if ch == "1"
        ))
    return codewords


# ---------------------------------------------------------------------------
# shared code checks
# ---------------------------------------------------------------------------


def expected_size(family: str, meta: dict) -> int:
    """Size a family must reach: optimal closed form, or the family's own count."""
    if family in ("gregular4g", "g_regular_4g"):
        return (meta["g"] + 1) // 2
    if family in ("equi2mod4", "power4", "tight", "prime",
                  "equi_power4", "tight_derived", "prime_derived"):
        rep = bounds.psi_e_exact(meta["m"])
    else:
        rep = bounds.phi_exact(meta["n"], meta["m"])
    _require(rep.kind == "exact", f"no exact closed form for {family} {meta}")
    return rep.value


def check_code(code, size: int | None = None) -> None:
    """verify_code passes, the size matches, and small codes pass the oracle."""
    if size is not None:
        _require(code.size() == size, f"size {code.size()} != expected {size}")
    report = verify.verify_code(code)
    _require(report.passed, f"verify_code fails: {report.violation_count} violations")
    if code.size() ** 2 * code.params.m <= MATRIX_ORACLE_LIMIT:
        _require(verify.matrix_verdicts(code) == (True, True), "matrix oracle rejects")


def check_document(text: str, n: int, m: int, size: int | None) -> dict:
    doc = json.loads(text)
    code, meta = document.document_to_code(doc)
    _require((code.params.n, code.params.m) == (n, m), f"params {code.params}")
    cws = [tuple(map(tuple, cw)) for cw in doc["codewords"]]
    _require(cws == sorted(cws), "codewords not sorted")
    _require(all(cw == least_translate(cw, m) for cw in cws), "codeword not canonical")
    check_code(code, size)
    return meta


# ---------------------------------------------------------------------------
# per-operation checks
# ---------------------------------------------------------------------------


def _cli_ok(out: Outcome, exit_code: int = 0) -> None:
    _require(out.error is None, f"exception escaped: {out.error}")
    _require(out.exit_code == exit_code, f"exit {out.exit_code}, expected {exit_code}")


def _emit_json(op: Op, out: Outcome) -> None:
    _cli_ok(out)
    m = op.meta
    size = expected_size(m["family"], m)
    meta = check_document(out.stdout, m["n"], m["m"], size)
    _require(meta.get("claimed_size") == size, "claimed_size mismatch")
    _require(meta.get("verified") is True, "document not marked verified")


def _emit_matrix(op: Op, out: Outcome) -> None:
    _cli_ok(out)
    m = op.meta
    params = core.CodeParams(m["n"], m["m"])
    code = core.Code(params, [core.make_codeword(c) for c in parse_matrix(out.stdout, m["n"], m["m"])])
    check_code(code, expected_size(m["family"], m))


def _build(op: Op, out: Outcome) -> None:
    _require(out.error is None, f"exception escaped: {out.error}")
    res, m = out.result, op.meta
    _require(res.verified, "result not marked verified")
    _require((res.code.params.n, res.code.params.m) == (m["n"], m["m"]), "params")
    meta = {**m, "g": op.args[0]} if op.func == "g_regular_4g" else m
    size = expected_size(op.func, meta)
    _require(res.claimed_size == size, "claimed_size mismatch")
    check_code(res.code, size)
    if res.claimed_leave is not None:
        leave = difference_leave(res.code.codewords, m["m"])
        _require(leave == set(res.claimed_leave), "difference leave mismatch")


def _catalog(op: Op, out: Outcome) -> None:
    _cli_ok(out)
    n, lo, hi = op.meta["n"], op.meta["lo"], op.meta["hi"]
    rows = json.loads(out.stdout)["rows"]
    ms = [r["m"] for r in rows]
    _require(ms == sorted(set(ms)) and all(lo <= x <= hi for x in ms), "row lengths")
    built = {r["m"] for r in rows if r["constructed"] is not None}
    covered = three_row_ok if n == 3 else (lambda x: x % 4 == 0)
    _require(built == {x for x in range(lo, hi + 1) if covered(x)}, "catalog coverage")
    for r in rows:
        _require(r["n"] == n, "row n")
        if r["constructed"] is not None:
            exact = bounds.phi_exact(n, r["m"])
            _require(r["kind"] == "exact" and r["verified"], f"row {r}")
            _require(r["constructed"] == r["bound"] == exact.value, f"row {r}")


def _verify(op: Op, out: Outcome) -> None:
    planted = op.meta["planted"]
    _cli_ok(out, 1 if planted else 0)
    rep = json.loads(out.stdout)
    ver = rep["verification"]
    if planted:
        _require(not ver["cross_ok"] and ver["violation_count"] > 0, "planted translate missed")
    else:
        _require(ver["auto_ok"] and ver["cross_ok"] and ver["violation_count"] == 0, "clean code rejected")
    census = rep["composition_census"]
    total = census["alpha"] + census["beta"] + census["gamma"]
    _require(total == op.meta["codewords"], "census total")


def _witness(rep: dict, size: int) -> None:
    code, _ = document.document_to_code(rep["witness"])
    check_code(code, size)


def _search_optimal(op: Op, out: Outcome) -> None:
    _cli_ok(out)
    rep = json.loads(out.stdout)
    n, m = op.meta["n"], op.meta["m"]
    _require(rep["proven_optimal"], "not proven optimal")
    exact = bounds.phi_exact(n, m)
    if exact.kind == "exact":
        _require(rep["best_size"] == exact.value, f"best {rep['best_size']} != phi {exact.value}")
    else:
        _require(rep["best_size"] <= bounds.phi_upper_bound(n, m).value, "above upper bound")
    _witness(rep, rep["best_size"])


def _search_budget(op: Op, out: Outcome) -> None:
    _cli_ok(out)
    rep = json.loads(out.stdout)
    n, m = op.meta["n"], op.meta["m"]
    _require(rep["best_size"] <= bounds.phi_upper_bound(n, m).value, "above upper bound")
    _witness(rep, rep["best_size"])


def _search_equi(op: Op, out: Outcome) -> None:
    _cli_ok(out)
    rep = json.loads(out.stdout)
    _require(rep["proven_optimal"], "not proven optimal")
    _require(rep["best_size"] == bounds.me_prime(op.meta["m"]).value, "size != me(p)")
    _witness(rep, rep["best_size"])


def _search_tight(op: Op, out: Outcome) -> None:
    _cli_ok(out)
    rep = json.loads(out.stdout)
    m = op.meta["m"]
    _require(rep["proven_optimal"], "not proven")
    found = rep["witness"] is not None
    admissible = bounds.tight_admissible(m)
    _require(found == admissible.admissible, "disagrees with admissibility")
    if found:
        code, _ = document.document_to_code(rep["witness"])
        supports = [core.pure_difference_support(cw, m) for cw in code.codewords]
        _require(sorted(d for s in supports for d in s) == list(range(1, m)), "not a partition")
        _require(rep["best_size"] == code.size() == admissible.expected_size, "tight size")
    else:
        _require(rep["best_size"] == 0, "size without witness")


def _search_gdd(op: Op, out: Outcome) -> None:
    _cli_ok(out)
    rep = json.loads(out.stdout)
    u, m = op.meta["u"], op.meta["m"]
    w = rep["witness"]
    _require(w is not None, "no design found")
    gdd = GddBaseBlocks(
        m=w["m"], group_type=[(3, u)], groups=w["groups"],
        base_blocks=[tuple(tuple(c) for c in b) for b in w["base_blocks"]],
    )
    gdd.validate()
    n = 3 * u
    _require(rep["best_size"] == len(gdd.base_blocks) == (n * (n - 1) // 2 - 3 * u) * m // 3, "block count")
    if op.meta["strategy"] == "exact_cover":
        _require(rep["proven_optimal"], "exact cover not proven")


def _frontier(op: Op, out: Outcome) -> str:
    if out.error_type == "RecursionError":
        return KNOWN_DEFECT
    _emit_json(op, out)
    return OK


CHECKS = {
    "emit_json": _emit_json,
    "emit_matrix": _emit_matrix,
    "build": _build,
    "catalog": _catalog,
    "verify": _verify,
    "search_optimal": _search_optimal,
    "search_budget": _search_budget,
    "search_equi": _search_equi,
    "search_tight": _search_tight,
    "search_gdd": _search_gdd,
    "frontier": _frontier,
}


def check(op: Op, out: Outcome) -> tuple[str, str]:
    """(status, problem) of one operation; status is ok, failed or known_defect.

    The frontier commands of ``construct nxm`` die with RecursionError while
    the exact-cover search recurses once per chosen row; that outcome is the
    known recursion-limit defect, reported on its own.
    """
    try:
        status = CHECKS[op.check](op, out)
    except Exception as exc:  # any crash of a check is a failed operation
        return FAILED, f"{type(exc).__name__}: {exc}"
    return status or OK, ""


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def _result_text(res) -> str:
    m = res.code.params.m
    return json.dumps({
        "branch": res.branch,
        "claimed_size": res.claimed_size,
        "claimed_leave": sorted(res.claimed_leave) if res.claimed_leave is not None else None,
        "params": list(vars(res.code.params).values()),
        "codewords": sorted(least_translate(cw, m) for cw in res.code.codewords),
    })


def digest(op: Op, out: Outcome) -> str:
    """sha256 of what the user sees: exit code and output, or the exception.

    Search reports drop ``elapsed_ms``, the one field that reads the clock;
    library results are hashed in canonical form.
    """
    if out.error is not None:
        text = f"error {out.error_type}"
    elif not op.is_cli:
        text = _result_text(out.result)
    elif op.argv[0] == "search" and out.exit_code == 0:
        rep = json.loads(out.stdout)
        rep.pop("elapsed_ms", None)
        text = f"{out.exit_code}\n{json.dumps(rep, sort_keys=True)}"
    else:
        text = f"{out.exit_code}\n{out.stdout}"
    return hashlib.sha256(text.encode()).hexdigest()
