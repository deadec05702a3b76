"""Constructions for optimal codes; every public result is verified once.

Private builders only return a Code.  Each public family verifies the code
it returns once and asserts its claimed size (and, for 1-D codes, its
claimed difference leave); internal stages are not verified on their own.
The optimal families claim the exact size from `bounds` (psi_e_exact or
phi_exact) and build in the class it names, so no residue rule is written
twice; a family rejects the classes it has no code for by that name.
The final code holds every stage's codewords scaled by a power of 4, and
scaling maps differences injectively, so a faulty stage fails that check.
A mismatch raises VerificationFailure rather than repairing anything
silently, so transcription slips cannot leak out as codes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import me_prime, phi_exact, psi_e_exact
from .core import (
    Code,
    CodeParams,
    Codeword,
    SearchExhausted,
    UnsupportedParameterError,
    VerificationFailure,
    make_codeword,
)
from .search import (
    GddBaseBlocks,
    SearchConfig,
    _triple,
    equi_search,
    gdd_search,
    tight_search,
)
from .verify import difference_leave, structural_facts, verify_code


@dataclass(frozen=True)
class ConstructionResult:
    code: Code
    claimed_size: int
    claimed_leave: frozenset[int] | None
    branch: str
    verified: bool


def _finalize(code, claimed_size, claimed_leave, branch) -> ConstructionResult:
    report = verify_code(code)
    if not report.passed:
        raise VerificationFailure(
            f"{branch}: correlation check failed "
            f"(auto_ok={report.auto_ok}, cross_ok={report.cross_ok})",
            report.witnesses,
        )
    if code.size() != claimed_size:
        raise VerificationFailure(
            f"{branch}: built {code.size()} codewords, claimed {claimed_size}"
        )
    leave = None
    if claimed_leave is not None:
        leave = frozenset(claimed_leave)
        actual = difference_leave(code)
        if actual != leave:
            raise VerificationFailure(
                f"{branch}: difference leave mismatch; "
                f"missing={sorted(leave - actual)}, extra={sorted(actual - leave)}"
            )
    return ConstructionResult(code, claimed_size, leave, branch, True)


def _odds(lo: int, hi: int) -> list[int]:
    start = lo if lo % 2 == 1 else lo + 1
    return list(range(start, hi + 1, 2))


def _one_row_code(m: int, generators) -> Code:
    return Code(CodeParams(1, m, 3, 2, 1), [_triple(m, a) for a in generators])


def _add(cws: list[Codeword], m: int, *cells) -> None:
    """Append the codeword of the given cells, slots reduced mod m."""
    cws.append(make_codeword((r, s % m) for r, s in cells))


# ---------------------------------------------------------------------------
# equi-difference 1-D families
# ---------------------------------------------------------------------------


def _equi_2mod4_code(m: int) -> Code:
    return _one_row_code(m, _odds(1, m // 2 - 2))


def equi_2mod4(m: int) -> ConstructionResult:
    """Optimal equi-difference code on Z_m for m = 2 (mod 4).

    Generators 1, 3, ..., m/2 - 2; the only uncovered difference is m/2.
    """
    if m % 4 != 2:
        raise UnsupportedParameterError(f"family needs m = 2 (mod 4), got {m}")
    return _finalize(_equi_2mod4_code(m), psi_e_exact(m).value, {m // 2}, "equi/2mod4")


def _g_regular_code(g: int) -> Code:
    gens = _odds(g + 1, 2 * g - 1) if g % 2 == 0 else _odds(g, 2 * g - 1)
    return _one_row_code(4 * g, gens)


def g_regular_4g(g: int) -> ConstructionResult:
    """g-regular equi-difference code on Z_{4g} with ceil(g/2) codewords.

    Generators are the odd integers in [g+1, 2g-1] (even g) or [g, 2g-1]
    (odd g); the order-g subgroup 4.[1, g-1] stays untouched for filling.
    """
    if g < 1:
        raise ValueError(f"need g >= 1, got {g}")
    leave = _quadrupled_leave(range(1, g), g)
    return _finalize(_g_regular_code(g), (g + 1) // 2, leave, "gregular/4g")


def _fill_code(outer: Code, inner: Code) -> Code:
    """The outer codewords plus the inner ones scaled by m/g."""
    m = outer.params.m
    w = m // inner.params.m
    scaled = [make_codeword(((0, (w * s) % m) for _, s in cw)) for cw in inner.codewords]
    lam = max(outer.params.lambda_a, inner.params.lambda_a)
    return Code(CodeParams(1, m, 3, lam, 1), list(outer.codewords) + scaled)


def fill_regular(outer: ConstructionResult, inner: ConstructionResult) -> ConstructionResult:
    """Fill the untouched subgroup of a g-regular code with a code on Z_g.

    Keeps the outer codewords and adds the inner ones scaled by m/g; the
    leave is the outer leave outside the subgroup plus the scaled inner
    leave.
    """
    if not (outer.verified and inner.verified):
        raise ValueError("filling requires verified inputs")
    m = outer.code.params.m
    g = inner.code.params.m
    if g >= m or m % g != 0:
        raise ValueError(f"inner length {g} must properly divide outer length {m}")
    outer_facts = structural_facts(outer.code)
    inner_facts = structural_facts(inner.code)
    if g not in outer_facts.regular_subgroups:
        raise ValueError(f"outer code is not {g}-regular")
    if not (outer_facts.is_equi_difference and inner_facts.is_equi_difference):
        raise ValueError("filling requires equi-difference inputs")
    w = m // g
    subgroup = {w * t for t in range(1, g)}
    leave = (set(outer_facts.difference_leave) - subgroup) | {
        (w * d) % m for d in inner_facts.difference_leave
    }
    size = outer.code.size() + inner.code.size()
    return _finalize(_fill_code(outer.code, inner.code), size, leave, f"fill/{g}regular")


def _quadruple_code(code: Code) -> Code:
    """The g-regular code on Z_{4g} filled with a code on Z_g."""
    return _fill_code(_g_regular_code(code.params.m), code)


def _tower(code: Code, s: int) -> Code:
    """Quadruple a code s times: Z_g grows to Z_{4^s g}."""
    for _ in range(s):
        code = _quadruple_code(code)
    return code


def quadruple(inner: ConstructionResult) -> ConstructionResult:
    """Blow an equi-difference code on Z_g up to Z_{4g}.

    The carrier is the g-regular family on Z_{4g}; adds ceil(g/2) codewords
    and turns the leave L into 4.L plus two odd intervals.
    """
    if not inner.verified:
        raise ValueError("quadrupling requires a verified input")
    inner_facts = structural_facts(inner.code)
    if not inner_facts.is_equi_difference:
        raise ValueError("quadrupling requires an equi-difference input")
    g = inner.code.params.m
    leave = _quadrupled_leave(inner_facts.difference_leave, g)
    size = (g + 1) // 2 + inner.code.size()
    return _finalize(_quadruple_code(inner.code), size, leave, "quadruple")


def _quadrupled_leave(leave, g: int, s: int = 1) -> set[int]:
    """The leave on Z_{4^s g} of s quadruplings of a code on Z_g with this leave.

    One quadrupling fills the g-regular code on Z_{4g} with the code on Z_g:
    the leave L becomes 4.L plus the odd residues below g and above 3g.
    """
    out = set(leave)
    for _ in range(s):
        out = {4 * d for d in out}.union(_odds(1, g - 1), _odds(3 * g + 1, 4 * g - 1))
        g *= 4
    return out


STANDARD = "standard"
HALF_FREE = "half_free"


def _power4_code(s: int, r: int, variant: str) -> Code:
    """The tower over the 2 (mod 4) code on Z_r.

    The half-free variant swaps {0, 3r/2, 3r} for {0, r, 2r} after the
    first quadrupling.
    """
    code = _equi_2mod4_code(r)
    if variant == HALF_FREE:
        code = _quadruple_code(code)
        code.codewords.remove(_triple(4 * r, 3 * r // 2))
        code.codewords.append(_triple(4 * r, r))
        s -= 1
    return _tower(code, s)


def equi_power4(s: int, r: int, variant: str = STANDARD) -> ConstructionResult:
    """Optimal equi-difference code on Z_{4^s r} for r = 2 (mod 4).

    The standard variant leaves the half period uncovered; the half-free
    variant swaps one codeword at the first quadrupling stage so the half
    period is used and {3r/2, 5r/2} (scaled) is left instead.
    """
    if r % 4 != 2 or r < 2:
        raise UnsupportedParameterError(f"family needs r = 2 (mod 4), got r={r}")
    if variant not in (STANDARD, HALF_FREE):
        raise UnsupportedParameterError(f"unknown variant {variant!r}")
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    if variant == HALF_FREE and s < 1:
        raise UnsupportedParameterError(f"variant {variant} needs s >= 1, got s={s}")
    code = _power4_code(s, r, variant)
    leave = {r // 2}  # the leave of the 2 (mod 4) base on Z_r
    if variant == HALF_FREE:
        leave = _quadrupled_leave(leave, r) - {2 * r} | {3 * r // 2, 5 * r // 2}
        r, s = 4 * r, s - 1
    leave = _quadrupled_leave(leave, r, s)
    return _finalize(code, psi_e_exact(code.params.m).value, leave, f"power4/{variant}")


def tight_derived(r: int, s: int = 0) -> ConstructionResult:
    """Optimal equi-difference code on Z_{4^s r} grown from a tight base.

    r = 1,5 (mod 12) admissible: the tight partition itself (empty leave at
    s = 0).  r = 3 (mod 12) with r/3 admissible: the tight partition minus
    its third-period codeword (leave {r/3, 2r/3} at s = 0).
    """
    if r < 1 or r % 2 == 0:
        raise UnsupportedParameterError(f"family needs odd r >= 1, got {r}")
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    base, branch = _tight_derived_base(r)
    leave = {r // 3, 2 * r // 3} if branch == "psi_e/tight_3mod12" else set()
    code = _tower(base, s)
    leave = _quadrupled_leave(leave, r, s)
    branch = "tight_derived/" + branch.removeprefix("psi_e/tight_")
    return _finalize(code, psi_e_exact(code.params.m).value, leave, branch)


def _tight_derived_base(r: int) -> tuple[Code, str]:
    """The base on Z_r of `tight_derived`, with the tight class `psi_e_exact` names for r."""
    branch = psi_e_exact(r).branch
    if branch not in ("psi_e/tight_1or5mod12", "psi_e/tight_3mod12"):
        raise UnsupportedParameterError(
            f"r={r} is in class {branch}, outside both tight-derived branches"
        )
    code = _tight_base(r)
    if branch == "psi_e/tight_3mod12":
        code.codewords.remove(_triple(r, r // 3))
    return code, branch


def _tight_base(r: int) -> Code:
    """Tight partition of Z_r minus zero, rebuilt with lambda_a = 2 headers."""
    outcome = tight_search(r)
    if outcome.best is None:
        if outcome.proven_optimal:
            raise UnsupportedParameterError(f"no tight partition of Z_{r} exists")
        raise SearchExhausted(f"tight partition search for Z_{r} ran out of budget")
    return Code(CodeParams(1, r, 3, 2, 1), list(outcome.best.codewords))


def prime_derived(p: int, s: int = 0) -> ConstructionResult:
    """Optimal equi-difference code on Z_{4^s p} for prime p >= 5.

    The base is a largest equi-difference conflict-avoiding code of length
    p found by search; since 3 does not divide p it is already a
    (p,3,2,1) code, and quadrupling lifts it.  At s >= 1 the claimed leave
    is the base's measured leave carried through s quadruplings.
    """
    me_prime(p)  # validates primality and p >= 5
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    outcome = equi_search(p, lambda_a=3)
    if not outcome.proven_optimal:
        raise SearchExhausted(f"equi-difference search for Z_{p} ran out of budget")
    base = Code(CodeParams(1, p, 3, 2, 1), list(outcome.best.codewords))
    code = _tower(base, s)
    leave = _quadrupled_leave(difference_leave(base), p, s) if s else None
    return _finalize(code, psi_e_exact(code.params.m).value, leave, "prime_derived")


# ---------------------------------------------------------------------------
# explicit codes
# ---------------------------------------------------------------------------

_SLOTS_1D48 = [
    (0, 3, 6), (0, 7, 14), (0, 11, 22), (0, 15, 30), (0, 19, 38),
    (0, 23, 46), (0, 1, 17), (0, 5, 9), (0, 13, 21), (0, 12, 24),
]

_CELLS_3X8 = [
    ((0, 0), (0, 2), (0, 4)), ((1, 0), (1, 2), (1, 4)), ((2, 0), (2, 2), (2, 4)),
    ((0, 0), (0, 1), (1, 6)), ((0, 0), (0, 3), (1, 7)),
    ((1, 0), (1, 1), (2, 5)), ((1, 0), (1, 3), (2, 3)),
    ((0, 0), (2, 5), (2, 6)), ((0, 0), (2, 4), (2, 7)),
    ((0, 0), (1, 2), (2, 0)), ((0, 0), (1, 3), (2, 2)),
    ((0, 0), (1, 0), (2, 1)), ((0, 0), (1, 1), (2, 3)),
]

_PAIRS_3X4 = [(0, 0), (1, 3), (3, 2)]

_GENS_3X20 = [4, 5, 7, 9]
_MIDDLE_3X20 = [
    ((0, 0), (0, 1), (1, 18)), ((0, 0), (0, 3), (1, 19)),
    ((1, 0), (1, 1), (2, 18)), ((1, 0), (1, 3), (2, 19)),
    ((0, 0), (2, 17), (2, 18)), ((0, 0), (2, 16), (2, 19)),
]
_PAIRS_3X20 = [
    (0, 1), (1, 3), (2, 2), (3, 11), (4, 13), (5, 10), (6, 9), (7, 14),
    (8, 12), (9, 15), (10, 0), (11, 4), (12, 7), (13, 5), (14, 8), (15, 6),
]

_GENS_3X32 = [8, 9, 11, 13, 15]
_MIDDLE_3X32 = [
    ((0, 0), (0, 12), (1, 25)), ((0, 0), (0, 1), (1, 6)), ((0, 0), (0, 3), (1, 7)),
    ((0, 0), (0, 5), (1, 8)), ((0, 0), (0, 7), (1, 9)), ((0, 0), (0, 4), (1, 31)),
    ((1, 0), (1, 1), (2, 14)), ((1, 0), (1, 12), (2, 23)), ((1, 0), (1, 3), (2, 20)),
    ((1, 0), (1, 5), (2, 21)), ((1, 0), (1, 7), (2, 22)), ((1, 0), (1, 4), (2, 31)),
    ((0, 0), (2, 9), (2, 21)), ((0, 0), (2, 0), (2, 1)), ((0, 0), (2, 7), (2, 10)),
    ((0, 0), (2, 6), (2, 11)), ((0, 0), (2, 5), (2, 12)), ((0, 0), (2, 22), (2, 26)),
]
_PAIRS_3X32 = [
    (0, 8), (1, 4), (10, 28), (19, 31), (21, 30), (22, 29), (12, 14),
    (14, 20), (15, 19), (16, 16), (17, 18), (18, 23), (11, 3), (20, 13),
    (23, 17), (24, 2), (26, 24), (28, 15), (29, 25), (30, 27),
]

_GENS_3X52 = [4, 12, 16, 13, 15, 17, 19, 21, 23, 25]
_PAIRS_3X52 = [
    (0, 12), (2, 6), (3, 8), (4, 14), (5, 5), (6, 7), (11, 13), (1, 16),
    (14, 22), (16, 19), (18, 24), (7, 28), (12, 25), (13, 27), (22, 29),
    (8, 30), (9, 32), (10, 34), (20, 31), (24, 33), (15, 35), (17, 36),
    (19, 37), (21, 38), (23, 39), (33, 15), (34, 18), (27, 0), (28, 2),
    (29, 4), (30, 10), (32, 11), (25, 1), (31, 9), (26, 3), (35, 21),
    (36, 17), (37, 20), (38, 23), (39, 26),
]

EXPLICIT_IDS = ("1d48", "3x4", "3x8", "3x20", "3x32", "3x52")


def _place_on_rows(sub: Code) -> list[Codeword]:
    """Three row-relabeled copies of a 1-D subcode."""
    return [make_codeword((x, s) for _, s in cw) for x in range(3) for cw in sub.codewords]


def _explicit(code_id: str) -> Code:
    """Verbatim transcription of an individually listed code."""
    if code_id == "1d48":
        cws = [make_codeword((0, s) for s in slots) for slots in _SLOTS_1D48]
        return Code(CodeParams(1, 48, 3, 2, 1), cws)
    if code_id == "3x4":
        cws = [make_codeword(((x, 0), (x, 1), (x, 2))) for x in range(3)]
        cws += [make_codeword(((0, 0), (1, a), (2, b))) for a, b in _PAIRS_3X4]
    elif code_id == "3x8":
        cws = [make_codeword(cells) for cells in _CELLS_3X8]
    elif code_id == "3x20":
        cws = _place_on_rows(_one_row_code(20, _GENS_3X20))
        cws += [make_codeword(cells) for cells in _MIDDLE_3X20]
        cws += [make_codeword(((0, 0), (1, a), (2, b))) for a, b in _PAIRS_3X20]
    elif code_id == "3x32":
        cws = _place_on_rows(_one_row_code(32, _GENS_3X32))
        cws += [make_codeword(cells) for cells in _MIDDLE_3X32]
        cws += [make_codeword(((0, 0), (1, a), (2, b))) for a, b in _PAIRS_3X32]
    elif code_id == "3x52":
        cws = _place_on_rows(_one_row_code(52, _GENS_3X52))
        cws += [make_codeword(((0, 0), (0, 1 + 2 * i), (1, 46 + i))) for i in range(6)]
        cws += [make_codeword(((1, 0), (1, 1 + 2 * i), (2, 46 + i))) for i in range(6)]
        cws += [make_codeword(((0, 0), (2, 45 - i), (2, 46 + i))) for i in range(6)]
        cws += [make_codeword(((0, 0), (1, a), (2, b))) for a, b in _PAIRS_3X52]
    else:
        raise UnsupportedParameterError(f"unknown explicit code id {code_id!r}")
    return Code(CodeParams(3, int(code_id[2:]), 3, 2, 1), cws)


def explicit_code(code_id: str) -> ConstructionResult:
    """Verbatim transcriptions of the individually listed codes."""
    code = _explicit(code_id)
    size = phi_exact(code.params.n, code.params.m).value
    return _finalize(code, size, None, f"explicit/{code_id}")


# ---------------------------------------------------------------------------
# two-row codes
# ---------------------------------------------------------------------------


def ooc_2xm(m: int) -> ConstructionResult:
    """Optimal two-row code in the classes of phi_exact(2, m): 3m/4 codewords (2 at m = 4)."""
    phi = phi_exact(2, m)
    if phi.branch not in ("phi/two_rows_m4", "phi/two_rows_0mod4"):
        raise UnsupportedParameterError(
            f"m={m} is in class {phi.branch}, outside the two-row family"
        )
    cws: list[Codeword] = []
    if phi.branch == "phi/two_rows_m4":
        cws += [make_codeword(((x, 0), (x, 1), (x, 2))) for x in range(2)]
        branch = "2xm/m4"
    elif m % 8 == 0:  # a split of the construction, not a class of the bound
        for i in _odds(3, m // 4 - 1) + [m // 2 - 1]:
            _add(cws, m, (0, 0), (0, i), (0, 2 * i))
        for i in _odds(m // 4 + 1, m // 2 - 1):
            _add(cws, m, (1, 0), (1, i), (1, 2 * i))
        for i in range(m // 8, m // 4 - 1):
            _add(cws, m, (0, 0), (0, 1 + 2 * i), (1, m // 4 - 1 + i))
        for i in range(m // 8):
            _add(cws, m, (1, 0), (1, 1 + 2 * i), (0, 3 * m // 4 + 2 + i))
        for i in range(m // 8):
            _add(cws, m, (0, 0), (0, 4 + 4 * i), (1, 3 * m // 4 + 1 + 2 * i))
        for i in range(m // 8):
            _add(cws, m, (1, 0), (1, 4 + 4 * i), (0, m // 4 + 4 + 2 * i))
        _add(cws, m, (0, 0), (0, 1), (1, 3 * m // 4 - 1))
        branch = "2xm/0mod8"
    else:
        for i in _odds(m // 4 + 2, m // 2 - 3):
            _add(cws, m, (0, 0), (0, i), (0, 2 * i))
        for i in _odds(1, m // 4):
            _add(cws, m, (1, 0), (1, i), (1, 2 * i))
        for i in range((m - 4) // 8 + 1):
            if i == 1:
                continue
            _add(cws, m, (0, 0), (0, 1 + 2 * i), (1, m // 4 + i))
        for i in range((m + 4) // 8, m // 4):
            _add(cws, m, (1, 0), (1, 1 + 2 * i), (0, 3 * m // 4 + 1 + i))
        for i in range(1, (m - 12) // 8 + 1):
            _add(cws, m, (0, 0), (0, 4 + 4 * i), (1, 3 * m // 4 + 1 + 2 * i))
        for i in range((m - 12) // 8 + 1):
            _add(cws, m, (1, 0), (1, 4 + 4 * i), (0, m // 4 + 2 + 2 * i))
        _add(cws, m, (0, 0), (0, m // 2 - 1), (1, m // 4 - 2))
        _add(cws, m, (0, 0), (0, 3), (1, 3 * m // 4))
        _add(cws, m, (0, 0), (0, m // 2), (1, 3 * m // 4 + 1))
        _add(cws, m, (0, 0), (0, 2), (0, 4))
        branch = "2xm/4mod8"
    return _finalize(Code(CodeParams(2, m, 3, 2, 1), cws), phi.value, None, branch)


# ---------------------------------------------------------------------------
# three-row codes
# ---------------------------------------------------------------------------


def ooc_3xm(m: int) -> ConstructionResult:
    """Optimal three-row code in every class where `phi_exact(3, m)` is exact.

    Explicit lists for m in {4, 8, 20, 32, 52}; general families for
    m = 8 (mod 16), m = 32 (mod 64), and admissible m = 4, 20 (mod 48).
    """
    phi = phi_exact(3, m)
    code, branch = _three_row(3, m, phi.branch)
    return _finalize(code, phi.value, None, branch)


def _three_row(n: int, m: int, phi_branch: str) -> tuple[Code, str]:
    """The three-row code on Z_m, unverified, with its branch, in phi_exact(n, m)'s class."""
    if phi_branch not in _THREE_ROW_BODIES:
        raise UnsupportedParameterError(
            f"n={n}, m={m} is in class {phi_branch}, outside every three-row family"
        )
    if m in (4, 8, 20, 32, 52):
        code_id = f"3x{m}"
        return _explicit(code_id), f"explicit/{code_id}"
    body = _THREE_ROW_BODIES[phi_branch]
    branch = "3xm/" + phi_branch.removeprefix("phi/rows0mod3_")
    return Code(CodeParams(3, m, 3, 2, 1), body(m)), branch


def _ooc_3xm_8mod16(m: int) -> list[Codeword]:
    cws = _place_on_rows(_power4_code(1, m // 4, HALF_FREE))
    for i in range(m // 8):
        _add(cws, m, (0, 0), (0, 1 + 2 * i), (1, 7 * m // 8 + i))
    for i in range(m // 8):
        _add(cws, m, (1, 0), (1, 1 + 2 * i), (2, m // 2 + 2 + i))
    for i in range(m // 8 - 1):
        _add(cws, m, (0, 0), (2, 7 * m // 8 - 3 - i), (2, 7 * m // 8 + i))
    _add(cws, m, (0, 0), (0, 3 * m // 8), (1, 3 * m // 4 - 1))
    _add(cws, m, (1, 0), (1, 3 * m // 8), (2, 3 * m // 4))
    _add(cws, m, (0, 0), (2, m - 1), (2, 0))
    _add(cws, m, (0, 0), (2, 7 * m // 8 - 2), (2, m // 4 - 2))
    for i in range(3 * m // 8 - 1):
        _add(cws, m, (0, 0), (1, i), (2, 1 + 2 * i))
    for i in range(3 * m // 8 - 1):
        if i == m // 8 - 2:
            continue
        _add(cws, m, (0, 0), (1, 3 * m // 8 + i), (2, 2 + 2 * i))
    _add(cws, m, (0, 0), (1, m // 2 - 2), (2, 7 * m // 8 - 1))
    return cws


def _ooc_3xm_32mod64(m: int) -> list[Codeword]:
    cws = _place_on_rows(_power4_code(2, m // 16, HALF_FREE))
    for i in range(m // 8):
        _add(cws, m, (0, 0), (0, 1 + 2 * i), (1, m // 8 + 2 + i))
    for i in range(m // 32):
        _add(cws, m, (0, 0), (0, 4 + 8 * i), (1, 7 * m // 8 + 3 + 4 * i))
    for i in range(m // 8 - 1):
        _add(cws, m, (1, 0), (1, 3 + 2 * i), (2, 5 * m // 8 + i))
    for i in range(m // 32):
        _add(cws, m, (1, 0), (1, 4 + 8 * i), (2, 7 * m // 8 + 3 + 4 * i))
    for i in range(m // 8 - 1):
        _add(cws, m, (0, 0), (2, m // 4 - 1 - i), (2, m // 4 + 2 + i))
    for i in range(m // 32):
        _add(cws, m, (0, 0), (2, 3 * m // 4 - 2 - 4 * i), (2, 3 * m // 4 + 2 + 4 * i))
    _add(cws, m, (0, 0), (0, 3 * m // 8), (1, 13 * m // 16 - 1))
    _add(cws, m, (1, 0), (1, 1), (2, 7 * m // 16))
    _add(cws, m, (1, 0), (1, 3 * m // 8), (2, 3 * m // 4 - 1))
    _add(cws, m, (0, 0), (2, m // 4 + 1), (2, 5 * m // 8 + 1))
    _add(cws, m, (0, 0), (2, m // 16 - 2), (2, m // 16 - 1))
    for i in range(m // 16):
        if i == m // 16 - 2:
            continue
        _add(cws, m, (0, 0), (1, 3 * m // 4 + 2 * i), (2, 3 * m // 4 - 3 - 2 * i))
    for i in range(m // 16):
        _add(cws, m, (0, 0), (1, 7 * m // 8 + 2 * i), (2, 5 * m // 8 + 4 * i))
    for i in range(m // 16):
        if i == (m - 32) // 64:
            continue
        _add(cws, m, (0, 0), (1, 3 * m // 4 + 1 + 4 * i), (2, 3 * m // 4 - 1 + 2 * i))
    for i in range(m // 8 - 1):
        _add(cws, m, (0, 0), (1, m // 4 + 2 + 2 * i), (2, 3 * m // 8 + 1 + i))
    for i in range(m // 8 - 2):
        if i == 3 * m // 32 - 2:
            continue
        _add(cws, m, (0, 0), (1, m // 4 + 3 + 2 * i), (2, m // 2 + 1 + i))
    for i in range(m // 8 - 2):
        if i in (m // 16 - 3, m // 16 - 2):
            continue
        _add(cws, m, (0, 0), (1, m // 2 + 4 + 2 * i), (2, 1 + i))
    for i in range(m // 8 - 3):
        _add(cws, m, (0, 0), (1, m // 2 + 1 + 2 * i), (2, 7 * m // 8 - 1 + i))
    _add(cws, m, (0, 0), (1, 0), (2, 0))
    _add(cws, m, (0, 0), (1, 1), (2, m // 4))
    _add(cws, m, (0, 0), (1, m // 2 - 1), (2, m - 3))
    _add(cws, m, (0, 0), (1, m // 2), (2, m // 8 - 1))
    _add(cws, m, (0, 0), (1, m // 2 + 2), (2, m // 8))
    _add(cws, m, (0, 0), (1, 3 * m // 4 - 5), (2, m // 2))
    _add(cws, m, (0, 0), (1, 3 * m // 4 - 3), (2, m - 2))
    _add(cws, m, (0, 0), (1, 3 * m // 4 - 1), (2, m - 1))
    _add(cws, m, (0, 0), (1, 7 * m // 8 - 4), (2, m - 4))
    _add(cws, m, (0, 0), (1, 5 * m // 8 - 2), (2, 25 * m // 32 - 2))
    _add(cws, m, (0, 0), (1, 5 * m // 8), (2, 19 * m // 32 - 1))
    return cws


def _ooc_3xm_4or20mod48(m: int) -> list[Codeword]:
    cws = _place_on_rows(_tower(_tight_derived_base(m // 4)[0], 1))
    for i in range((m - 20) // 8 + 1):
        _add(cws, m, (0, 0), (0, 1 + 2 * i), (1, (7 * m + 4) // 8 + i))
    for i in range((m - 12) // 8 + 1):
        _add(cws, m, (1, 0), (1, 1 + 2 * i), (2, m // 2 + i))
    for i in range((m - 12) // 8 + 1):
        _add(cws, m, (0, 0), (2, (7 * m - 12) // 8 - i), (2, (7 * m - 4) // 8 + i))
    _add(cws, m, (0, 0), (0, m // 4 - 2), (1, (11 * m - 12) // 16))
    _add(cws, m, (0, 0), (1, (3 * m - 4) // 8), (2, (m - 4) // 16))
    _add(cws, m, (0, 0), (1, (9 * m + 12) // 16), (2, m // 2 - 1))
    _add(cws, m, (0, 0), (1, (3 * m + 4) // 8), (2, (3 * m + 4) // 16))
    _add(cws, m, (0, 0), (1, 3 * m // 4 + 1), (2, 2))
    _add(cws, m, (0, 0), (1, m - 1), (2, 3 * m // 4 - 3))
    _add(cws, m, (0, 0), (1, m // 4), (2, m - 1))
    _add(cws, m, (0, 0), (1, m // 4 - 1), (2, m // 4 - 3))
    _add(cws, m, (0, 0), (1, 3 * m // 4), (2, 0))
    _add(cws, m, (0, 0), (1, (3 * m + 12) // 8), (2, (m + 12) // 8))
    _add(cws, m, (0, 0), (1, (5 * m - 4) // 8), (2, m // 4 - 1))
    _add(cws, m, (0, 0), (1, (5 * m + 4) // 8), (2, m // 4 + 1))
    _add(cws, m, (0, 0), (1, 3 * m // 4 - 1), (2, (5 * m - 20) // 8))
    _add(cws, m, (0, 0), (1, m // 2 + 1), (2, (3 * m + 4) // 8))
    _add(cws, m, (0, 0), (1, m // 2), (2, m // 2))
    _add(cws, m, (0, 0), (1, m // 2 - 1), (2, m // 2 - 2))
    t_set = set(range(3 * (m - 12) // 8 + 1)) - {
        (m - 20) // 16,
        (m - 28) // 8,
        (m - 20) // 8,
        (m - 12) // 8,
        (3 * m - 28) // 16,
        m // 4 - 3,
        m // 4 - 2,
        (5 * m - 52) // 16,
    }
    if m % 96 in (4, 68):
        skip = {(3 * m - 12) // 32, m // 4 - 1, m // 4}
        for i in range((3 * m - 12) // 8 + 1):
            if i in skip:
                continue
            _add(cws, m, (0, 0), (1, i), (2, 1 + 2 * i))
        _add(cws, m, (0, 0), (1, (3 * m - 12) // 32), (2, 3 * m // 4 - 1))
        _add(cws, m, (0, 0), (1, (13 * m + 12) // 32), (2, m // 2 + 1))
        for i in sorted(t_set - {(m - 68) // 32}):
            _add(cws, m, (0, 0), (1, (3 * m + 20) // 8 + i), (2, 4 + 2 * i))
    else:
        skip = {(m - 20) // 32, m // 4 - 1, m // 4}
        for i in range((3 * m - 12) // 8 + 1):
            if i in skip:
                continue
            _add(cws, m, (0, 0), (1, i), (2, 1 + 2 * i))
        _add(cws, m, (0, 0), (1, (15 * m + 20) // 32), (2, m // 2 + 1))
        _add(cws, m, (0, 0), (1, (m - 20) // 32), (2, 3 * m // 4 - 1))
        for i in sorted(t_set - {(3 * m - 60) // 32}):
            _add(cws, m, (0, 0), (1, (3 * m + 20) // 8 + i), (2, 4 + 2 * i))
    return cws


# phi_exact class -> the general three-row family that meets it (m = 4: explicit)
_THREE_ROW_BODIES = {
    "phi/three_rows_m4": None,
    "phi/rows0mod3_8mod16": _ooc_3xm_8mod16,
    "phi/rows0mod3_32mod64": _ooc_3xm_32mod64,
    "phi/rows0mod3_4or20mod48": _ooc_3xm_4or20mod48,
}


# ---------------------------------------------------------------------------
# recursive expansion through cyclic group divisible designs
# ---------------------------------------------------------------------------


def _expand_code(gdd: GddBaseBlocks, inputs: list[Code]) -> Code:
    """The base blocks plus, on each group, the input code with as many rows."""
    by_rows = {code.params.n: code for code in inputs}
    cws = [make_codeword(b) for b in gdd.base_blocks]
    for rows in gdd.groups:
        try:
            code = by_rows[len(rows)]
        except KeyError:
            raise ValueError(f"no input code with {len(rows)} rows for group {rows}")
        cws += [make_codeword((rows[r], s) for r, s in cw) for cw in code.codewords]
    lam = max((code.params.lambda_a for code in inputs), default=2)
    return Code(CodeParams(gdd.n_rows(), gdd.m, 3, lam, 1), cws)


def expand_gdd(gdd: GddBaseBlocks, inputs: list[ConstructionResult]) -> ConstructionResult:
    """Union of GDD base blocks with a relabeled input code per group.

    Base blocks contribute each cross-group mixed difference exactly once;
    the filled copies keep all differences inside their own row groups, so
    the union stays correlation-clean.
    """
    gdd.validate()
    for res in inputs:
        if not res.verified:
            raise ValueError("expansion requires verified input codes")
        if res.code.params.m != gdd.m:
            raise ValueError(
                f"input on Z_{res.code.params.m} does not match the design's Z_{gdd.m}"
            )
    code = _expand_code(gdd, [res.code for res in inputs])
    sizes = {res.code.params.n: res.code.size() for res in inputs}
    total = len(gdd.base_blocks) + sum(sizes[len(rows)] for rows in gdd.groups)
    return _finalize(code, total, None, "gdd/expand")


def compose_0mod3(n: int, m: int, config: SearchConfig | None = None) -> ConstructionResult:
    """Optimal (n x m) code in the `rows0mod3_*` classes of `phi_exact`.

    n = 3 delegates to the three-row catalogue.  For n >= 12 the design of
    type (3m)^(n/3) is searched only at m0 = m & -m (4, 8 or 32 in every
    exact class), lifted by the odd factor m / m0, and its groups are filled
    with the three-row code on Z_m, reaching Phi(n, m) = n(nm + 2 psi)/6
    codewords.  `config` drives the search at m0.
    """
    if n < 3:  # phi_exact takes n >= 1 only
        raise UnsupportedParameterError(f"family needs n >= 3, got n={n}")
    if n == 3:
        if config is not None:
            raise UnsupportedParameterError("n = 3 takes no search flags: it runs no search")
        return ooc_3xm(m)
    phi = phi_exact(n, m)
    inner = _three_row(n, m, phi.branch)[0]
    u, m0 = n // 3, m & -m
    outcome = gdd_search(u, m0, config or SearchConfig())
    if outcome.best is None:
        raise SearchExhausted(f"no (3m)^{u} design witness found for m={m0} in budget")
    # _finalize is the one check of the lift: the correlation check rules out
    # a class covered twice, the exact size a class left uncovered
    code = _expand_code(outcome.best.lift(m // m0), [inner])
    return _finalize(code, phi.value, None, "nxm/0mod3")
