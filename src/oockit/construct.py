"""Constructions for optimal codes; every public result is verified once.

Private builders check nothing: each makes a codeword once, as the sorted
tuple of its cells (`_codeword`, `_add`, `_place_on_rows`).  Each public
family verifies its code once, cells included, and asserts its claimed size
(and a 1-D code's leave, read off that verification's class keys).
The optimal families claim the exact size from `bounds` (psi_e_exact or
phi_exact).  The two-row, three-row and nxm families build through one
table, `_PHI_BODIES`, from the class `phi_exact` names to the rows and body
that meet it (`catalog` reads it too), and reject a class with no body by
that name; the tight-derived family dispatches on `psi_e_exact`'s class;
`equi_2mod4` and `equi_power4` test m and r mod 4 themselves, and
`prime_derived` tests primality through `me_prime`.
The final code holds every stage's codewords scaled by a power of 4, and
scaling maps differences injectively, so a faulty stage fails that check.
A 1-D tower is a generator list and a claimed leave until then: `_equi(m)`
takes both from the base on Z_r, m = 4^s r, through s quadrupling steps
of `_tower`.  `_place_on_rows` makes the codeword {0, a, 2a} of each
generator a, once; quadrupling fills the g-regular carrier by `_fill`.
A mismatch raises VerificationFailure rather than repairing anything
silently, so transcription slips cannot leak out as codes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bounds import me_prime, phi_exact, pow4_decompose, psi_e_exact
from .core import (
    Code,
    CodeParams,
    Codeword,
    SearchExhausted,
    UnsupportedParameterError,
    VerificationFailure,
    make_codeword,
)
from .search import GddBaseBlocks, SearchConfig, _gdd_search
from .verify import difference_leave, structural_facts, verify_code


@dataclass(frozen=True)
class ConstructionResult:
    code: Code
    claimed_size: int
    claimed_leave: frozenset[int] | None
    branch: str
    verified: bool


def _finalize(code, claimed_size, claimed_leave, branch) -> ConstructionResult:
    """Verify the code once and assert its claimed size and leave.

    A one-row code's class keys from `verify_code` are its folded
    differences a = min(d, m - d), so the residues it covers are the keys
    and their negatives, and the leave is 1..m-1 less those.  A code the
    weight-3 pass returns no keys for is measured by `difference_leave`.
    """
    report, keys = verify_code(code, keys=True)
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
        if keys is None or code.params.n != 1:
            actual = difference_leave(code)
        else:
            m = code.params.m
            actual = frozenset(range(1, m)).difference(keys, map(m.__sub__, keys))
        if actual != leave:
            raise VerificationFailure(
                f"{branch}: difference leave mismatch; "
                f"missing={sorted(leave - actual)}, extra={sorted(actual - leave)}"
            )
    return ConstructionResult(code, claimed_size, leave, branch, True)


def _codeword(cells) -> Codeword:
    """The sorted tuple of these int cells, unchecked: `_finalize` checks every cell.

    Three cells are ordered by compare-and-swap, with no list built.
    """
    if len(cells) != 3:
        return tuple(sorted(cells))
    p, q, r = cells
    if p > q:
        p, q = q, p
    if q > r:
        q, r = r, q
        if p > q:
            p, q = q, p
    return p, q, r


def _odds(lo: int, hi: int) -> list[int]:
    start = lo if lo % 2 == 1 else lo + 1
    return list(range(start, hi + 1, 2))


def _place_on_rows(m: int, gens, rows) -> list[Codeword]:
    """The codeword {0, a, 2a} of Z_m for each generator a, on each of these rows.

    Written sorted as it is made: with b = 2a mod m and a in [1, m), the slots
    go 0, a, b when a < b and 0, b, a otherwise.  The codewords of row x
    share one (x, 0) tuple.
    """
    cws = []
    for x in rows:
        zero = (x, 0)
        cws += [
            (zero, (x, a), (x, b)) if a < (b := 2 * a % m) else (zero, (x, b), (x, a))
            for a in gens
        ]
    return cws


def _one_row_code(m: int, generators) -> Code:
    """The code on Z_m with one codeword {0, a, 2a} per generator a."""
    return Code(CodeParams(1, m, 3, 2, 1), _place_on_rows(m, generators, [0]))


def _add(cws: list[Codeword], m: int, a, b, c) -> None:
    """Append the codeword of the cells a, b, c, slots reduced mod m, sorted
    by compare-and-swap as `_codeword` sorts three cells; written out here,
    since the large families make most of their codewords through `_add`
    and a second call per codeword is a measurable part of their cost."""
    p, q, r = (a[0], a[1] % m), (b[0], b[1] % m), (c[0], c[1] % m)
    if p > q:
        p, q = q, p
    if q > r:
        q, r = r, q
        if p > q:
            p, q = q, p
    cws.append((p, q, r))


# ---------------------------------------------------------------------------
# equi-difference 1-D families
# ---------------------------------------------------------------------------


def _tower(gens: list[int], leave, g: int, s: int) -> tuple[list[int], set[int]]:
    """Quadruple the code on Z_g with these generators and leave s times.

    One quadrupling fills the g-regular carrier on Z_{4g}, generators the
    odd integers in [g, 2g-1], with the code on Z_g scaled by 4: the
    generators become the carrier's plus 4.gens, and the leave L becomes
    4.L plus the odd residues below g and above 3g.
    """
    leave = set(leave)
    for _ in range(s):
        gens = _odds(g, 2 * g - 1) + [4 * a for a in gens]
        leave = {4 * d for d in leave}.union(_odds(1, g - 1), _odds(3 * g + 1, 4 * g - 1))
        g *= 4
    return gens, leave


def equi_2mod4(m: int) -> ConstructionResult:
    """Optimal equi-difference code on Z_m for m = 2 (mod 4).

    Generators 1, 3, ..., m/2 - 2; the only uncovered difference is m/2.
    """
    if m % 4 != 2:
        raise UnsupportedParameterError(f"family needs m = 2 (mod 4), got {m}")
    gens, leave = _equi(m)
    return _finalize(_one_row_code(m, gens), psi_e_exact(m).value, leave, "equi/2mod4")


def g_regular_4g(g: int) -> ConstructionResult:
    """g-regular equi-difference code on Z_{4g} with ceil(g/2) codewords.

    One quadrupling of the empty code on Z_g (leave {1, ..., g-1}): the
    generators are the odd integers in [g, 2g-1], and the order-g subgroup
    4.[1, g-1] stays untouched for filling.
    """
    if g < 1:
        raise ValueError(f"need g >= 1, got {g}")
    gens, leave = _tower([], range(1, g), g, 1)
    return _finalize(_one_row_code(4 * g, gens), (g + 1) // 2, leave, "gregular/4g")


def _fill(outer, size, leave, inner, branch) -> ConstructionResult:
    """Fill the order-g subgroup of a g-regular code on Z_m with a code on Z_g.

    The caller claims the outer code's size and leave.  Adds the inner
    codewords scaled by w = m/g and claims both sizes summed, with the outer
    leave outside the subgroup plus the scaled inner leave.
    """
    if not inner.verified:
        raise ValueError("filling requires verified inputs")
    inner_facts = structural_facts(inner.code)
    if not inner_facts.is_equi_difference:
        raise ValueError("filling requires equi-difference inputs")
    m = outer.params.m
    w = m // inner.code.params.m
    scaled = [_codeword([(0, w * s) for _, s in cw]) for cw in inner.code.codewords]
    lam = max(outer.params.lambda_a, inner.code.params.lambda_a)
    code = Code(CodeParams(1, m, 3, lam, 1), list(outer.codewords) + scaled)
    leave = set(leave) - set(range(w, m, w)) | {w * d for d in inner_facts.difference_leave}
    return _finalize(code, size + inner.code.size(), leave, branch)


def fill_regular(outer: ConstructionResult, inner: ConstructionResult) -> ConstructionResult:
    """Fill the untouched subgroup of a g-regular code with a code on Z_g (`_fill`)."""
    if not outer.verified:
        raise ValueError("filling requires verified inputs")
    m, g = outer.code.params.m, inner.code.params.m
    if g >= m or m % g != 0:
        raise ValueError(f"inner length {g} must properly divide outer length {m}")
    facts = structural_facts(outer.code)
    if g not in facts.regular_subgroups:
        raise ValueError(f"outer code is not {g}-regular")
    if not facts.is_equi_difference:
        raise ValueError("filling requires equi-difference inputs")
    return _fill(outer.code, outer.code.size(), facts.difference_leave, inner, f"fill/{g}regular")


def quadruple(inner: ConstructionResult) -> ConstructionResult:
    """Blow an equi-difference code on Z_g up to Z_{4g}.

    Fills the g-regular carrier on Z_{4g}, the ceil(g/2) codewords of
    `g_regular_4g`, with the code (`_fill`); the leave L becomes 4.L plus two
    odd intervals.
    """
    g = inner.code.params.m
    carrier, leave = _tower([], range(1, g), g, 1)
    return _fill(_one_row_code(4 * g, carrier), (g + 1) // 2, leave, inner, "quadruple")


STANDARD = "standard"
HALF_FREE = "half_free"


def _equi(m: int) -> tuple[list[int], set[int]]:
    """Generators and leave of the optimal equi-difference code on Z_m.

    With m = 4^s r, 4 not dividing r, the base on Z_r is lifted s times by
    `_tower`.  At even r it has generators 1, 3, ..., r/2 - 2 and leave
    {r/2}; at odd r the generators are `_equi_generators(r)` and the leave
    is the residues that no generator a meets as +-a or +-2a.
    """
    s, r = pow4_decompose(m)
    if r % 2 == 0:
        gens, leave = _odds(1, r // 2 - 2), {r // 2}
    else:
        gens = _equi_generators(r)
        leave = set(range(1, r)) - {d % r for a in gens for d in (a, -a, 2 * a, -2 * a)}
    return _tower(gens, leave, r, s)


def _half_free(m: int) -> tuple[list[int], set[int]]:
    """`_equi(m)` with {0, 3m/8, 3m/4} swapped for {0, m/4, m/2}, m = 8 (mod 16)
    times a power of 4: the half period is used, {3m/8, 5m/8} left instead."""
    gens, leave = _equi(m)
    gens = [a for a in gens if a != 3 * m // 8] + [m // 4]
    return gens, leave - {m // 2} | {3 * m // 8, 5 * m // 8}


def equi_power4(s: int, r: int, variant: str = STANDARD) -> ConstructionResult:
    """Optimal equi-difference code on Z_{4^s r} for r = 2 (mod 4).

    The standard variant (`_equi`) leaves the half period uncovered; the
    half-free variant swaps {0, 3r/2, 3r} for {0, r, 2r} on Z_{4r}, so the
    half period is used and {3r/2, 5r/2} (scaled) is left instead.
    """
    if r % 4 != 2 or r < 2:
        raise UnsupportedParameterError(f"family needs r = 2 (mod 4), got r={r}")
    if variant not in (STANDARD, HALF_FREE):
        raise UnsupportedParameterError(f"unknown variant {variant!r}")
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    if variant == HALF_FREE and s < 1:
        raise UnsupportedParameterError(f"variant {variant} needs s >= 1, got s={s}")
    m = 4**s * r
    gens, leave = _half_free(m) if variant == HALF_FREE else _equi(m)
    return _finalize(_one_row_code(m, gens), psi_e_exact(m).value, leave, f"power4/{variant}")


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
    branch = psi_e_exact(r).branch
    if branch not in ("psi_e/tight_1or5mod12", "psi_e/tight_3mod12"):
        raise UnsupportedParameterError(
            f"r={r} is in class {branch}, outside both tight-derived branches"
        )
    m = 4**s * r
    gens, leave = _equi(m)
    branch = "tight_derived/" + branch.removeprefix("psi_e/tight_")
    return _finalize(_one_row_code(m, gens), psi_e_exact(m).value, leave, branch)


def _equi_generators(r: int) -> list[int]:
    """Generators, ascending, of the lexicographically least largest
    equi-difference (r,3,2,1) code on Z_r, r odd.

    x -> 2x permutes the classes {x, -x}, named by x <= (r-1)/2, and the
    codeword {0, c, 2c} is the edge from c to the next class of its cycle.
    A code is a matching: floor(L/2) edges of each cycle of length L, none
    of the loop at 3c = 0.  An even cycle gives every other tail from its
    least class; an odd one the tails u+1, u+3, ..., u+L-2 after its
    unmatched vertex u.  Scanning the classes upwards, the tail at position
    j is taken when some u still allowed has it: re-indexed by
    v -> v(L+1)/2 mod L, those u are the (L-1)/2 points after j(L+1)/2, so
    the allowed u stay one arc (`_arc_meet`).  O(r) in all.
    """
    half = (r - 1) // 2
    cycle, pos, lengths = [-1] * (half + 1), [0] * (half + 1), []
    for c0 in range(1, half + 1):
        x, k, i = c0, len(lengths), 0
        while cycle[x] < 0:
            cycle[x], pos[x], i = k, i, i + 1
            x = 2 * x if 2 * x <= half else r - 2 * x
        if i:
            lengths.append(i)
    allowed: list[tuple[int, int] | None] = [None] * len(lengths)  # None: every u
    gens = []
    for x in range(1, half + 1):
        k, j = cycle[x], pos[x]
        length = lengths[k]
        if length % 2 == 0:
            if j % 2 == 0:
                gens.append(x)
        elif length > 1:
            arc = ((j * (length + 1) // 2 + 1) % length, (length - 1) // 2)
            meet = arc if allowed[k] is None else _arc_meet(allowed[k], arc, length)
            if meet is not None:
                allowed[k] = meet
                gens.append(x)
    return gens


def _arc_meet(a: tuple[int, int], b: tuple[int, int], n: int) -> tuple[int, int] | None:
    """The common part of two (start, length) arcs of Z_n, lengths summing
    below n, so that it is one arc; None when they are disjoint."""
    (sa, la), (sb, lb) = a, b
    if (sb - sa) % n < la:
        return sb, min(lb, la - (sb - sa) % n)
    if (sa - sb) % n < lb:
        return sa, min(la, lb - (sa - sb) % n)
    return None


def prime_derived(p: int, s: int = 0) -> ConstructionResult:
    """Optimal equi-difference code on Z_{4^s p} for prime p >= 5.

    The base is the lexicographically least largest equi-difference
    conflict-avoiding code of length p (`_equi_generators`); since 3 does
    not divide p it is already a (p,3,2,1) code, and quadrupling lifts it.
    At s >= 1 the claimed leave is `_equi`'s; at s = 0 none is claimed.
    """
    me_prime(p)  # validates primality and p >= 5
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    m = 4**s * p
    gens, leave = _equi(m)
    leave = leave if s else None  # s = 0 claims none, as its documents always have
    return _finalize(_one_row_code(m, gens), psi_e_exact(m).value, leave, "prime_derived")


# ---------------------------------------------------------------------------
# explicit codes
# ---------------------------------------------------------------------------

_SLOTS_1D48 = [
    (0, 3, 6), (0, 7, 14), (0, 11, 22), (0, 15, 30), (0, 19, 38),
    (0, 23, 46), (0, 1, 17), (0, 5, 9), (0, 13, 21), (0, 12, 24),
]

_MIDDLE_3X8 = [
    ((0, 0), (0, 1), (1, 6)), ((0, 0), (0, 3), (1, 7)),
    ((1, 0), (1, 1), (2, 5)), ((1, 0), (1, 3), (2, 3)),
    ((0, 0), (2, 5), (2, 6)), ((0, 0), (2, 4), (2, 7)),
    ((0, 0), (1, 2), (2, 0)), ((0, 0), (1, 3), (2, 2)),
    ((0, 0), (1, 0), (2, 1)), ((0, 0), (1, 1), (2, 3)),
]

_MIDDLE_3X20 = [
    ((0, 0), (0, 1), (1, 18)), ((0, 0), (0, 3), (1, 19)),
    ((1, 0), (1, 1), (2, 18)), ((1, 0), (1, 3), (2, 19)),
    ((0, 0), (2, 17), (2, 18)), ((0, 0), (2, 16), (2, 19)),
]
_PAIRS_3X20 = [
    (0, 1), (1, 3), (2, 2), (3, 11), (4, 13), (5, 10), (6, 9), (7, 14),
    (8, 12), (9, 15), (10, 0), (11, 4), (12, 7), (13, 5), (14, 8), (15, 6),
]

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

_MIDDLE_3X52 = [
    *[((0, 0), (0, 1 + 2 * i), (1, 46 + i)) for i in range(6)],
    *[((1, 0), (1, 1 + 2 * i), (2, 46 + i)) for i in range(6)],
    *[((0, 0), (2, 45 - i), (2, 46 + i)) for i in range(6)],
]
_PAIRS_3X52 = [
    (0, 12), (2, 6), (3, 8), (4, 14), (5, 5), (6, 7), (11, 13), (1, 16),
    (14, 22), (16, 19), (18, 24), (7, 28), (12, 25), (13, 27), (22, 29),
    (8, 30), (9, 32), (10, 34), (20, 31), (24, 33), (15, 35), (17, 36),
    (19, 37), (21, 38), (23, 39), (33, 15), (34, 18), (27, 0), (28, 2),
    (29, 4), (30, 10), (32, 11), (25, 1), (31, 9), (26, 3), (35, 21),
    (36, 17), (37, 20), (38, 23), (39, 26),
]

# m -> (generators a of {0, a, 2a} on each row, codewords, pairs (a, b) of {(0,0), (1,a), (2,b)})
_THREE_ROW_TABLES = {
    4: ([1], [], [(0, 0), (1, 3), (3, 2)]),
    8: ([2], _MIDDLE_3X8, []),
    20: ([4, 5, 7, 9], _MIDDLE_3X20, _PAIRS_3X20),
    32: ([8, 9, 11, 13, 15], _MIDDLE_3X32, _PAIRS_3X32),
    52: ([4, 12, 16, 13, 15, 17, 19, 21, 23, 25], _MIDDLE_3X52, _PAIRS_3X52),
}

EXPLICIT_IDS = ("1d48", "3x4", "3x8", "3x20", "3x32", "3x52")


def _explicit(code_id: str) -> Code:
    """Verbatim transcription of an individually listed code."""
    if code_id == "1d48":
        cws = [_codeword([(0, s) for s in slots]) for slots in _SLOTS_1D48]
        return Code(CodeParams(1, 48, 3, 2, 1), cws)
    if code_id not in EXPLICIT_IDS:
        raise UnsupportedParameterError(f"unknown explicit code id {code_id!r}")
    m = int(code_id[2:])
    gens, listed, pairs = _THREE_ROW_TABLES[m]
    cws = _place_on_rows(m, gens, range(3)) + [_codeword(cells) for cells in listed]
    cws += [_codeword(((0, 0), (1, a), (2, b))) for a, b in pairs]
    return Code(CodeParams(3, m, 3, 2, 1), cws)


def explicit_code(code_id: str) -> ConstructionResult:
    """Verbatim transcriptions of the individually listed codes."""
    code = _explicit(code_id)
    size = phi_exact(code.params.n, code.params.m).value
    return _finalize(code, size, None, f"explicit/{code_id}")


# ---------------------------------------------------------------------------
# two-row codes
# ---------------------------------------------------------------------------


def _two_rows_0mod4(m: int) -> tuple[list[Codeword], str]:
    """The two-row body at m = 0 (mod 4), m > 4: 3m/4 codewords."""
    if m % 8 == 0:  # a split of the construction, not a class of the bound
        cws = _place_on_rows(m, _odds(3, m // 4 - 1) + [m // 2 - 1], [0])
        cws += _place_on_rows(m, _odds(m // 4 + 1, m // 2 - 1), [1])
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
        cws = _place_on_rows(m, _odds(m // 4 + 2, m // 2 - 3), [0])
        cws += _place_on_rows(m, _odds(1, m // 4), [1])
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
        cws += _place_on_rows(m, [2], [0])
        branch = "2xm/4mod8"
    return cws, branch


def ooc_2xm(m: int) -> ConstructionResult:
    """Optimal two-row code in the classes of phi_exact(2, m): 3m/4 codewords (2 at m = 4)."""
    return _phi_code(2, m)


# ---------------------------------------------------------------------------
# three-row codes
# ---------------------------------------------------------------------------


def ooc_3xm(m: int) -> ConstructionResult:
    """Optimal three-row code in every class where `phi_exact(3, m)` is exact.

    Explicit lists at the `3x` lengths of EXPLICIT_IDS; general families for
    m = 8 (mod 16), m = 32 (mod 64), and admissible m = 4, 20 (mod 48).
    """
    return _phi_code(3, m)


def _ooc_3xm_8mod16(m: int) -> tuple[list[Codeword], str]:
    cws = _place_on_rows(m, _half_free(m)[0], range(3))
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
    return cws, "3xm/8mod16"


def _ooc_3xm_32mod64(m: int) -> tuple[list[Codeword], str]:
    cws = _place_on_rows(m, _half_free(m)[0], range(3))
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
    return cws, "3xm/32mod64"


def _ooc_3xm_4or20mod48(m: int) -> tuple[list[Codeword], str]:
    cws = _place_on_rows(m, _equi(m)[0], range(3))
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
    return cws, "3xm/4or20mod48"


# ---------------------------------------------------------------------------
# Phi(n, m) by class
# ---------------------------------------------------------------------------


def _listed(code_id: str) -> tuple[list[Codeword], str]:
    """The codewords of an individually listed code and its branch."""
    return _explicit(code_id).codewords, f"explicit/{code_id}"


# phi_exact class -> (rows, body): body(m) is the unchecked codewords of an optimal
# code on I_rows x Z_m and its branch, or None at a length the class has no code
# for; a listed `3x` code of EXPLICIT_IDS takes its own length before any body
_PHI_BODIES = {
    "phi/one_row_0mod8": (1, lambda m: _listed("1d48") if m == 48 else None),
    "phi/two_rows_m4": (2, lambda m: (_place_on_rows(4, [1], range(2)), "2xm/m4")),
    "phi/two_rows_0mod4": (2, _two_rows_0mod4),
    "phi/three_rows_m4": (3, None),  # the listed 3x4
    "phi/rows0mod3_8mod16": (3, _ooc_3xm_8mod16),
    "phi/rows0mod3_32mod64": (3, _ooc_3xm_32mod64),
    "phi/rows0mod3_4or20mod48": (3, _ooc_3xm_4or20mod48),
}


def _phi_code(n: int, m: int, config: SearchConfig | None = None) -> ConstructionResult:
    """The optimal (n x m) code of `phi_exact(n, m)`'s class from its
    `_PHI_BODIES` entry: the body itself on as many rows, on u times as many
    the body filling the groups of a (3m)^u design (`compose_0mod3`).  A
    class with no entry, or no code at m, is rejected by its name.
    """
    phi = phi_exact(n, m)
    rows, body = _PHI_BODIES.get(phi.branch, (0, None))
    code_id = f"{rows}x{m}"
    built = _listed(code_id) if code_id in EXPLICIT_IDS else body and body(m)
    if not built:
        family = ("one", "two", "three")[min(n, 3) - 1]
        raise UnsupportedParameterError(
            f"n={n}, m={m} is in class {phi.branch}, outside every {family}-row family"
        )
    cws, branch = built
    code = Code(CodeParams(rows, m, 3, 2, 1), cws)
    if n > rows:
        u, m0 = n // rows, m & -m
        orders = (u - 1 + u % 2, 1) if u >= 6 else (1,)
        design = _gdd_search(u, m0, config or SearchConfig(), *orders).best
        if design is None:
            raise SearchExhausted(f"no (3m)^{u} design witness found for m={m0} in budget")
        # _finalize is the one check of the lift: the correlation check rules out
        # a class covered twice, the exact size a class left uncovered
        code, branch = _expand_code(design.lift(m // m0), [code]), "nxm/0mod3"
    return _finalize(code, phi.value, None, branch)


# ---------------------------------------------------------------------------
# recursive expansion through cyclic group divisible designs
# ---------------------------------------------------------------------------


def _expand_code(gdd: GddBaseBlocks, inputs: list[Code]) -> Code:
    """The base blocks plus, on each group, the input code with as many rows."""
    by_rows = {code.params.n: code for code in inputs}
    cws = [_codeword(b) for b in gdd.base_blocks]
    for rows in gdd.groups:
        try:
            code = by_rows[len(rows)]
        except KeyError:
            raise ValueError(f"no input code with {len(rows)} rows for group {rows}")
        cws += [_codeword([(rows[r], s) for r, s in cw]) for cw in code.codewords]
    lam = max((code.params.lambda_a for code in inputs), default=2)
    return Code(CodeParams(gdd.n_rows(), gdd.m, 3, lam, 1), cws)


def expand_gdd(gdd: GddBaseBlocks, inputs: list[ConstructionResult]) -> ConstructionResult:
    """Union of GDD base blocks with a relabeled input code per group.

    Base blocks contribute each cross-group mixed difference exactly once;
    the filled copies keep all differences inside their own row groups, so
    the union stays correlation-clean.
    """
    gdd.validate()
    sizes = {}  # the size of the input code with each row count
    for res in inputs:
        if not res.verified:
            raise ValueError("expansion requires verified input codes")
        if res.code.params.m != gdd.m:
            raise ValueError(
                f"input on Z_{res.code.params.m} does not match the design's Z_{gdd.m}"
            )
        if res.code.params.n in sizes:
            raise ValueError(f"two input codes have {res.code.params.n} rows")
        sizes[res.code.params.n] = res.code.size()
    # the caller's cells become int tuples once; `_finalize` checks the rest
    gdd = replace(gdd, base_blocks=[make_codeword(b) for b in gdd.base_blocks])
    code = _expand_code(gdd, [res.code for res in inputs])
    total = len(gdd.base_blocks) + sum(sizes[len(rows)] for rows in gdd.groups)
    return _finalize(code, total, None, "gdd/expand")


def compose_0mod3(n: int, m: int, config: SearchConfig | None = None) -> ConstructionResult:
    """Optimal (n x m) code in the `rows0mod3_*` classes of `phi_exact`.

    n = 3 delegates to the three-row catalogue.  For n >= 12 the design of
    type (3m)^(n/3) is searched only at m0 = m & -m (4, 8 or 32 in every
    exact class), lifted by the odd factor m / m0, and its groups are filled
    with the three-row code on Z_m, reaching Phi(n, m) = n(nm + 2 psi)/6
    codewords.  `config` drives the one search at m0 (`_gdd_search`).  From
    n = 18 on, the exact cover first searches only the designs fixed by a
    rotation of the groups, Z_u or Z_(u-1) and a fixed group, and then all
    of them if it completes without one, on the same budget.  The design is
    not validated on its own: `_finalize`'s check of the lifted code proves
    it.
    """
    if n < 3:  # phi_exact takes n >= 1 only
        raise UnsupportedParameterError(f"family needs n >= 3, got n={n}")
    if n == 3:
        if config is not None:
            raise UnsupportedParameterError("n = 3 takes no search flags: it runs no search")
        return ooc_3xm(m)
    return _phi_code(n, m, config)
