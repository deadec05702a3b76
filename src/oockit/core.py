"""Cells, codewords and the pure/mixed difference calculus on I_n x Z_m."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

Cell = tuple[int, int]
Codeword = tuple[Cell, ...]


class UnsupportedParameterError(ValueError):
    """Parameters fall outside every branch the operation covers."""


class VerificationFailure(RuntimeError):
    """A construction failed its own verification pass; carries witnesses."""

    def __init__(self, message: str, witnesses=None):
        super().__init__(message)
        self.witnesses = list(witnesses or [])


class SearchExhausted(RuntimeError):
    """A search ran out of budget before producing a required witness."""


@dataclass(frozen=True)
class CodeParams:
    """Parameter header of an (n x m, k, lambda_a, lambda_c) code.

    lambda_c is pinned to 1: the difference calculus used throughout is
    specific to unit cross-correlation.
    """

    n: int
    m: int
    k: int = 3
    lambda_a: int = 2
    lambda_c: int = 1

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n, m >= 1, got n={self.n}, m={self.m}")
        if self.k < 1:
            raise ValueError(f"need weight k >= 1, got k={self.k}")
        if self.lambda_a < 1:
            raise ValueError(f"need lambda_a >= 1, got {self.lambda_a}")
        if self.lambda_c != 1:
            raise ValueError("only lambda_c = 1 is supported")


def make_codeword(cells) -> Codeword:
    """Sorted, duplicate-checked tuple of (row, slot) cells from outside `construct`.

    A cell that is not a pair of ints raises ValueError; a bool becomes the
    int it equals.
    """
    out = []
    for r, s in cells:
        if not (isinstance(r, int) and isinstance(s, int)):
            raise ValueError(f"cell ({r},{s}) is not a pair of ints")
        out.append((int(r), int(s)))
    out = tuple(sorted(out))
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate cells in codeword: {out}")
    return out


@dataclass
class Code:
    """An ordered family of codewords under a common parameter header."""

    params: CodeParams
    codewords: list[Codeword] = field(default_factory=list)

    def validate(self) -> None:
        n, m, k = self.params.n, self.params.m, self.params.k
        for idx, cw in enumerate(self.codewords):
            if len(cw) != k:
                raise ValueError(f"codeword {idx} has weight {len(cw)}, expected {k}")
            if len(set(cw)) != len(cw):
                raise ValueError(f"codeword {idx} repeats a cell")
            for row, slot in cw:
                if not (isinstance(row, int) and isinstance(slot, int)):
                    raise ValueError(f"cell ({row},{slot}) of codeword {idx} is not a pair of ints")
                if not (0 <= row < n and 0 <= slot < m):
                    raise ValueError(
                        f"cell ({row},{slot}) of codeword {idx} outside I_{n} x Z_{m}"
                    )

    def size(self) -> int:
        return len(self.codewords)


def translate(codeword: Codeword, shift: int, m: int) -> Codeword:
    """Shift every slot by `shift` mod m; rows are untouched."""
    return tuple(sorted((r, (s + shift) % m) for r, s in codeword))


def normalize(codeword: Codeword, m: int) -> Codeword:
    """Lexicographically least slot-translation of the codeword.

    Idempotent, and constant on each translation orbit.  Slots are reduced
    mod m.  Every translate keeps the rows, so the first cell of the least
    one is (r0, 0) with r0 the lowest row: the least translate moves some
    cell (r0, s) to slot 0.  So the only candidate shifts are -s for the
    cells of row r0: at most k of them, not all m.  The empty codeword
    normalizes to ().

    Three sorted distinct tuple cells with slots in [0, m) take a closed
    form, by how many cells share row r0.  One: its slot goes to 0.  Two, d
    apart: the shift that leaves the smaller of d and m - d between them,
    and at d = m/2 the one that puts the third cell lower.  Three: the least
    rotation of the gap triple (s1 - s0, s2 - s1, m - s2 + s0).  A codeword
    already in normal form comes back as the same object.  Every other input
    tries the candidate shifts.
    """
    if type(codeword) is tuple and len(codeword) == 3:
        a, b, c = codeword
        if type(a) is tuple and type(b) is tuple and type(c) is tuple and a < b < c:
            (r0, s0), (r1, s1), (r2, s2) = codeword
            if 0 <= s0 < m and 0 <= s1 < m and 0 <= s2 < m:
                if r0 != r1:
                    if s0 == 0:
                        return codeword
                    u, v = (r1, (s1 - s0) % m), (r2, (s2 - s0) % m)
                    return ((r0, 0), u, v) if u < v else ((r0, 0), v, u)
                if r1 != r2:
                    d = s1 - s0
                    if d < m - d or (d == m - d and (s2 - s0) % m < (s2 - s1) % m):
                        if s0 == 0:
                            return codeword
                        return (r0, 0), (r0, d), (r2, (s2 - s0) % m)
                    return (r0, 0), (r0, m - d), (r2, (s2 - s1) % m)
                x, y, z = s1 - s0, s2 - s1, m - s2 + s0
                least = min((x, y), (y, z), (z, x))
                if s0 == 0 and least == (x, y):
                    return codeword
                x, y = least
                return (r0, 0), (r0, x), (r0, x + y)
    if not codeword:
        return ()
    r0 = min(codeword)[0]
    best = None
    for row, shift in codeword:
        if row == r0:
            candidate = [(r, (s - shift) % m) for r, s in codeword]
            candidate.sort()
            if best is None or candidate < best:
                best = candidate
    return tuple(best)


def codeword_rows(codeword: Codeword) -> tuple[int, ...]:
    return tuple(sorted({r for r, _ in codeword}))


def difference_profile(codeword: Codeword, params: CodeParams) -> dict[tuple[int, int], Counter]:
    """Multiset of (row_i, row_j) differences x - y mod m over ordered cell pairs.

    Key (i, i) holds the pure differences of row i, key (i, j) with i != j
    the mixed differences; empty entries are omitted.
    """
    n, m = params.n, params.m
    for row, slot in codeword:
        if not (0 <= row < n and 0 <= slot < m):
            raise ValueError(f"cell ({row},{slot}) outside I_{n} x Z_{m}")
    profile: dict[tuple[int, int], Counter] = {}
    for i, x in codeword:
        for j, y in codeword:
            if (i, x) == (j, y):
                continue
            profile.setdefault((i, j), Counter())[(x - y) % m] += 1
    return profile


def pure_difference_support(codeword: Codeword, m: int) -> frozenset[int]:
    """Distinct nonzero slot differences of a single-row codeword."""
    slots = [s for _, s in codeword]
    return frozenset((x - y) % m for x in slots for y in slots if x != y)


def halved_difference_set(codeword: Codeword, m: int) -> frozenset[int]:
    """Difference support folded into [1, m/2] for a single-row codeword.

    Requires m = 0 (mod 4); the support is symmetric about m/2, so this
    plain set carries all the information.
    """
    if m % 4 != 0:
        raise ValueError(f"halved difference set needs m = 0 (mod 4), got m={m}")
    if len(codeword_rows(codeword)) > 1:
        raise ValueError("halved difference set is defined for single-row codewords")
    supp = pure_difference_support(codeword, m)
    return frozenset(d for d in supp if 1 <= d <= m // 2)


def is_equi_difference_codeword(codeword: Codeword, m: int) -> bool:
    """True when the codeword is a single-row translate of {0, a, 2a}."""
    if len(codeword) != 3 or len(codeword_rows(codeword)) != 1:
        return False
    x, y, z = (s for _, s in codeword)
    return any(
        (2 * mid - a - b) % m == 0
        for mid, a, b in ((x, y, z), (y, x, z), (z, x, y))
    )


def classify_codeword(codeword: Codeword, params: CodeParams) -> str:
    """Census label of a weight-3 codeword.

    "alphaS" with S = |supp| of the pure differences when all three cells
    share a row, "beta1"/"beta2" for two-rows codewords (beta1 iff the
    within-row pair differs by exactly m/2), "gamma" for three distinct rows.
    """
    if len(codeword) != 3:
        raise ValueError(f"classification needs weight 3, got {len(codeword)}")
    m = params.m
    rows = codeword_rows(codeword)
    if len(rows) == 3:
        return "gamma"
    if len(rows) == 1:
        return f"alpha{len(pure_difference_support(codeword, m))}"
    row_count = Counter(r for r, _ in codeword)
    doubled = next(r for r, c in row_count.items() if c == 2)
    x, y = sorted(s for r, s in codeword if r == doubled)
    if m % 2 == 0 and (y - x) % m == m // 2:
        return "beta1"
    return "beta2"


_PARITY_BY_COUNTS = {
    # (odd, singly even, doubly even) membership counts of the halved set
    (1, 1, 0): "i",
    (0, 1, 1): "ii",
    (0, 0, 2): "iii",
    (2, 1, 0): "iv",
    (2, 0, 1): "v",
    (0, 2, 1): "vi",
    (0, 0, 3): "vii",
}


def parity_class(codeword: Codeword, m: int) -> str:
    """Odd / singly-even / doubly-even class label of a single-row codeword.

    Labels i-iii carry codewords whose halved difference set has two
    elements (the equi-difference ones), iv-vii those with three.
    """
    if len(codeword) != 3:
        raise ValueError(f"parity classification needs weight 3, got {len(codeword)}")
    halved = halved_difference_set(codeword, m)
    if len(halved) == 1:
        raise ValueError("codeword lies on the third-period orbit; no parity class")
    odd = sum(1 for d in halved if d % 2 == 1)
    singly = sum(1 for d in halved if d % 4 == 2)
    doubly = sum(1 for d in halved if d % 4 == 0)
    return _PARITY_BY_COUNTS[(odd, singly, doubly)]


def restrict_to_row(code: Code, row: int) -> Code:
    """1-D subcode of the codewords living entirely in one row."""
    p = code.params
    kept = [
        tuple((0, s) for _, s in cw)
        for cw in code.codewords
        if codeword_rows(cw) == (row,)
    ]
    return Code(CodeParams(1, p.m, p.k, p.lambda_a, p.lambda_c), kept)
