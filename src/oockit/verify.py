"""Independent checking: correlation properties, censuses, structural facts."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .core import (
    Code,
    CodeParams,
    Codeword,
    classify_codeword,
    codeword_rows,
    is_equi_difference_codeword,
    parity_class,
    pure_difference_support,
)

MAX_WITNESSES = 100


@dataclass(frozen=True)
class Witness:
    """One correlation violation: which codewords, which row pair, which difference."""

    kind: str  # "auto" or "cross"
    codewords: tuple[int, int]
    rows: tuple[int, int]
    difference: int


@dataclass
class VerificationReport:
    auto_ok: bool
    cross_ok: bool
    max_auto_multiplicity: int
    witnesses: list[Witness]
    violation_count: int

    @property
    def passed(self) -> bool:
        return self.auto_ok and self.cross_ok


@dataclass(frozen=True)
class CompositionCensus:
    """Counts of codewords by row pattern and pure-difference support size.

    Every field but the totals alpha and beta is named by the
    `classify_codeword` label it counts, so a census is built from its label
    counts as they are.  alpha2 is nonzero only for codes that already break
    the lambda_a <= 2 autocorrelation cap (third-period codewords); it keeps
    the census total.
    """

    alpha: int = 0
    alpha2: int = 0
    alpha3: int = 0
    alpha4: int = 0
    alpha5: int = 0
    alpha6: int = 0
    beta: int = 0
    beta1: int = 0
    beta2: int = 0
    gamma: int = 0


@dataclass(frozen=True)
class ParityCensus:
    """Seven-way odd / singly-even / doubly-even census of single-row codewords.

    The fields, in order, count the `parity_class` labels i to vii.
    """

    c_o: int = 0
    c_e: int = 0
    c_d: int = 0
    n_oe: int = 0
    n_od: int = 0
    n_e: int = 0
    n_d: int = 0

    def total(self) -> int:
        return self.c_o + self.c_e + self.c_d + self.n_oe + self.n_od + self.n_e + self.n_d


@dataclass(frozen=True)
class StructuralFacts:
    is_equi_difference: bool
    difference_leave: frozenset[int]
    regular_subgroups: frozenset[int]
    is_tight_cac: bool


def _pair_classes(cw: Codeword, n: int, m: int) -> tuple[list[int], list[int]]:
    """The class key of each cell pair of a codeword, and its pure keys.

    Each unordered cell pair falls in one class, encoded as the int
    (i*n + j)*m + d: rows i <= j whatever order the cells come in,
    d = x - y mod m for mixed pairs and min(d, m - d) for pure ones.  `keys`
    lists every pair's class in pair order; `pure` lists the same-row ones,
    the half period twice, since it is its own negative.  The packing search
    builds its masks from these keys.  Private, because `perfbench/spans.py`
    wraps every public function here and this one runs once per codeword.
    """
    keys: list[int] = []
    pure: list[int] = []
    for (i, x), (j, y) in combinations(cw, 2):
        if i == j:
            d = (y - x) % m
            if d + d > m:
                d = m - d
            key = (i * n + i) * m + d
            if d + d == m:
                pure.append(key)
            pure.append(key)
        elif i < j:
            key = (i * n + j) * m + (x - y) % m
        else:
            key = (j * n + i) * m + (y - x) % m
        keys.append(key)
    return keys, pure


def _pure_classes(n: int, m: int) -> int:
    """The bitset of every pure `_pair_classes` key on I_n x Z_m: row pair
    (i, i) and difference 1 .. m // 2."""
    return sum(((1 << m // 2) - 1) << (i * n + i) * m + 1 for i in range(n))


def _weight3_pass(code: Code) -> VerificationReport | None:
    """The report of a passing weight-3 code, or None to leave the code to
    `verify_code`'s witness path.  Never raises.

    One loop unpacks each codeword as (i, x), (j, y), (k, z) and checks in
    line what `Code.validate` checks: cells sorted and distinct, rows in
    [0, n), slots in [0, m).  Its three class keys are `_pair_classes`'s
    formula written out for each of the four row shapes: one row, a pair on
    the lower row, a pair on the upper row, three rows.  It gives up on the
    first key an earlier codeword holds and on the first multiplicity over
    lambda_a.  After the loop it sends on what the loop cannot judge: a
    codeword with no length or an unhashable cell, where `Code.validate`
    raises, and a row or slot that is not an int, which makes a key that is
    not one.  Private: `perfbench/spans.py` wraps every public function here.
    """
    n, m, lam_a = code.params.n, code.params.m, code.params.lambda_a
    codewords = code.codewords
    seen: set[int] = set()
    add = seen.add
    max_mult = 0
    try:
        len(codewords)  # a single-pass iterable would reach the witness path spent
        for (i, x), (j, y), (k, z) in codewords:
            if not (0 <= i <= j <= k < n and 0 <= x < m and 0 <= y < m and 0 <= z < m):
                return None
            if i == j:
                if x >= y:
                    return None
                a = y - x
                if a + a > m:
                    a = m - a
                if j == k:  # one row
                    if y >= z:
                        return None
                    b = z - x
                    if b + b > m:
                        b = m - b
                    c = z - y
                    if c + c > m:
                        c = m - c
                    base = (i * n + i) * m
                    k1, k2, k3 = base + a, base + b, base + c
                    if a == b == c:  # the third period
                        lam = 3
                    elif a == b or a == c or b == c or a + a == m or b + b == m or c + c == m:
                        lam = 2  # a repeat and the half period never share a difference
                    else:
                        lam = 1
                else:  # a pair on the lower row
                    base = (i * n + k) * m
                    k1, k2, k3 = (i * n + i) * m + a, base + (x - z) % m, base + (y - z) % m
                    lam = 2 if a + a == m else 1
            elif j == k:  # a pair on the upper row
                if y >= z:
                    return None
                a = z - y
                if a + a > m:
                    a = m - a
                base = (i * n + j) * m
                k1, k2, k3 = (j * n + j) * m + a, base + (x - y) % m, base + (x - z) % m
                lam = 2 if a + a == m else 1
            else:  # three rows
                k1 = (i * n + j) * m + (x - y) % m
                k2 = (i * n + k) * m + (x - z) % m
                k3 = (j * n + k) * m + (y - z) % m
                lam = 0
            if k1 in seen or k2 in seen or k3 in seen or lam > lam_a:
                return None
            add(k1)
            add(k2)
            add(k3)
            if lam > max_mult:
                max_mult = lam
        if type(sum(seen)) is not int:
            return None
        sum(map(len, codewords))
        hash(tuple(codewords))
    except Exception:  # the witness path raises it, or reports the code
        return None
    return VerificationReport(True, True, max_mult, [], 0)


def verify_code(code: Code) -> VerificationReport:
    """Check the code by the difference method, in one pass over cell pairs.

    Autocorrelation: for every codeword the maximum total multiplicity of a
    pure difference (summed over rows) is at most lambda_a.  Cross: no two
    distinct codewords share a difference in the same ordered row pair.

    A weight-3 code first meets `_weight3_pass`, which returns the report of
    a code that passes and hands on any other code unchanged.  It checks the
    cells in the same loop that computes their class keys, since a separate
    `Code.validate` pass and a `_pair_classes` call per codeword cost about
    20 % and 60 % of the witness path's time on a passing code.

    Every other code takes the witness path below.  It alone raises and
    names witnesses, so the weight-3 pass cannot change a failing report,
    an exception or its message.
    Classes are the `_pair_classes` keys; ints sort as the (i, j, d) tuples
    do, so cross witnesses come in class order.  Only the first owner of a
    class is kept; an owner list is built when a second codeword hits the
    class, so lists exist only on failure, and memory is linear in
    codewords x k^2.
    """
    if code.params.k == 3:
        report = _weight3_pass(code)
        if report is not None:
            return report
    code.validate()
    n, m = code.params.n, code.params.m
    lam_a = code.params.lambda_a
    witnesses: list[Witness] = []
    violation_count = 0

    def emit(w: Witness) -> None:
        nonlocal violation_count
        violation_count += 1
        if len(witnesses) < MAX_WITNESSES:
            witnesses.append(w)

    owner: dict[int, int] = {}
    shared: dict[int, list[int]] = {}
    max_mult = 0
    for idx, cw in enumerate(code.codewords):
        keys, pure = _pair_classes(cw, n, m)
        for key in keys:
            first = owner.setdefault(key, idx)
            if first != idx:  # else new, or a repeat inside one codeword
                members = shared.get(key)
                if members is None:
                    shared[key] = [first, idx]
                elif members[-1] != idx:
                    members.append(idx)
        if not pure:
            continue
        diffs = pure if n == 1 else [key % m for key in pure]  # one row: key = difference
        lam = max(map(diffs.count, diffs))
        if lam > max_mult:
            max_mult = lam
        if lam > lam_a:
            # witness path: a difference over lambda_a names both of its
            # residues, at the row of its first pure key
            over = {c for c in diffs if diffs.count(c) > lam_a}
            for d, c in sorted((d, c) for c in over for d in {c, m - c}):
                row = pure[diffs.index(c)] // ((n + 1) * m)
                emit(Witness("auto", (idx, idx), (row, row), d))

    for key in sorted(shared):
        members = shared[key]
        i, rest = divmod(key, n * m)
        j, d = divmod(rest, m)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                emit(Witness("cross", (members[a], members[b]), (i, j), d))

    return VerificationReport(max_mult <= lam_a, not shared, max_mult, witnesses, violation_count)


def difference_leave(code: Code) -> frozenset[int]:
    """Nonzero residues of Z_m that no codeword of a 1-D code has as a difference.

    The set of x - y mod m over the slot pairs of every codeword, taken away
    from 1..m-1.  Construction results assert their claimed leave against it.
    """
    if code.params.n != 1:
        raise ValueError("the difference leave is defined for 1-D codes")
    m = code.params.m
    covered = {(x - y) % m for cw in code.codewords for _, x in cw for _, y in cw}
    return frozenset(range(1, m)).difference(covered)


def matrix_correlation(a: Codeword, b: Codeword, r: int, params: CodeParams) -> int:
    """Matrix correlation sum of a against b at slot shift r.

    Counts cells (i, j) of `a` whose shifted partner (i, j + r mod m) is a
    cell of `b`; both codewords must fit inside I_n x Z_m of params.
    """
    n, m = params.n, params.m
    for cw in (a, b):
        for row, slot in cw:
            if not (0 <= row < n and 0 <= slot < m):
                raise ValueError(f"cell ({row},{slot}) outside I_{n} x Z_{m}")
    return _shift_overlap(a, frozenset(b), r, m)


def matrix_verdicts(code: Code) -> tuple[bool, bool]:
    """(auto_ok, cross_ok) computed directly from matrix shift correlations.

    Independent of the difference method; used to cross-validate it.
    """
    code.validate()
    m = code.params.m
    lam_a, lam_c = code.params.lambda_a, code.params.lambda_c
    cws = [frozenset(cw) for cw in code.codewords]
    auto_ok = True
    for cw, cells in zip(code.codewords, cws):
        for r in range(1, m):
            if _shift_overlap(cw, cells, r, m) > lam_a:
                auto_ok = False
    cross_ok = True
    for a in range(len(cws)):
        for b in range(len(cws)):
            if a == b:
                continue
            for r in range(m):
                if _shift_overlap(code.codewords[a], cws[b], r, m) > lam_c:
                    cross_ok = False
    return auto_ok, cross_ok


def _shift_overlap(a: Codeword, b_set: frozenset, r: int, m: int) -> int:
    return sum(1 for i, x in a if (i, (x + r) % m) in b_set)


def composition_census(code: Code) -> CompositionCensus:
    """Tally classify_codeword labels over a weight-3 code."""
    if code.params.k != 3:
        raise ValueError("composition census is defined for weight-3 codes")
    counts = Counter(classify_codeword(cw, code.params) for cw in code.codewords)
    alpha = sum(c for label, c in counts.items() if label.startswith("alpha"))
    return CompositionCensus(alpha=alpha, beta=counts["beta1"] + counts["beta2"], **counts)


def parity_census(code: Code) -> ParityCensus:
    """Seven-way parity census; every codeword must sit in a single row."""
    m = code.params.m
    if m % 4 != 0:
        raise ValueError(f"parity census needs m = 0 (mod 4), got m={m}")
    counts = Counter()
    for cw in code.codewords:
        if len(codeword_rows(cw)) != 1:
            raise ValueError("parity census needs single-row codewords")
        counts[parity_class(cw, m)] += 1
    return ParityCensus(*(counts[label] for label in ("i", "ii", "iii", "iv", "v", "vi", "vii")))


def structural_facts(code: Code) -> StructuralFacts:
    """Equi-difference flag, difference leave, regular subgroups, tightness.

    Tightness follows the conflict-avoiding usage: the supports of the
    codewords cover every nonzero residue exactly once.
    """
    if code.params.n != 1:
        raise ValueError("structural facts are defined for 1-D codes")
    m = code.params.m
    leave = difference_leave(code)
    regular = frozenset(
        g
        for g in _divisors(m)
        if g < m and all(t * (m // g) in leave for t in range(1, g))
    )
    equi = all(is_equi_difference_codeword(cw, m) for cw in code.codewords)
    # with an empty leave the supports cover 1..m-1; their sizes sum to m - 1
    # exactly when they are disjoint and cover nothing else
    tight = (
        equi
        and not leave
        and sum(len(pure_difference_support(cw, m)) for cw in code.codewords) == m - 1
    )
    return StructuralFacts(equi, leave, regular, tight)


def _divisors(m: int) -> list[int]:
    out = [d for d in range(1, int(m**0.5) + 1) if m % d == 0]
    out += [m // d for d in reversed(out) if m // d not in out]
    return sorted(set(out))


def composition_inequalities(code: Code) -> dict[str, tuple[int, int]]:
    """Counting bounds on pure/mixed difference usage, as (lhs, rhs) pairs.

    Valid for verified weight-3 codes with lambda_a <= 2 (alpha2 empty).
    """
    c = composition_census(code)
    n, m = code.params.n, code.params.m
    return {
        "pure_difference_capacity": (
            3 * c.alpha3 + 4 * c.alpha4 + 5 * c.alpha5 + 6 * c.alpha6 + c.beta1 + 2 * c.beta2,
            n * (m - 1),
        ),
        "mixed_difference_capacity": (4 * c.beta + 6 * c.gamma, n * (n - 1) * m),
        "half_period_capacity": (c.alpha3 + c.alpha5 + c.beta1, n),
    }


def parity_inequalities(code: Code) -> dict[str, tuple[int, int]]:
    """Odd / singly-even / doubly-even capacity bounds for 1-D codes, m = 0 mod 4."""
    if code.params.n != 1:
        raise ValueError("parity bounds apply to 1-D codes")
    m = code.params.m
    pc = parity_census(code)
    return {
        "odd_capacity": (pc.c_o + 2 * pc.n_oe + 2 * pc.n_od, m // 4),
        "singly_even_capacity": (pc.c_o + pc.c_e + pc.n_oe + 2 * pc.n_e, (m + 7) // 8),
        "doubly_even_capacity": (
            pc.c_e + 2 * pc.c_d + pc.n_od + pc.n_e + 3 * pc.n_d,
            m // 8,
        ),
    }
