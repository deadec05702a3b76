"""Brute-force oracles: exhaustive code search, equi-difference search,
tight-cover search, and cyclic group-divisible-design base block search.

These are the ground truth the closed-form bounds and the constructions are
tested against; they share a budget tracker and are deterministic for a
fixed seed and budget.
"""

from __future__ import annotations

import array
import bisect
import itertools
import math
import random
import time
from collections.abc import Iterable, Iterator
from dataclasses import InitVar, dataclass, field

from .core import Code, CodeParams, Codeword, make_codeword, normalize
from .bounds import gdd_exists
from .verify import _pair_classes, _pure_classes, verify_code

EXACT_COVER = "exact_cover"
HILL_CLIMB = "hill_climb_restart"


@dataclass(frozen=True)
class SearchConfig:
    time_budget: float = 60.0
    node_budget: int = 10**9
    strategy: str = EXACT_COVER  # or HILL_CLIMB; read by the GDD search alone
    seed: int = 0

    def __post_init__(self):  # a NaN budget compares False with everything: no stop
        if math.isnan(self.time_budget) or math.isnan(self.node_budget):
            raise ValueError("a search budget must not be NaN")
        if self.time_budget < 0 or self.node_budget < 0:
            raise ValueError("a search budget must not be negative")
        if self.strategy not in (EXACT_COVER, HILL_CLIMB):
            raise ValueError(f"strategy must be {EXACT_COVER} or {HILL_CLIMB}: {self.strategy!r}")


@dataclass
class SearchOutcome:
    best: object  # Code, GddBaseBlocks, or None
    best_size: int
    proven_optimal: bool
    nodes: int
    elapsed: float


@dataclass
class GddBaseBlocks:
    """Base blocks of an m-cyclic triple group-divisible design.

    Developing every block by +1 mod m on slots must cover each cross-group
    (row pair, difference) class exactly once; rows of a block lie in three
    distinct groups.  `group_type` is accepted and ignored: the groups say
    how many rows there are.
    """

    m: int
    groups: list[list[int]]
    base_blocks: list[Codeword] = field(default_factory=list)
    group_type: InitVar[object] = field(default=None, kw_only=True)

    def n_rows(self) -> int:
        return sum(map(len, self.groups))

    def validate(self) -> None:
        """ValueError unless the groups partition the rows, each block meets
        three groups, no class is covered twice and none is left uncovered."""
        n, m = self.n_rows(), self.m
        group_of = {r: g for g, rows in enumerate(self.groups) for r in rows}
        if sorted(group_of) != list(range(n)):
            raise ValueError("groups must partition the row set")
        for block in self.base_blocks:
            met = {group_of.get(r) for r, _ in block}
            if len(block) != 3 or len(met) != 3 or None in met:
                raise ValueError(f"block {block} does not meet three distinct groups")
        blocks = [make_codeword(b) for b in self.base_blocks]  # hashable cells for Code.validate
        if not verify_code(Code(CodeParams(n, m), blocks)).cross_ok:
            raise ValueError("a cross-group class is covered twice")
        cross_pairs = (n * n - sum(len(rows) ** 2 for rows in self.groups)) // 2
        if 3 * len(blocks) != cross_pairs * m:
            raise ValueError(f"{len(blocks)} blocks leave cross-group classes uncovered")

    def lift(self, k: int) -> GddBaseBlocks:
        """The (m k)-cyclic design on the same groups lifted from this one.

        Each base block {(a, x), (b, y), (c, z)} yields the k blocks
        {(a, x), (b, y + m t), (c, z + 2 m t)} for t in Z_k.  Over t the
        differences of every row pair run once through the k lifts of their
        difference mod m; for the (a, c) pair this needs 2 to be a unit mod
        k, hence k odd.  k = 1 returns the base blocks unchanged.
        """
        if k < 1 or k % 2 == 0:
            raise ValueError(f"the lift needs an odd factor k >= 1, got {k}")
        m0, m = self.m, self.m * k
        blocks = [
            ((a, x), (b, y + m0 * t), (c, (z + 2 * m0 * t) % m))
            for (a, x), (b, y), (c, z) in self.base_blocks
            for t in range(k)
        ]
        return GddBaseBlocks(m, [list(g) for g in self.groups], blocks)


class _Spent(Exception):
    """The budget of a search call ran out; only `_Budget` raises it."""


class _Budget:
    """Node and wall-clock budget of a search call, setup included: `tick`,
    `check` and `paced` raise `_Spent` once it runs out."""

    def __init__(self, config: SearchConfig):
        self.t0 = time.monotonic()
        self.deadline = self.t0 + config.time_budget
        self.node_budget = config.node_budget
        self.nodes = 0

    def tick(self) -> None:
        """Count a node; the clock is read on the first tick, then once per 16."""
        self.nodes += 1
        if self.nodes >= self.node_budget:
            raise _Spent
        if self.nodes % 16 == 0 or self.nodes == 1:
            self.check()

    def check(self) -> None:
        """Read the clock without counting a node."""
        if time.monotonic() > self.deadline:
            raise _Spent

    def paced(self, items: Iterable) -> Iterator:
        """The items of a setup loop, with a `check` before item 1024, 2048, ..."""
        it = iter(items)
        yield from itertools.islice(it, 1023)
        for item in it:
            self.check()
            yield item
            yield from itertools.islice(it, 1023)

    def elapsed(self) -> float:
        return time.monotonic() - self.t0


# ---------------------------------------------------------------------------
# exact cover (Algorithm X on alive flags)
# ---------------------------------------------------------------------------


class _ExactCover:
    """Algorithm X (Knuth, TAOCP 7.2.2.1) on alive flags.  The matrix is the
    row tuples of column indices and each column's rows by id, built once;
    a `solve` starts from fresh flags and sizes under the ranks it is given,
    so one matrix serves every restart."""

    def __init__(self, n_cols: int, rows: Iterable[tuple[int, ...]], budget: _Budget):
        self.rows = []
        self.cols = cols = [[] for _ in range(n_cols)]
        for rid, row in enumerate(budget.paced(rows)):
            self.rows.append(row)
            for c in row:
                cols[c].append(rid)

    def solve(
        self, budget: _Budget, rank: array.array | None = None, limit: int | None = None
    ) -> tuple[list[int] | None, bool]:
        """(first solution as row ids, level by level, or None, whether the
        search is complete).

        Each row tried ticks `budget`; the `limit`-th node of this call stops
        the search incomplete.  A search of the whole tree is complete, a
        proof that no solution exists.  A node takes the first uncovered
        column of least live size and tries its live rows by `rank`, the
        position of each row id in a row order such as `_shuffle` returns
        (default: by id).  Choosing a row covers its columns: it unlinks them
        from the list of uncovered columns, turns off every live row through
        them and lowers the sizes of those rows' columns.
        """
        last = math.inf if limit is None else budget.nodes + limit
        rows, cols = self.rows, self.cols
        n = len(cols)  # the head of the uncovered columns
        after, before = [*range(1, n + 1), 0], [n, *range(n)]
        sizes = list(map(len, cols))
        alive = [True] * len(rows)
        live = alive.__getitem__
        # per picked row: its node's column and the live rows through it, the
        # rows not yet tried there, the row, and the rows it turned off
        frames = []
        while True:
            c = after[n]
            if c == n:
                return [frame[3] for frame in frames], True
            least, j = sizes[c], after[c]
            while j != n:
                if sizes[j] < least:
                    least, c = sizes[j], j
                    if not least:  # no later column can come first
                        break
                j = after[j]
            found = list(filter(live, cols[c]))
            tries = iter(found if rank is None else sorted(found, key=rank.__getitem__))
            r = next(tries, None)
            while r is None:  # column exhausted: back up one level
                if not frames:
                    return None, True
                c, found, tries, r, hit = frames.pop()
                for s in hit:
                    alive[s] = True
                    for k in rows[s]:
                        sizes[k] += 1
                for j in reversed(rows[r]):
                    after[before[j]] = before[after[j]] = j
                r = next(tries, None)
            budget.tick()
            if budget.nodes >= last:
                return None, False
            hit = []
            for j in rows[r]:
                after[before[j]], before[after[j]] = after[j], before[j]
                for s in filter(live, found if j == c else cols[j]):
                    alive[s] = False
                    hit.append(s)
                    for k in rows[s]:
                        sizes[k] -= 1
            frames.append((c, found, tries, r, hit))


# ---------------------------------------------------------------------------
# maximum packing over canonical difference classes
# ---------------------------------------------------------------------------


def _codeword_mask(cw: Codeword, n: int, m: int) -> tuple[int, int]:
    """(mask, autocorrelation peak).

    Bits are `verify_code`'s class keys.  The peak counts each pure
    difference over all rows; the half period counts twice.
    """
    keys, pure = _pair_classes(cw, n, m)
    diffs = [key % m for key in pure]
    peak = max(map(diffs.count, diffs), default=0)
    return sum(1 << key for key in set(keys)), peak


def _max_packing(masks: list[int], pure: int, budget: _Budget) -> tuple[list[int], bool]:
    """Largest set of indices with pairwise disjoint masks.

    A maximum independent set on the conflict graph of the masks, searched
    depth first on candidate bitsets (Carraghan & Pardalos 1990; Kaski &
    Ostergard 2006).  A frame holds its remaining candidates as one int, bit
    i for index i, and tries them lowest bit first.  The index `holders`
    maps each class bit to the bitset of the indices whose masks hold it.
    The OR of the holders of index i's classes, built the first time i is
    chosen, is the set of indices that i conflicts with, so a child's
    candidates are its frame's remaining ones less that set.

    Bound: with p pure classes (bits of `pure`) and q mixed ones left, at
    most floor(p/2 + q/3) weight-3 codewords fit (every codeword burns at
    least two pure classes, or one pure and two mixed, or three mixed), and
    at most t masks when the t + 1 smallest masks together hold more than
    p + q classes.  The classes left are those that the frame's remaining
    candidates hold: each frame keeps the union of their masks exactly.  A
    frame that tried index i drops the classes that only i held when it is
    next visited.  A child's union is the OR of its masks when it holds at
    most three times as many candidates as the choice took away, else its
    frame's union less the classes that only i and those candidates held.
    The union lies inside the classes that no chosen mask holds, so this
    bound is never above a count of those.  It cuts only subtrees that
    cannot beat the best packing found so far, so the search returns the
    same first-found best as a search without it, on a subset of its nodes.
    """
    best: list[int] = []
    size = len(masks)
    width = max(map(int.bit_length, masks), default=0)
    holders = [0] * width  # the indices whose masks hold each class
    bits_of: list[list[int]] = []
    union = 0
    lp_valid = True
    for i, mask in enumerate(budget.paced(masks)):
        union |= mask
        # the p/2 + q/3 rate bound is valid only when every mask pays at
        # least that rate (true for weight-3 codewords): 3p + 2q >= 6
        lp_valid = lp_valid and (mask & pure).bit_count() + 2 * mask.bit_count() >= 6
        bits = []
        while mask:
            low = mask & -mask
            b = low.bit_length() - 1
            holders[b] |= 1 << i
            bits.append(b)
            mask ^= low
        bits_of.append(bits)
    own = [[(1 << b, holders[b]) for b in bits] for bits in bits_of]  # (class bit, its holders)
    # t disjoint masks hold at least sums[t] classes, the sizes of the t
    # smallest masks; fits[total] is the most masks that fit in `total` classes
    sums = [0, *itertools.accumulate(sorted(map(int.bit_count, masks)))]
    fits = [bisect.bisect_right(sums, total) - 1 for total in range(width + 1)]

    def capacity(classes: int) -> int:
        total = classes.bit_count()
        cap = fits[total]
        if lp_valid and 3 * cap > total:  # else cap <= total // 3 <= the rate
            rate = ((classes & pure).bit_count() + 2 * total) // 6  # (3p + 2q) // 6
            if rate < cap:  # compared, not min(): its calls were a third of a node's time
                return rate
        return cap

    conflicts: list[int | None] = [None] * size  # the holders of each mask's classes, ORed
    # one [cands, union, cap, tried] frame per chosen index and one for the
    # root.  `tried` is the index the frame chose last (-1: none yet); the
    # classes only it held leave `union` when the frame is next visited.  A
    # frame is done when even its capacity cannot beat best.
    chosen: list[int] = []
    stack = [[(1 << size) - 1, union, capacity(union), -1]]
    try:
        while stack:
            frame = stack[-1]
            cands, union, cap, ci = frame
            left = cands.bit_count()  # at most min(left, cap) more can be chosen
            if ci >= 0 and len(chosen) + (left if left < cap else cap) > len(best):
                for bit, held in own[ci]:  # the frame goes on: drop the classes only ci held
                    if not held & cands:
                        union ^= bit
                cap = capacity(union)
                frame[1], frame[2] = union, cap
            if len(chosen) + (left if left < cap else cap) <= len(best):
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            budget.tick()
            low = cands & -cands
            rest = cands ^ low
            ci = low.bit_length() - 1
            conf = conflicts[ci]
            if conf is None:
                conf = 0
                for bit, held in own[ci]:
                    conf |= held
                conflicts[ci] = conf
            chosen.append(ci)
            if len(chosen) > len(best):
                best = chosen.copy()
            frame[0], frame[3] = rest, ci
            lost = rest & conf  # the remaining candidates that meet masks[ci]
            child = rest ^ lost
            need = len(best) - len(chosen)
            left = child.bit_count()
            if left <= need:
                chosen.pop()
                continue
            if left <= 3 * lost.bit_count():
                sub, todo = 0, child
                while todo:
                    low = todo & -todo
                    sub |= masks[low.bit_length() - 1]
                    todo ^= low
            else:  # the frame's union less the classes that only ci and `lost` held
                sub, todo = union ^ masks[ci], lost
                while todo:
                    low = todo & -todo
                    for bit, held in own[low.bit_length() - 1]:
                        if sub & bit and not held & child:
                            sub ^= bit
                    todo ^= low
            cap = capacity(sub)
            if cap <= need:
                chosen.pop()
                continue
            stack.append([child, sub, cap, -1])
    except _Spent:
        return best, False
    return best, True


def _orbit_representatives(n: int, m: int, k: int) -> Iterator[Codeword]:
    """Normalized weight-k codewords on I_n x Z_m, one per translation orbit.

    A normalized codeword starts with (r0, 0), r0 its lowest row, so only
    (r0, 0) plus k - 1 later cells of rows >= r0 are tried, and a codeword is
    kept when it is its own normal form.  Yields them in lexicographic order.
    """
    for r0 in range(n):
        later = [(i, x) for i in range(r0, n) for x in range(m)][1:]
        for rest in itertools.combinations(later, k - 1):
            cw = ((r0, 0),) + rest
            if normalize(cw, m) == cw:
                yield cw


def optimal_search(
    n: int, m: int, lambda_a: int = 2, config: SearchConfig | None = None
) -> SearchOutcome:
    """Exhaustive maximum-size (n x m, 3, lambda_a, 1) code by backtracking.

    The candidates are the translation-orbit representatives, enumerated
    directly (`_orbit_representatives`) rather than by normalizing every
    3-subset of cells; the code is assembled in lexicographic order, which
    breaks the slot-shift symmetry.
    """
    budget = _Budget(config or SearchConfig())
    return _pack(CodeParams(n, m, 3, lambda_a, 1), _orbit_representatives(n, m, 3), budget)


def _pack(params: CodeParams, candidates: Iterable[Codeword], budget: _Budget) -> SearchOutcome:
    """The largest code of `params` whose codewords are candidates, each
    with an autocorrelation peak of at most lambda_a and no class shared.

    The time budget covers the mask build too: when it runs out there, the
    empty code returns, not proven optimal.
    """
    n, m = params.n, params.m
    kept, masks = [], []
    try:
        for cw in budget.paced(candidates):
            mask, peak = _codeword_mask(cw, n, m)
            if peak <= params.lambda_a:
                kept.append(cw)
                masks.append(mask)
    except _Spent:
        return _witness(Code(params, []), False, budget)
    chosen, complete = _max_packing(masks, _pure_classes(n, m), budget)
    return _witness(Code(params, [kept[i] for i in chosen]), complete, budget)


def _witness(code: Code, proven: bool, budget: _Budget) -> SearchOutcome:
    """The outcome of a search that returns `code`, verified first."""
    if not verify_code(code).passed:
        raise AssertionError("search produced an unverifiable witness")
    return SearchOutcome(code, code.size(), proven, budget.nodes, budget.elapsed())


def _equi_codewords(m: int) -> Iterator[Codeword]:
    """{0, a, 2a} on Z_m for the least generator a of each difference
    support {a, -a, 2a, -2a}, a ascending.

    A generator is kept when a < m/2 (so 2a is not 0) and, where 5a = 0
    makes 2a span the same support, when a < m - 2a as well.
    """
    for a in range(1, (m + 1) // 2):
        if 5 * a % m or 3 * a < m:
            yield (0, 0), (0, a), (0, 2 * a)


def equi_search(m: int, lambda_a: int = 2, config: SearchConfig | None = None) -> SearchOutcome:
    """Exact largest equi-difference code on Z_m with the given lambda_a.

    lambda_a = 2 searches 1-D (m,3,2,1) codes, lambda_a = 3 the
    conflict-avoiding relaxation.  Two codewords share a folded class
    exactly when their difference supports meet.
    """
    params = CodeParams(1, m, 3, lambda_a, 1)  # rejects lambda_a < 1 before the search
    return _pack(params, _equi_codewords(m), _Budget(config or SearchConfig()))


def tight_search(m: int, config: SearchConfig | None = None) -> SearchOutcome:
    """Partition Z_m minus zero into {0,a,2a} difference supports, if possible.

    Exact cover of the folded classes 1 .. m // 2 by the codewords' class
    keys; a completed run without a solution proves that no tight
    equi-difference conflict-avoiding code of length m exists.
    """
    params = CodeParams(1, m, 3, 3, 1)  # rejects m < 1 before the search
    budget = _Budget(config or SearchConfig())
    try:
        codewords = list(budget.paced(_equi_codewords(m)))
        rows = (tuple(sorted({key - 1 for key in _pair_classes(cw, 1, m)[0]})) for cw in codewords)
        picked, complete = _ExactCover(m // 2, rows, budget).solve(budget)
    except _Spent:
        picked, complete = None, False
    if picked is None:
        return SearchOutcome(None, 0, complete, budget.nodes, budget.elapsed())
    return _witness(Code(params, sorted(codewords[i] for i in picked)), True, budget)


# ---------------------------------------------------------------------------
# m-cyclic triple GDD of type (3m)^u, fixed by a rotation of the groups
# ---------------------------------------------------------------------------


def _gdd_candidates(u: int, m: int, order: int, budget: _Budget):
    """Row triples, cross-group row pair orbits, and the rotation they are under.

    Rows 3g, 3g + 1 and 3g + 2 form group g.  The rotation adds 1 mod N =
    `order` to each group below N, fixes the others and keeps each row's
    place in its group.  N is odd, so no rotation but the identity fixes a
    cross-group row pair.  Each pair maps to the first column of its orbit,
    p*m for orbit p, and a sign: a rotation that takes the orbit's first
    pair to it keeps a difference, or negates it when it reverses the pair.
    The triples lie on the first group triple of each orbit of N group
    triples; shorter orbits ({0, 3, 6} under Z_9) are left out.  Order 1 is
    the identity: each pair is its own orbit, with sign +1.
    """

    def turn(g: int, k: int) -> int:
        """Group g after k rotations."""
        return g if g >= order else (g + k) % order

    pair_orbit = {}  # cross-group row pair -> (first column of its orbit, sign)

    def pair_images() -> Iterator[tuple[int, int, int]]:
        """(r, s, k) for the first pair (r, s) of each orbit and k < N."""
        for r, s in itertools.combinations(range(3 * u), 2):
            if r // 3 != s // 3 and (r, s) not in pair_orbit:
                yield from ((r, s, k) for k in range(order))

    # paced per image, not per pair visited: an orbit holds N pairs
    for r, s, k in budget.paced(pair_images()):
        first = len(pair_orbit) // order * m  # each orbit before holds `order` pairs
        a, b = 3 * turn(r // 3, k) + r % 3, 3 * turn(s // 3, k) + s % 3
        pair_orbit[min(a, b), max(a, b)] = first, 1 if a < b else -1
    seen, triples = set(), []
    for groups in budget.paced(itertools.combinations(range(u), 3)):
        if groups not in seen:
            images = {tuple(sorted(turn(g, k) for g in groups)) for k in range(order)}
            seen |= images
            if len(images) == order:
                triples += itertools.product(*(range(3 * g, 3 * g + 3) for g in groups))
    return triples, pair_orbit, turn


def _shuffle(order: list[int], rng: random.Random, budget: _Budget) -> array.array:
    """`rng.shuffle(order)`, draw for draw, and the rank of each row id in
    the new order.

    For i from len - 1 down to 1, `random.shuffle` swaps position i with
    j = `rng._randbelow(i + 1)`: a draw of k = (i + 1).bit_length() bits,
    drawn again while j > i.  Here k is held over each run of i with the
    same width, so a draw is one `getrandbits` call.  Step i fixes position
    i for good, so its rank is written there.  The clock is read where
    `budget.paced` reads it, before draw 1024, 2048, ...
    """
    n = len(order)
    rank = array.array("l", [0]) * n  # no int object per row to free
    getrandbits = rng.getrandbits
    i, check = n - 1, n - 1024  # the next position to fix, the next clock read
    while i > 0:
        if i == check:
            budget.check()
            check -= 1024
        k = (i + 1).bit_length()
        stop = max(check, (1 << k - 1) - 2, 0)  # past this width's run, or at the next read
        for i in range(i, stop, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
            rank[order[i]] = i
        i = stop
    return rank  # the row left at position 0 keeps the fill's rank 0


def _first_cover(cover: _ExactCover, budget: _Budget, rng) -> list[int] | None:
    """The first cover found over restarts, each from a fresh random row
    order, or None once a restart searches its whole tree: no cover exists.
    The first restart gets a node per column and each later one twice as
    many (Luby, Sinclair & Zuckerman 1993), so an unlucky order is dropped
    early and the search stays complete."""
    order = list(range(len(cover.rows)))
    for restart in itertools.count():
        rank = _shuffle(order, rng, budget)
        picked, complete = cover.solve(budget, rank, len(cover.cols) << restart)
        if picked is not None or complete:
            return picked


def _gdd_matrix(u: int, m: int, order: int, budget: _Budget):
    """The exact cover of the class orbits by block orbits under the rotation
    of `_gdd_candidates` (Kramer-Mesner; Kaski & Ostergard 2006), and the step
    that develops picked row ids into base blocks.

    Column p*m + d is the orbit of the class with difference d on the first
    pair of pair orbit p.  Row (t*m + x2)*m + x3 is the orbit of the base
    block {(r1, 0), (r2, x2), (r3, x3)} on row triple t, left empty when its
    classes meet fewer than three class orbits.  Each picked row is
    developed into its N blocks.  At order 1 every row is a block and its
    three classes, and every column a class and the blocks on it.
    """
    triples, pair_orbit, turn = _gdd_candidates(u, m, order, budget)
    classes = list(range(len(pair_orbit) // order * m))  # one int object per class orbit

    def line(r: int, s: int) -> list[int]:
        """The columns of the classes (r, s, d), d in Z_m."""
        first, sign = pair_orbit[r, s]
        return [classes[first + sign * d % m] for d in range(m)]

    def rows() -> Iterator[Iterable[tuple[int, ...]]]:
        """Per triple and x2, its rows by x3 ascending."""
        for a, b, c in triples:
            ab, ac, bc = line(a, b), line(a, c), line(b, c)
            meet = len({pair_orbit[a, b][0], pair_orbit[a, c][0], pair_orbit[b, c][0]})
            for x2 in range(m):
                shifted = bc[m - x2 :] + bc[: m - x2]  # x3 - x2 for x3 ascending
                batch = zip(itertools.repeat(ab[x2], m), ac, shifted)
                yield batch if meet == 3 else (row if len(set(row)) == 3 else () for row in batch)

    def develop(picked: list[int]) -> list[Codeword]:
        """The base block of each picked row under each of the N rotations."""
        blocks = [list(zip(triples[c // (m * m)], (0, c // m % m, c % m))) for c in picked]
        return [
            tuple(sorted((3 * turn(r // 3, k) + r % 3, x) for r, x in block))
            for block in blocks
            for k in range(order)
        ]

    return _ExactCover(len(classes), itertools.chain.from_iterable(rows()), budget), develop


def _gdd_hill_climb(cover: _ExactCover, budget: _Budget, rng) -> list[int]:
    """Min-conflicts hill climb (Minton et al., 1992) for an exact cover of
    `cover`'s columns by rows of three columns each, as row ids.

    A greedy start places a third as many rows as there are columns; each
    move adds a row on a random uncovered column and drops one from a random
    column covered twice.  A stall restarts from a fresh greedy start, which
    counts no nodes.
    """
    rows, cols = cover.rows, cover.cols
    n_classes = len(cols)

    def pick(cands: list[int], level: int, best) -> int:
        """A random candidate among those with the `best` count of classes at `level`."""
        scores = [(cov[a], cov[b], cov[c]).count(level) for a, b, c in map(rows.__getitem__, cands)]
        top = best(scores)
        return rng.choice([b for b, s in zip(cands, scores) if s == top])

    def add(b: int) -> None:
        chosen[b] = cls = rows[b]
        for c in cls:
            cov[c] += 1
            if cov[c] == 1:
                uncovered.discard(c)
            elif cov[c] == 2:
                overcovered.add(c)

    def remove(b: int) -> None:
        for c in chosen.pop(b):
            cov[c] -= 1
            if cov[c] == 0:
                uncovered.add(c)
            elif cov[c] == 1:
                overcovered.discard(c)

    while True:
        cov = [0] * n_classes
        chosen: dict[int, tuple[int, ...]] = {}  # placed rows and their classes
        uncovered = set(range(n_classes))
        overcovered: set[int] = set()
        # greedy start: favour rows whose classes are all uncovered
        for _ in range(n_classes // 3):
            budget.check()
            add(pick(cols[rng.choice(tuple(uncovered))], 0, max))

        stall = 0
        best_deficit = len(uncovered)
        while uncovered:
            budget.tick()
            cands = cols[rng.choice(tuple(uncovered))]
            add(rng.choice(cands) if rng.random() < 0.02 else pick(cands, 0, max))
            oid = rng.choice(tuple(overcovered))
            victims = [b for b, cls in chosen.items() if oid in cls]
            remove(rng.choice(victims) if rng.random() < 0.02 else pick(victims, 1, min))
            if len(uncovered) < best_deficit:
                best_deficit = len(uncovered)
                stall = 0
            else:
                stall += 1
                if stall > 4000 + 40 * n_classes:
                    break  # restart from a fresh greedy state
        if not uncovered:
            return list(chosen)


def _gdd_search(u: int, m: int, config: SearchConfig, *orders: int) -> SearchOutcome:
    """Base blocks of an m-cyclic (3m)^u design, not validated: the caller
    checks them.  Each order in turn searches, on one budget and from a fresh
    `random.Random(config.seed)`, the designs fixed by the rotation of
    `_gdd_candidates` until one has a cover; only order 1, the identity,
    proves that none exists.  The hill climb runs at order 1 only and
    proves nothing."""
    budget = _Budget(config)
    if not gdd_exists(3, u, m):
        return SearchOutcome(None, 0, True, 0, budget.elapsed())
    proven = config.strategy != HILL_CLIMB  # the hill climb only hunts for a witness
    find = _first_cover if proven else _gdd_hill_climb
    blocks = None
    try:
        for order in orders if proven else (1,):
            cover, develop = _gdd_matrix(u, m, order, budget)
            picked = find(cover, budget, random.Random(config.seed))
            if picked is not None:
                blocks = develop(picked)
                break
            del cover  # the next order builds its matrix without this one
    except _Spent:
        proven = False
    if blocks is None:
        return SearchOutcome(None, 0, proven, budget.nodes, budget.elapsed())
    gdd = GddBaseBlocks(m, [[3 * t, 3 * t + 1, 3 * t + 2] for t in range(u)], sorted(blocks))
    return SearchOutcome(gdd, len(blocks), proven, budget.nodes, budget.elapsed())


def gdd_search(u: int, m: int, config: SearchConfig | None = None) -> SearchOutcome:
    """Base blocks of an m-cyclic triple GDD of type (3m)^u.

    Exact cover proves existence, or non-existence when it searches its
    whole tree; the hill-climb strategy only hunts for a witness.  Either
    way the witness is validated before being returned.
    """
    if u < 3:
        raise ValueError(f"need at least u = 3 groups, got {u}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    outcome = _gdd_search(u, m, config or SearchConfig(), 1)
    if outcome.best is not None:
        outcome.best.validate()
    return outcome
