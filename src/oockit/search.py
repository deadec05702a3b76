"""Brute-force oracles: exhaustive code search, equi-difference search,
tight-cover search, and cyclic group-divisible-design base block search.

These are the ground truth the closed-form bounds and the constructions are
tested against; they share a budget tracker and are deterministic for a
fixed seed and budget.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import time
from collections.abc import Iterable, Iterator
from dataclasses import InitVar, dataclass, field

from .core import Code, CodeParams, Codeword, make_codeword, normalize
from .bounds import gdd_exists
from .verify import _pair_classes, verify_code

EXACT_COVER = "exact_cover"
HILL_CLIMB = "hill_climb_restart"


@dataclass(frozen=True)
class SearchConfig:
    time_budget: float = 60.0
    node_budget: int = 10**9
    strategy: str = EXACT_COVER  # gdd_search only; optimal and equi search ignore it
    seed: int = 0

    def __post_init__(self):  # a NaN budget compares False with everything: no stop
        if math.isnan(self.time_budget) or math.isnan(self.node_budget):
            raise ValueError("a search budget must not be NaN")


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


class _Budget:
    """Node and wall-clock budget shared by a search call."""

    def __init__(self, config: SearchConfig):
        self.t0 = time.monotonic()
        self.deadline = self.t0 + config.time_budget
        self.node_budget = config.node_budget
        self.nodes = 0
        self.exhausted = False

    def tick(self, k: int = 1) -> bool:
        """Count k nodes; the clock is read on the first tick, then once per 16."""
        self.nodes += k
        if self.nodes >= self.node_budget:
            self.exhausted = True
        elif (self.nodes % 16 < k or self.nodes == k) and time.monotonic() > self.deadline:
            self.exhausted = True
        return not self.exhausted

    def check_time(self) -> bool:
        """Read the clock without counting a node; False once the budget is spent."""
        if time.monotonic() > self.deadline:
            self.exhausted = True
        return not self.exhausted

    def elapsed(self) -> float:
        return time.monotonic() - self.t0


# ---------------------------------------------------------------------------
# exact cover (dancing links)
# ---------------------------------------------------------------------------


class _ExactCover:
    """Array-based dancing links; rows are tuples of column indices.  Their
    nodes are built once, reading the clock once per 4096 rows (a spent budget
    stops the build there), and each `solve` threads them afresh, so one matrix
    serves every restart, a half-covered one left by a spent budget too."""

    def __init__(self, n_cols: int, rows: Iterable[tuple[int, ...]], budget: _Budget):
        self.n_cols = n_cols
        # one int object per node index, shared by every link list that names it
        self.L = L = list(range(n_cols + 1))
        self.R = R = L.copy()
        self.C = C = L.copy()  # a header is its own column, so r == C[r] ends a column
        self.sizes = sizes = [0] * (n_cols + 1)
        self.starts = starts = []  # first node of each row, then the end
        node = n_cols + 1
        for rid, cols in enumerate(rows):
            if rid % 4096 == 4095 and not budget.check_time():
                break
            ids = list(range(node, node + len(cols)))
            starts.append(node)
            L += ids[-1:] + ids[:-1]
            R += ids[1:] + ids[:1]
            for col in cols:
                C.append(C[col + 1])
                sizes[col + 1] += 1
            node += len(cols)
        starts.append(node)
        self.U, self.D = [0] * node, [0] * node

    def _cover(self, c: int) -> None:
        L, R, U, D, C, S = self.L, self.R, self.U, self.D, self.C, self.S
        R[L[c]] = R[c]
        L[R[c]] = L[c]
        i = D[c]
        while i != c:
            j = R[i]
            while j != i:
                D[U[j]] = D[j]
                U[D[j]] = U[j]
                S[C[j]] -= 1
                j = R[j]
            i = D[i]

    def _uncover(self, c: int) -> None:
        L, R, U, D, C, S = self.L, self.R, self.U, self.D, self.C, self.S
        i = U[c]
        while i != c:
            j = L[i]
            while j != i:
                S[C[j]] += 1
                D[U[j]] = j
                U[D[j]] = j
                j = L[j]
            i = U[i]
        R[L[c]] = c
        L[R[c]] = c

    def solve(self, budget: _Budget, order: Iterable[int] | None = None) -> list[int] | None:
        """First solution as row ids, or None.

        None proves that no solution exists unless `budget.exhausted` is set.
        Every header is relinked and each column's rows are threaded top to
        bottom in `order` (default: as built), reading the clock once per
        4096 rows.  Then Algorithm X with an explicit level stack (Knuth,
        TAOCP 7.2.2.1): `rows` holds the row node tried at each level.
        """
        n_cols, L, R, U, D, C = self.n_cols, self.L, self.R, self.U, self.D, self.C
        for c in range(n_cols + 1):
            L[c], R[c], U[c], D[c] = c - 1, c + 1, c, c
        L[0], R[n_cols] = n_cols, 0
        self.S = S = self.sizes.copy()
        starts = self.starts
        for k, rid in enumerate(range(len(starts) - 1) if order is None else order):
            if k % 4096 == 4095 and not budget.check_time():
                return None
            first = node = starts[rid]
            while True:
                h = C[node]
                up = U[h]
                U[node], D[node], D[up], U[h] = up, h, node, node
                node = R[node]
                if node == first:
                    break
        rows: list[int] = []
        while R[0] != 0:
            c = R[0]
            best, j = S[c], R[c]
            while j != 0:
                if S[j] < best:
                    best, c = S[j], j
                j = R[j]
            self._cover(c)
            r = D[c]
            while r == C[r]:  # column exhausted: back up one level
                self._uncover(r)
                if not rows:
                    return None
                r = rows.pop()
                j = L[r]
                while j != r:
                    self._uncover(C[j])
                    j = L[j]
                r = D[r]
            if not budget.tick():
                return None
            rows.append(r)
            j = R[r]
            while j != r:
                self._cover(C[j])
                j = R[j]
        return [bisect.bisect_right(starts, r) - 1 for r in rows]


# ---------------------------------------------------------------------------
# maximum packing over canonical difference classes
# ---------------------------------------------------------------------------


def _codeword_mask(cw: Codeword, n: int, m: int) -> tuple[int, int, int, int]:
    """(mask, pure class count, mixed class count, autocorrelation peak).

    Bits are `verify_code`'s class keys.  The peak counts each pure
    difference over all rows; the half period counts twice.
    """
    keys, pure = _pair_classes(cw, n, m)
    classes, p = set(keys), len(set(pure))
    diffs = [key % m for key in pure]
    peak = max(map(diffs.count, diffs), default=0)
    return sum(1 << key for key in classes), p, len(classes) - p, peak


def _max_packing(
    masks: list[int],
    usage: list[tuple[int, int]],
    pure_capacity: int,
    mixed_capacity: int,
    budget: _Budget,
) -> tuple[list[int], bool]:
    """Largest set of indices with pairwise disjoint masks.

    Uses the capacity bound: with p pure bits and q mixed bits free, at most
    floor(p/2 + q/3) weight-3 codewords can still fit (every codeword burns
    at least two pure bits, or one pure and two mixed, or three mixed).
    """
    best: list[int] = []
    order = list(range(len(masks)))
    min_bits = max(min((p + q for p, q in usage), default=1), 1)
    # the p/2 + q/3 rate bound is valid only when every candidate pays
    # at least that rate (true for weight-3 codewords)
    lp_valid = all(3 * p + 2 * q >= 6 for p, q in usage)

    def capacity(p_free: int, q_free: int) -> int:
        cap = (p_free + q_free) // min_bits
        if lp_valid:
            cap = min(cap, (3 * p_free + 2 * q_free) // 6)
        return cap

    # one [cands, pos, used, cap, p_free, q_free] frame per chosen index and
    # one for the root; a frame is done when even its capacity cannot beat best
    chosen: list[int] = []
    stack = [[order, 0, 0, capacity(pure_capacity, mixed_capacity), pure_capacity, mixed_capacity]]
    while stack:
        frame = stack[-1]
        cands, pos, used, cap, p_free, q_free = frame
        if len(chosen) + min(len(cands) - pos, cap) <= len(best):
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        if not budget.tick():
            return best, False
        frame[1] = pos + 1
        ci = cands[pos]
        nxt = used | masks[ci]
        rest = [cj for cj in cands[pos + 1 :] if masks[cj] & nxt == 0]
        chosen.append(ci)
        if len(chosen) > len(best):
            best = chosen.copy()
        p_free -= usage[ci][0]
        q_free -= usage[ci][1]
        stack.append([rest, 0, nxt, capacity(p_free, q_free), p_free, q_free])
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
    breaks the slot-shift symmetry.  The time budget covers this setup too:
    when it runs out there, the empty code returns, not proven optimal.
    """
    config = config or SearchConfig()
    budget = _Budget(config)
    params = CodeParams(n, m, 3, lambda_a, 1)
    candidates, masks, usage = [], [], []
    for idx, cw in enumerate(_orbit_representatives(n, m, 3)):
        # the clock is read once per 1024 candidates and adds no nodes, so a
        # search that finishes reports the same outcome as without the check
        if idx % 1024 == 1023 and not budget.check_time():
            return _witness(Code(params, []), False, budget)
        mask, p, q, peak = _codeword_mask(cw, n, m)
        if peak <= lambda_a:
            candidates.append(cw)
            masks.append(mask)
            usage.append((p, q))
    chosen, complete = _max_packing(masks, usage, n * (m // 2), n * (n - 1) // 2 * m, budget)
    return _witness(Code(params, [candidates[i] for i in chosen]), complete, budget)


def _witness(code: Code, proven: bool, budget: _Budget) -> SearchOutcome:
    """The outcome of a search that returns `code`, verified first."""
    if not verify_code(code).passed:
        raise AssertionError("search produced an unverifiable witness")
    return SearchOutcome(code, code.size(), proven, budget.nodes, budget.elapsed())


def _triple(m: int, a: int) -> Codeword:
    """The codeword {0, a, 2a} of Z_m."""
    return make_codeword(((0, 0), (0, a % m), (0, 2 * a % m)))


def _equi_vertices(m: int, lambda_a: int) -> list[tuple[int, frozenset[int]]]:
    """Generators of distinct {0, a, 2a} difference supports, smallest first.

    A generator is dropped when its codeword's autocorrelation peak exceeds
    lambda_a: three at 3a = 0 (mod m), else two.
    """
    by_support: dict[frozenset[int], int] = {}
    for a in range(1, m):
        if (2 * a) % m == 0:
            continue
        if _codeword_mask(_triple(m, a), 1, m)[3] > lambda_a:
            continue
        supp = frozenset({a, m - a, (2 * a) % m, (m - 2 * a) % m})
        by_support.setdefault(supp, a)
    return sorted((a, supp) for supp, a in by_support.items())


def equi_search(m: int, lambda_a: int = 2, config: SearchConfig | None = None) -> SearchOutcome:
    """Exact largest equi-difference code on Z_m with the given lambda_a.

    lambda_a = 2 searches 1-D (m,3,2,1) codes, lambda_a = 3 the
    conflict-avoiding relaxation.
    """
    params = CodeParams(1, m, 3, lambda_a, 1)  # rejects lambda_a < 1 before the search
    config = config or SearchConfig()
    budget = _Budget(config)
    verts = _equi_vertices(m, lambda_a)
    masks = [sum(1 << d for d in supp) for _, supp in verts]
    # every support holds at least two of the m - 1 differences, so the p/2
    # rate bound of _max_packing never prunes below free // (smallest support)
    usage = [(len(supp), 0) for _, supp in verts]
    best, complete = _max_packing(masks, usage, m - 1, 0, budget)
    return _witness(Code(params, [_triple(m, verts[i][0]) for i in best]), complete, budget)


def tight_search(m: int, config: SearchConfig | None = None) -> SearchOutcome:
    """Partition Z_m minus zero into {0,a,2a} difference supports, if possible.

    Exact cover search; a completed run without a solution proves that no
    tight equi-difference conflict-avoiding code of length m exists.
    """
    params = CodeParams(1, m, 3, 3, 1)  # rejects m < 1 before the search
    config = config or SearchConfig()
    budget = _Budget(config)
    verts = _equi_vertices(m, lambda_a=3)
    rows = [tuple(sorted(d - 1 for d in supp)) for _, supp in verts]
    picked = _ExactCover(m - 1, rows, budget).solve(budget)
    if picked is None:
        return SearchOutcome(None, 0, not budget.exhausted, budget.nodes, budget.elapsed())
    gens = sorted(verts[i][0] for i in picked)
    return _witness(Code(params, [_triple(m, a) for a in gens]), True, budget)


# ---------------------------------------------------------------------------
# m-cyclic triple GDD of type (3m)^u
# ---------------------------------------------------------------------------


def _gdd_candidates(u: int, m: int):
    """Row triples, cross-group row pairs, and each triple's class offsets.

    Rows 3g, 3g + 1 and 3g + 2 form group g.  Class p*m + d is row pair p
    with difference d.  Candidate (t*m + x2)*m + x3 is the normalized base
    block {(r1, 0), (r2, x2), (r3, x3)} on row triple t, three rows in
    distinct groups; its classes are the offsets of (r1, r2), (r1, r3) and
    (r2, r3) plus x2, x3 and x3 - x2 (mod m).
    """
    n = 3 * u
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if i // 3 != j // 3]
    pair_id = {pr: p for p, pr in enumerate(pairs)}
    triples = [
        triple
        for groups in itertools.combinations(range(u), 3)
        for triple in itertools.product(*(range(3 * g, 3 * g + 3) for g in groups))
    ]
    offsets = [(pair_id[a, b] * m, pair_id[a, c] * m, pair_id[b, c] * m) for a, b, c in triples]
    return triples, pairs, offsets


def _gdd_block(triples: list[tuple[int, int, int]], m: int, c: int) -> Codeword:
    (r1, r2, r3), x2, x3 = triples[c // (m * m)], c // m % m, c % m
    return (r1, 0), (r2, x2), (r3, x3)


def _shuffle(order: list[int], rng: random.Random, budget: _Budget) -> bool:
    """`rng.shuffle(order)`, draw for draw, reading the clock once per 4096
    swaps; False, with `order` part shuffled, once the budget is spent."""
    randbelow = rng._randbelow  # the draws random.shuffle makes
    for i in reversed(range(1, len(order))):
        if i % 4096 == 0 and not budget.check_time():
            return False
        j = randbelow(i + 1)
        order[i], order[j] = order[j], order[i]
    return budget.check_time()


def _gdd_exact_cover(u: int, m: int, budget: _Budget, rng) -> list[Codeword] | None:
    """Exact cover of the cross-group classes by the `_gdd_candidates`."""
    triples, pairs, offsets = _gdd_candidates(u, m)

    def rows() -> Iterator[tuple[int, int, int]]:
        for c12, c13, c23 in offsets:
            for x2 in range(m):
                for x3 in range(m):
                    yield c12 + x2, c13 + x3, c23 + (x3 - x2) % m

    cover = _ExactCover(len(pairs) * m, rows(), budget)
    order = list(range(len(triples) * m * m))
    restart = 0
    while _shuffle(order, rng, budget):
        # the first slice costs about as much as threading the rows and each
        # later one doubles, so threading never dominates and an unlucky order
        # is dropped early; no restart outlives the caller's node or time budget
        nodes_left = budget.node_budget - budget.nodes
        time_left = budget.deadline - time.monotonic()
        slice_budget = _Budget(SearchConfig(time_left, min(len(order) << restart, nodes_left)))
        restart += 1
        picked = cover.solve(slice_budget, order)
        budget.tick(slice_budget.nodes)
        if picked is not None:
            return [_gdd_block(triples, m, c) for c in picked]
        if not slice_budget.exhausted:
            return None  # the whole tree is searched: no cover exists
    return None


def _gdd_hill_climb(u: int, m: int, budget: _Budget, rng) -> list[Codeword] | None:
    """Min-conflicts hill climb (Minton et al., 1992) on `_gdd_candidates`.

    A greedy start places as many blocks as a design has; each move adds a
    block on a random uncovered class and drops one from a random class
    covered twice.  A stall restarts from a fresh greedy start, which counts
    no nodes.
    """
    triples, pairs, offsets = _gdd_candidates(u, m)
    n, mm = 3 * u, m * m
    n_classes = len(pairs) * m
    target = m * n * (n - 3) // 6
    triple_id = {triple: t for t, triple in enumerate(triples)}

    def classes(b: int) -> tuple[int, int, int]:
        c12, c13, c23 = offsets[b // mm]
        x2, x3 = b // m % m, b % m
        return c12 + x2, c13 + x3, c23 + (x3 - x2) % m

    def covering(cid: int) -> list[int]:
        """Candidates on class cid's pair (i, j): third row t ascending, then its slot z."""
        (i, j), d = pairs[cid // m], cid % m
        out: list[int] = []
        for t in range(n):
            if t // 3 == i // 3 or t // 3 == j // 3:
                continue
            if t < i:  # {(t, z), (i, 0), (j, d)} shifted by -z
                first = triple_id[t, i, j] * mm
                out += [first + (-z % m) * m + (d - z) % m for z in range(m)]
            elif t < j:
                first = triple_id[i, t, j] * mm + d
                out += range(first, first + mm, m)
            else:
                first = (triple_id[i, j, t] * m + d) * m
                out += range(first, first + m)
        return out

    def pick(cands: list[int], level: int, best) -> int:
        """A random candidate among those with the `best` count of classes at `level`."""
        scores = [(cov[a], cov[b], cov[c]).count(level) for a, b, c in map(classes, cands)]
        top = best(scores)
        return rng.choice([b for b, s in zip(cands, scores) if s == top])

    def add(b: int) -> None:
        chosen[b] = cls = classes(b)
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

    while not budget.exhausted:
        cov = [0] * n_classes
        chosen: dict[int, tuple[int, int, int]] = {}  # placed blocks and their classes
        uncovered = set(range(n_classes))
        overcovered: set[int] = set()
        # greedy start: favour blocks whose classes are all uncovered
        for _ in range(target):
            if not budget.check_time():
                return None
            add(pick(covering(rng.choice(tuple(uncovered))), 0, max))

        stall = 0
        best_deficit = len(uncovered)
        while uncovered and budget.tick():
            cands = covering(rng.choice(tuple(uncovered)))
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
            return [_gdd_block(triples, m, b) for b in chosen]
    return None


def gdd_search(u: int, m: int, config: SearchConfig | None = None) -> SearchOutcome:
    """Base blocks of an m-cyclic triple GDD of type (3m)^u.

    Exact cover proves existence, or non-existence when it searches its
    whole tree; the hill-climb strategy only hunts for a witness.  Either
    way the witness is validated before being returned.
    """
    if u < 3:
        raise ValueError(f"need at least u = 3 groups, got {u}")
    config = config or SearchConfig()
    budget = _Budget(config)
    if not gdd_exists(3, u, m):
        return SearchOutcome(None, 0, True, 0, budget.elapsed())
    rng = random.Random(config.seed)
    if config.strategy == HILL_CLIMB:
        blocks = _gdd_hill_climb(u, m, budget, rng)
        proven = False
    else:
        blocks = _gdd_exact_cover(u, m, budget, rng)
        proven = blocks is not None or not budget.exhausted
    if blocks is None:
        return SearchOutcome(None, 0, proven, budget.nodes, budget.elapsed())
    gdd = GddBaseBlocks(m, [[3 * t, 3 * t + 1, 3 * t + 2] for t in range(u)], sorted(blocks))
    gdd.validate()
    return SearchOutcome(gdd, len(blocks), proven, budget.nodes, budget.elapsed())

