"""Seeded operation lists for the three workloads.

A pass is a list of distinct operations.  The pass of workload ``w`` under
seed ``s`` is drawn from ``random.Random(f"{w}:{s}")``, so the same seed
always gives the same pass.  Parameters are drawn stratified: every family
gets one draw near each of a fixed number of log-spaced lengths, and the
search pools are split into cost groups with a fixed draw from each, so two
seeds issue different commands of nearly the same total cost.  A pass is
listed in the order it is drawn: family by family, ascending in length.

Only ``build-verify`` calls into oockit while generating, to render the code
documents that its ``verify`` operations read; that is set-up cost.  The other
workloads are generated without importing oockit.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("emit", "build-verify", "search")
EXPLICIT_IDS = ("1d48", "3x4", "3x8", "3x20", "3x32", "3x52")
EXPLICIT_SHAPE = {
    "1d48": (1, 48), "3x4": (3, 4), "3x8": (3, 8),
    "3x20": (3, 20), "3x32": (3, 32), "3x52": (3, 52),
}
# Odd r whose tight-derived family exists (r = 1,5 mod 12 admissible, or
# r = 3 mod 12 with r/3 admissible); checked against oockit.bounds in tests.
TIGHT_R = (5, 13, 15, 17, 25, 29, 37, 39, 41)
# Primes whose equi-difference base search takes milliseconds.
CHEAP_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv (with optional stdin) or a library call.

    ``check`` names the output check, ``meta`` carries what the check needs.
    ``deterministic`` is False for budget-bound searches, whose output
    depends on the clock; they are left out of the digests.
    """

    key: str
    check: str
    argv: tuple[str, ...] = ()
    stdin: str | None = None
    func: str = ""
    args: tuple = ()
    meta: dict = field(default_factory=dict, compare=False, hash=False)
    deterministic: bool = True

    @property
    def is_cli(self) -> bool:
        return not self.func


JITTER = 0.04
TIGHT_BASE_MAX_M = 12288


# ---------------------------------------------------------------------------
# parameter spaces (independent of oockit)
# ---------------------------------------------------------------------------


def _prime_factors(x: int) -> list[int]:
    out, p = [], 2
    while p * p <= x:
        if x % p == 0:
            out.append(p)
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        out.append(x)
    return out


def _order_of_two(p: int) -> int:
    order, acc = 1, 2 % p
    while acc != 1:
        acc = acc * 2 % p
        order += 1
    return order


def _in_s(s: int) -> bool:
    """s = 1,5 (mod 12), every prime p | s has p = 5 (mod 8) or p = 1 (mod 8)
    with 4 | ord_p(2)."""
    return s % 12 in (1, 5) and all(
        p % 8 == 5 or (p % 8 == 1 and _order_of_two(p) % 4 == 0)
        for p in _prime_factors(s)
    )


def three_row_ok(m: int) -> bool:
    """Lengths the three-row catalogue covers."""
    if m in (4, 8, 20, 32, 52) or m % 16 == 8 or m % 64 == 32:
        return True
    return (
        m % 48 in (4, 20)
        and m >= 68
        and _in_s(m // 4)
        and (m % 96 in (4, 68) or m >= 116)
    )


def tight_base_too_deep(m: int) -> bool:
    """Three-row lengths m = 4, 20 (mod 48) above TIGHT_BASE_MAX_M.

    Their tight partition of Z_{m/4} is found by a recursive exact-cover
    search that dies with RecursionError from about m = 15 600 on.
    """
    return m % 48 in (4, 20) and m > TIGHT_BASE_MAX_M


def log_centres(lo: float, hi: float, k: int) -> list[float]:
    """k points spaced evenly in log scale from lo to hi, both included."""
    return [lo * (hi / lo) ** (i / (k - 1)) for i in range(k)]


def stratified(rng: random.Random, cands: list, length, lo: int, hi: int, k: int) -> list:
    """One candidate near each of k log-spaced lengths over [lo, hi].

    The draw is uniform among the candidates within JITTER (in log scale) of
    the point; where lengths are sparser than that, the nearest candidate is
    taken.  Every seed thus issues commands of nearly the same cost, and the
    same number of them.  A candidate is drawn at most once.
    """
    picks, left = [], list(cands)
    for c in log_centres(lo, hi, k):
        dist = sorted((abs(math.log(length(x) / c)), i) for i, x in enumerate(left))
        near = [i for d, i in dist if d <= JITTER]
        if len(near) < 2:
            near = [i for _, i in dist[:1]]
        if near:
            picks.append(left.pop(rng.choice(near)))
    return picks


def _towers(bases, s_min: int, hi: int) -> list[tuple[int, int]]:
    """(s, base) pairs with 4^s * base <= hi."""
    return [
        (s, r) for r in bases for s in range(s_min, 12) if 4**s * r <= hi
    ]


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def _construct(family: str, meta: dict, *flags, fmt: str = "json") -> Op:
    argv = _argv("construct", family, *flags)
    if fmt != "json":
        argv += ("--format", fmt)
    check = "emit_matrix" if fmt == "matrix" else "emit_json"
    return Op(" ".join(argv), check, argv=argv, meta={"family": family, **meta})


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------

EMIT_MAX_M = 1100
# every pass emits these: the GDD search behind them sets the peak memory
EMIT_NXM = ((12, 20), (15, 8), (18, 8))


def emit_pass(rng: random.Random) -> list[Op]:
    """About 100 ``oockit construct`` commands over all nine families."""
    hi = EMIT_MAX_M
    ops: list[Op] = []
    for m in stratified(rng, [m for m in range(8, hi + 1) if three_row_ok(m)], int, 8, hi, 14):
        ops.append(_construct("3xm", {"n": 3, "m": m}, "--m", m))
    for m in stratified(rng, list(range(8, hi + 1, 4)), int, 8, hi, 14):
        ops.append(_construct("2xm", {"n": 2, "m": m}, "--m", m))
    for m in stratified(rng, list(range(10, hi + 1, 4)), int, 10, hi, 14):
        ops.append(_construct("equi2mod4", {"n": 1, "m": m}, "--m", m))
    for g in stratified(rng, list(range(2, hi // 4 + 1)), lambda g: 4 * g, 8, hi, 12):
        ops.append(_construct("gregular4g", {"n": 1, "m": 4 * g, "g": g}, "--g", g))
    power = _towers(range(6, hi, 4), 1, hi)
    for s, r in stratified(rng, power, lambda t: 4 ** t[0] * t[1], 24, hi, 14):
        variant = rng.choice(("standard", "half_free"))
        meta = {"n": 1, "m": 4**s * r}
        ops.append(_construct("power4", meta, "--s", s, "--r", r, "--variant", variant))
    tight = _towers(TIGHT_R, 0, hi)
    for s, r in stratified(rng, tight, lambda t: 4 ** t[0] * t[1], 5, hi, 10):
        ops.append(_construct("tight", {"n": 1, "m": 4**s * r}, "--r", r, "--s", s))
    prime = _towers(CHEAP_PRIMES, 0, hi)
    for s, p in stratified(rng, prime, lambda t: 4 ** t[0] * t[1], 5, hi, 10):
        ops.append(_construct("prime", {"n": 1, "m": 4**s * p}, "--p", p, "--s", s))
    for cid in rng.sample(EXPLICIT_IDS, 6):
        n, m = EXPLICIT_SHAPE[cid]
        ops.append(_construct("explicit", {"n": n, "m": m}, "--id", cid))
    for n, m in EMIT_NXM:
        ops.append(_construct("nxm", {"n": n, "m": m}, "--n", n, "--m", m))
    # a few small codes rendered as 0/1 matrices
    for m in stratified(rng, [m for m in range(8, 65) if three_row_ok(m)], int, 8, 64, 3):
        ops.append(_construct("3xm", {"n": 3, "m": m}, "--m", m, fmt="matrix"))
    for m in stratified(rng, list(range(8, 65, 4)), int, 8, 64, 3):
        ops.append(_construct("2xm", {"n": 2, "m": m}, "--m", m, fmt="matrix"))
    return ops


# ---------------------------------------------------------------------------
# build-verify
# ---------------------------------------------------------------------------

BUILD_MAX_M = 65408
DOC_MAX_M = 160
CATALOG_START = (600, 900)
CATALOG_WINDOWS = 10  # per row count
VERIFY_DOCS = 60
PLANTED_EVERY = 5


def _lib(func: str, meta: dict, *args) -> Op:
    key = f"{func}({', '.join(repr(a) for a in args)})"
    return Op(key, "build", func=func, args=args, meta=meta)


def _verify_doc_sources(rng: random.Random) -> list[tuple[str, tuple, dict]]:
    """(builder, args, meta) of the small codes whose documents get verified."""
    hi = DOC_MAX_M
    per_family = [
        ("ooc_3xm", [(m,) for m in range(8, hi + 1) if three_row_ok(m)], 3),
        ("ooc_2xm", [(m,) for m in range(8, hi + 1, 4)], 2),
        ("equi_2mod4", [(m,) for m in range(10, hi + 1, 4)], 1),
        ("g_regular_4g", [(g,) for g in range(2, hi // 4 + 1)], 1),
    ]
    picks = []
    for func, cands, n in per_family:
        length = (lambda c: 4 * c[0]) if func == "g_regular_4g" else (lambda c: c[0])
        for args in stratified(rng, cands, length, 8, hi, VERIFY_DOCS // 4):
            picks.append((func, args, {"n": n, "m": length(args)}))
    rng.shuffle(picks)
    return picks


def _plant_translate(doc: dict, rng: random.Random) -> dict:
    """Append a slot translate of one of the document's own codewords."""
    m = doc["params"]["m"]
    cws = doc["codewords"]
    while True:
        cw = rng.choice(cws)
        shift = rng.randrange(1, m)
        moved = sorted([r, (s + shift) % m] for r, s in cw)
        if moved != sorted(cw):
            break
    return {**doc, "codewords": cws + [moved]}


def build_verify_pass(rng: random.Random) -> list[Op]:
    """Library builds at large lengths, catalog windows, and document verifies."""
    from oockit import construct, document

    ops: list[Op] = []
    hi = BUILD_MAX_M
    power = _towers(range(6, 1023, 4), 0, hi)
    for variant in ("standard", "half_free"):
        cands = [t for t in power if variant == "standard" or t[0] >= 1]
        for s, r in stratified(rng, cands, lambda t: 4 ** t[0] * t[1], 24, hi, 8):
            ops.append(_lib("equi_power4", {"n": 1, "m": 4**s * r}, s, r, variant))
    three = [m for m in range(68, 16385) if three_row_ok(m) and not tight_base_too_deep(m)]
    for m in stratified(rng, three, int, 68, 16384, 6):
        ops.append(_lib("ooc_3xm", {"n": 3, "m": m}, m))
    for m in stratified(rng, list(range(8, 16385, 4)), int, 8, 16384, 6):
        ops.append(_lib("ooc_2xm", {"n": 2, "m": m}, m))
    for s, r in stratified(rng, _towers(TIGHT_R, 0, 16384), lambda t: 4 ** t[0] * t[1], 5, 16384, 5):
        ops.append(_lib("tight_derived", {"n": 1, "m": 4**s * r}, r, s))
    for s, p in stratified(rng, _towers(CHEAP_PRIMES, 0, 16384), lambda t: 4 ** t[0] * t[1], 5, 16384, 5):
        ops.append(_lib("prime_derived", {"n": 1, "m": 4**s * p}, p, s))
    for g in stratified(rng, list(range(2, 4097)), lambda g: 4 * g, 8, 16384, 5):
        ops.append(_lib("g_regular_4g", {"n": 1, "m": 4 * g}, g))
    # catalog windows of similar cost, one from each stratum of the start
    # range; they hold the 90th percentile of a pass
    lo, hi = CATALOG_START
    step = (hi - lo) // CATALOG_WINDOWS
    for n, width in ((2, 64), (3, 48)):
        for start in (lo + k * step + rng.randrange(step) for k in range(CATALOG_WINDOWS)):
            argv = _argv("catalog", "--n", n, "--m", f"{start}..{start + width - 1}")
            meta = {"n": n, "lo": start, "hi": start + width - 1}
            ops.append(Op(" ".join(argv), "catalog", argv=argv, meta=meta))
    for i, (func, args, meta) in enumerate(_verify_doc_sources(rng)):
        res = getattr(construct, func)(*args)
        doc = document.code_to_document(res.code, {"provenance": f"{func}{args}"})
        planted = i % PLANTED_EVERY == PLANTED_EVERY - 1
        if planted:
            doc = _plant_translate(doc, rng)
        text = json.dumps(doc, sort_keys=True, indent=2)
        key = f"verify {func}{args}" + (" planted" if planted else "")
        meta = {**meta, "planted": planted, "codewords": len(doc["codewords"])}
        ops.append(Op(key, "verify", argv=("verify", "-"), stdin=text, meta=meta))
    return ops


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# The search pools are grouped by cost: tiny (a few ms, mostly CLI start-up),
# small (up to ~30 ms), medium (up to ~300 ms) and heavy.  Every pass takes a
# fixed number of operations from each group, so the median operation lies
# inside the small group and the 90th percentile inside the medium group for
# every seed: a percentile at the edge of a group jumps with the draw.  Only
# tiny operations are drawn; the other groups are taken whole, with drawn
# ``--seed`` values where the command has one.  The exact-cover GDD searches
# of type (3m)^3, whose time grows smoothly with m, fill the small and medium
# groups around the two percentiles.
_PRIMES = [p for p in range(5, 114) if _prime_factors(p) == [p]]
OPTIMAL = {  # (n, m) packings the branch-and-bound proves optimal
    "tiny": [(1, m) for m in range(4, 11)] + [(2, 4), (2, 5), (3, 3)],
    "small": [(1, m) for m in range(11, 20)] + [(2, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 5), (4, 4)],
    "medium": [(1, m) for m in range(20, 29)] + [(4, 3)],
    "heavy": [(2, 10)],  # 66 k nodes; 3 x 6 (3.9 M nodes, ~10 s) would not fit three rounds
}
EQUI = {  # prime lengths for the equi-difference search, lambda 2 and 3
    "tiny": [p for p in _PRIMES if p <= 37],
    "small": [53, 59, 61, 67, 71, 79, 83],
    "medium": [109, 113],
    "heavy": [103],
}
TIGHT_M = list(range(5, 50, 2))  # tiny; longer lengths mix tiny and small times
GDD_EXACT = [(3, 3), (3, 5), (3, 7), (3, 9), (4, 2), (4, 4), (4, 6)]
GDD_SMALL = [(3, m) for m in range(11, 22, 2)]
GDD_MEDIUM = [(3, m) for m in range(23, 42, 4)]
GDD_HILL = (3, 3)  # the hill climb's time depends on its seed; (3, 3) stays medium
NXM = [(12, 24), (15, 24), (12, 40)]
FRONTIER = [(12, 56), (15, 40)]
BUDGET_BOUND = [(3, 12), (5, 7)]
BUDGET_SECONDS = 0.05


def _search(kind: str, meta: dict, *flags, check: str | None = None, det: bool = True) -> Op:
    argv = _argv("search", kind, *flags)
    return Op(" ".join(argv), check or f"search_{kind}", argv=argv,
              meta={"kind": kind, **meta}, deterministic=det)


def _optimal(n: int, m: int) -> Op:
    return _search("optimal", {"n": n, "m": m}, "--n", n, "--m", m)


def _equi(p: int, lam: int) -> Op:
    return _search("equi", {"m": p, "lambda_a": lam}, "--m", p, "--lambda-a", lam)


def search_pass(rng: random.Random) -> list[Op]:
    """About 120 oracle runs: fixed groups and a seeded draw of tiny ones."""
    ops: list[Op] = [_optimal(n, m) for group in OPTIMAL.values() for n, m in group]
    for m in rng.sample(TIGHT_M, 20):
        ops.append(_search("tight", {"m": m}, "--m", m))
    for lam in (2, 3):
        for p in rng.sample(EQUI["tiny"], 5) + EQUI["small"] + EQUI["medium"] + EQUI["heavy"]:
            ops.append(_equi(p, lam))
    for u, m in GDD_EXACT + GDD_SMALL + GDD_MEDIUM:
        ops.append(_search("gdd", {"u": u, "m": m, "strategy": "exact_cover"}, "--u", u, "--m", m,
                           "--strategy", "exact_cover", "--seed", rng.randrange(1000)))
    u, m = GDD_HILL
    for seed in rng.sample(range(1000), 3):
        ops.append(_search("gdd", {"u": u, "m": m, "strategy": "hill_climb_restart"}, "--u", u,
                           "--m", m, "--strategy", "hill_climb_restart", "--seed", seed))
    for n, m in BUDGET_BOUND:
        ops.append(_search("optimal", {"n": n, "m": m, "budget": True}, "--n", n, "--m", m,
                           "--budget-seconds", BUDGET_SECONDS, check="search_budget", det=False))
    for n, m in NXM:
        ops.append(_construct("nxm", {"n": n, "m": m}, "--n", n, "--m", m))
    for n, m in FRONTIER:
        op = _construct("nxm", {"n": n, "m": m, "frontier": True}, "--n", n, "--m", m)
        ops.append(Op(op.key, "frontier", argv=op.argv, meta=op.meta))
    return ops


def build_pass(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "emit":
        ops = emit_pass(rng)
    elif workload == "build-verify":
        ops = build_verify_pass(rng)
    elif workload == "search":
        ops = search_pass(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    keys = [op.key for op in ops]
    if len(set(keys)) != len(keys):
        raise AssertionError(f"{workload}: an operation repeats within a pass")
    return ops
