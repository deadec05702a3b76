"""One digest over a sweep of construction results.

The sha256 covers, for every result in order, its branch, claimed size,
sorted claimed leave and codewords in order.  It was recorded before the
quadrupling leave of the 1-D towers was stated once (now in `construct._tower`),
so a changed leave formula, generator order or codeword list shows here.
"""

import hashlib

from oockit.construct import (
    EXPLICIT_IDS,
    HALF_FREE,
    STANDARD,
    equi_2mod4,
    equi_power4,
    explicit_code,
    fill_regular,
    g_regular_4g,
    ooc_3xm,
    prime_derived,
    quadruple,
    tight_derived,
)
from oockit.core import UnsupportedParameterError

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


def _built(build, *args):
    try:
        return [build(*args)]
    except UnsupportedParameterError:
        return []


def _sweep():
    for variant, s0 in ((STANDARD, 0), (HALF_FREE, 1)):
        for s in range(s0, 7):
            for r in range(2, min(64, 8192 // 4**s + 1), 4):
                yield equi_power4(s, r, variant)
    for g in range(1, 150):
        yield g_regular_4g(g)
    for r in range(1, 200, 2):  # tight_derived rejects r outside its two classes
        for s in range(3):
            yield from _built(tight_derived, r, s)
    for p in PRIMES:
        for s in range(3):
            yield prime_derived(p, s)
    for r in range(2, 60, 4):
        yield quadruple(equi_2mod4(r))
        yield fill_regular(g_regular_4g(r), equi_2mod4(r))
    for r in (1, 3, 5, 13, 15, 17, 25, 29):
        yield quadruple(tight_derived(r, 0))
    for p in PRIMES[:4]:
        yield quadruple(prime_derived(p, 0))
    for code_id in EXPLICIT_IDS:
        yield explicit_code(code_id)
    for m in range(1, 600):
        yield from _built(ooc_3xm, m)


def _digest() -> tuple[str, int]:
    h = hashlib.sha256()
    count = 0
    for res in _sweep():
        leave = None if res.claimed_leave is None else sorted(res.claimed_leave)
        h.update(repr((res.branch, res.claimed_size, leave, res.code.codewords)).encode())
        count += 1
    return h.hexdigest(), count


SWEEP_DIGEST = "587bee547fe0f3c0b6db6f5c9af15c3370ffa2f1ef915ab3fc91fb097b3fe52f"
SWEEP_SIZE = 547


def test_construction_sweep_is_unchanged():
    assert _digest() == (SWEEP_DIGEST, SWEEP_SIZE)
