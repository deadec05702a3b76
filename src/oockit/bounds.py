"""Closed-form sizes, upper bounds, and number-theoretic admissibility tests.

Every report carries a branch tag naming the residue class or special case
that produced the value, plus the sub-values it depended on.  Each exact
size is the cap of `phi_upper_bound` or `psi_e_upper_bound`, met in the
classes `phi_exact` and `psi_e_exact` name; the two exceptions are
Phi(1, 64) = 13 and the me(p) shortfall of a prime base.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import UnsupportedParameterError

EXACT = "exact"
UPPER_BOUND = "upper_bound"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class BoundReport:
    value: int | None
    kind: str  # exact | upper_bound | unknown
    branch: str
    dependencies: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class FactorClause:
    prime: int
    exponent: int
    order_of_two: int | None
    satisfied: bool


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    expected_size: int | None
    factors: tuple[FactorClause, ...] = ()


def mult_order(a: int, m: int) -> int:
    """Least l >= 1 with a^l = 1 (mod m)."""
    if m < 2:
        raise ValueError(f"need modulus m >= 2, got {m}")
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    order, acc = 1, a
    while acc != 1:
        acc = (acc * a) % m
        order += 1
    return order


def prime_factorization(x: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs by trial division; fine at desk scale."""
    if x < 1:
        raise ValueError(f"need a positive integer, got {x}")
    out = []
    for p in _trial_primes(x):
        if p * p > x:
            break
        if x % p == 0:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            out.append((p, e))
    if x > 1:
        out.append((x, 1))
    return out


def _trial_primes(x: int):
    yield 2
    yield 3
    p = 5
    while p * p <= x:
        yield p
        yield p + 2
        p += 6


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    return prime_factorization(x) == [(x, 1)]


def pow4_decompose(m: int) -> tuple[int, int]:
    """Largest s with m = 4^s * r and 4 not dividing r."""
    s = 0
    while m % 4 == 0:
        m //= 4
        s += 1
    return s, m


def cac_optimal_size(m: int) -> BoundReport:
    """Exact size of a largest weight-3 conflict-avoiding code of even length."""
    if m < 2 or m % 2 != 0:
        raise UnsupportedParameterError(
            f"conflict-avoiding sizes are closed-form for even m >= 2 only, got {m}"
        )
    if m == 48:
        return BoundReport(10, EXACT, "cac/m48_exception")
    if m == 64:
        return BoundReport(13, EXACT, "cac/m64_exception")
    if m % 4 == 2:
        return BoundReport((m - 2) // 4, EXACT, "cac/2mod4")
    u = m % 24
    if u == 0:
        return BoundReport((7 * m + 16) // 32, EXACT, "cac/0mod24")
    if u in (4, 20):
        return BoundReport((7 * m + 4) // 32, EXACT, "cac/4or20mod24")
    if u in (8, 16):
        return BoundReport(7 * m // 32, EXACT, "cac/8or16mod24")
    # u == 12 is the only residue left for even m
    return BoundReport((7 * m + 20) // 32, EXACT, "cac/12mod24")


def psi_e_upper_bound(m: int) -> BoundReport:
    """Recursive cap on the size of equi-difference 1-D (m,3,2,1) codes."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m % 4 != 0:
        return BoundReport((m - 1) // 4, UPPER_BOUND, "psi_e_ub/non0mod4")
    sub = psi_e_upper_bound(m // 4)
    return BoundReport(
        (m + 7) // 8 + sub.value,
        UPPER_BOUND,
        "psi_e_ub/0mod4",
        ((f"psi_e_ub({m // 4})", sub.value),),
    )


def me_prime(p: int) -> BoundReport:
    """Exact size of a largest equi-difference conflict-avoiding code of prime length."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime p >= 5, got {p}")
    e = mult_order(2, p)
    if e % 2 == 0:
        value = ((p - 1) // e) * (e // 4)
    else:
        value = ((p - 1) // (2 * e)) * (e // 2)
    return BoundReport(value, EXACT, "me/prime", ((f"ord_{p}(2)", e),))


def tight_admissible(m: int) -> AdmissibilityReport:
    """Whether a tight equi-difference conflict-avoiding code of length m exists.

    Admissible iff m = 4, or m = 3^f * m0 with f <= 1 where every prime
    p | m0 has p = 1 (mod 4) and, when p = 1 (mod 8), ord_p(2) divisible
    by 4.  m = 1 is trivially admissible (empty code).  Also reports the
    tight size: 1 at m = 4, (m-1)/4 at m = 1,5 (mod 12), (m+1)/4 at
    m = 3 (mod 12).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m == 4:
        return AdmissibilityReport(True, 1, (FactorClause(2, 2, None, True),))
    clauses = []
    for p, e in prime_factorization(m):
        if p == 2:
            order = None
            ok = False
        elif p == 3:
            order = mult_order(2, p)
            ok = e <= 1
        else:
            order = mult_order(2, p)
            ok = p % 4 == 1 and (p % 8 != 1 or order % 4 == 0)
        clauses.append(FactorClause(p, e, order, ok))
    admissible = all(c.satisfied for c in clauses)
    if not admissible:
        size = None
    elif m % 12 in (1, 5):
        size = (m - 1) // 4
    else:  # admissible odd m falls in 1, 3, 5 mod 12 only
        size = (m + 1) // 4
    return AdmissibilityReport(admissible, size, tuple(clauses))


def in_S(s: int) -> bool:
    """Membership in the admissible class used by the mod-48 exact branch.

    s = 1,5 (mod 12) and s is tight-admissible; for such s that means every
    prime p | s has p = 5 (mod 8), or p = 1 (mod 8) together with 4 | ord_p(2).
    """
    return s % 12 in (1, 5) and tight_admissible(s).admissible


def psi_e_exact(m: int) -> BoundReport:
    """Exact equi-difference 1-D size where it is known.

    Decomposes m = 4^s * r with 4 not dividing r.  The size is the cap of
    `psi_e_upper_bound` at r = 2 (mod 4) and in the two tight classes of r;
    at a prime r >= 5 outside them it is the cap less (r-1)/4 - me(r), the
    shortfall of a largest base on Z_r.  Elsewhere the report is `unknown`
    with the cap attached.
    """
    cap = psi_e_upper_bound(m).value
    s, r = pow4_decompose(m)
    deps: tuple[tuple[str, int], ...] = (("s", s), ("r", r))
    if r % 4 == 2:
        return BoundReport(cap, EXACT, "psi_e/tower_2mod4", deps)
    if in_S(r):
        return BoundReport(cap, EXACT, "psi_e/tight_1or5mod12", deps)
    if r % 12 == 3 and tight_admissible(r // 3).admissible:
        return BoundReport(cap, EXACT, "psi_e/tight_3mod12", deps)
    if r >= 5 and is_prime(r):
        me = me_prime(r)
        value = cap - (r - 1) // 4 + me.value
        return BoundReport(value, EXACT, "psi_e/prime", deps + ((f"me({r})", me.value),))
    return BoundReport(None, UNKNOWN, "psi_e/unknown", (("upper_bound", cap),))


def _psi_e_best(m: int) -> tuple[int, str]:
    """Best available equi-difference size: exact if known, else the cap."""
    exact = psi_e_exact(m)
    if exact.value is not None:
        return exact.value, f"psi_e({m})"
    return dict(exact.dependencies)["upper_bound"], f"psi_e_ub({m})"


def phi_upper_bound(n: int, m: int) -> BoundReport:
    """Least applicable cap on the size of an (n x m, 3, 2, 1) code."""
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    psi_val, psi_tag = _psi_e_best(m)
    candidates: list[tuple[int, str]] = []
    if m % 2 == 0:
        candidates.append((n * (n * m + 2 * psi_val) // 6, "phi_ub/general_even"))
    else:
        candidates.append((n * (n * m + 2 * psi_val - 1) // 6, "phi_ub/general_odd"))
    if n == 2:
        if m % 2 == 0:
            candidates.append((3 * m // 4, "phi_ub/two_rows_even"))
        else:
            candidates.append(((3 * m - 2) // 4, "phi_ub/two_rows_odd"))
    if n == 1 and m % 4 == 0:
        if m % 8 == 0:
            candidates.append((7 * m // 32, "phi_ub/one_row_0mod8"))
        else:
            candidates.append(((7 * m + 4) // 32, "phi_ub/one_row_4mod8"))
    if (n, m) == (3, 4):
        candidates.append((6, "phi_ub/3x4"))
    if (n, m) == (2, 4):
        candidates.append((2, "phi_ub/2x4"))
    value, branch = min(candidates, key=lambda t: t[0])
    return BoundReport(value, UPPER_BOUND, branch, ((psi_tag, psi_val),))


def phi_exact(n: int, m: int) -> BoundReport:
    """Exact largest size of an (n x m, 3, 2, 1) code where determined.

    In every class it names, the size is the cap of `phi_upper_bound`, save
    Phi(1, 64) = 13, one below it.  The classes: n = 1 and n = 2 with
    m = 0 (mod 4), the (3,4) special, and n = 0 (mod 3), n not 6 or 9, for
    m = 8 (mod 16), m = 32 (mod 64), and admissible m = 4,20 (mod 48).
    Everywhere else the report is `unknown` with the cap attached.
    """
    cap = phi_upper_bound(n, m).value
    if (n, m) == (1, 64):
        return BoundReport(13, EXACT, "phi/one_row_m64")
    branch = None
    if n == 1 and m % 4 == 0:
        branch = "phi/one_row_0mod8" if m % 8 == 0 else "phi/one_row_4mod8"
    elif n == 2 and m % 4 == 0:
        branch = "phi/two_rows_m4" if m == 4 else "phi/two_rows_0mod4"
    elif (n, m) == (3, 4):
        branch = "phi/three_rows_m4"
    elif n % 3 == 0 and n not in (6, 9):
        if m % 16 == 8:
            branch = "phi/rows0mod3_8mod16"
        elif m % 64 == 32:
            branch = "phi/rows0mod3_32mod64"
        elif m % 48 in (4, 20) and m > 4 and in_S(m // 4):
            branch = "phi/rows0mod3_4or20mod48"
    if branch is None:
        return BoundReport(None, UNKNOWN, "phi/unknown", (("upper_bound", cap),))
    return BoundReport(cap, EXACT, branch)


def gdd_exists(v: int, u: int, m: int) -> bool:
    """Existence of an m-cyclic triple group-divisible design of type (vm)^u."""
    if v < 1 or m < 1:
        raise ValueError(f"need v, m >= 1, got v={v}, m={m}")
    if u <= 2:
        raise ValueError(f"need at least u = 3 groups, got {u}")
    if u == 3:
        return m % 2 == 1 or v % 2 == 0
    if ((u - 1) * v * m) % 2 != 0:
        return False
    if (u * (u - 1) * v * m) % 3 != 0:
        return False
    if u % 4 in (2, 3) and m % 4 == 2 and v % 2 != 0:
        return False
    return True
