"""Command-line surface: construct / verify / bound / search / catalog.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success or pass,
1 verification failure, 2 usage or parameter error, 3 a construction failed
its own verification (or a required search witness was not found), 4 an
internal error: an exception raised by a fault in oockit itself.
Every failure is one stderr line, never a traceback.  Every subcommand
rejects a flag that its kind does not take with exit 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import bounds, construct, search
from .core import SearchExhausted, UnsupportedParameterError, VerificationFailure
from .document import (
    code_to_document,
    document_to_code,
    parse_json,
    render_json,
    render_matrix,
)
from .search import EXACT_COVER, HILL_CLIMB, GddBaseBlocks, SearchConfig
from .verify import composition_census, parity_census, verify_code

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION_FAIL = 3
EXIT_INTERNAL = 4

# exception -> (exit code, stderr prefix) for the failures `main` reports; the
# nearest class in the exception's MRO wins, so `Exception` takes only what no
# other entry names
FAILURES = {
    VerificationFailure: (EXIT_CONSTRUCTION_FAIL, "verification failure"),
    SearchExhausted: (EXIT_CONSTRUCTION_FAIL, "search exhausted"),
    ValueError: (EXIT_USAGE, "error"),
    OSError: (EXIT_USAGE, "error"),
    Exception: (EXIT_INTERNAL, "internal error"),
}


def _err(message: str) -> None:
    print(message, file=sys.stderr)


# search flag -> SearchConfig field; an unset flag keeps the field's default
SEARCH_FLAGS = {
    "budget_seconds": "time_budget",
    "node_budget": "node_budget",
    "seed": "seed",
    "strategy": "strategy",
}
# flag a table row may name -> its argparse type or a tuple of its choices;
# parameter flags first, in provenance order (`u`, `lambda_a`: `search` only)
FLAG_TYPES = {
    "n": int, "m": int, "g": int, "s": int, "r": int, "p": int, "id": str,
    "variant": (construct.STANDARD, construct.HALF_FREE), "u": int, "lambda_a": int,
    "budget_seconds": float, "node_budget": int, "seed": int,
    "strategy": (EXACT_COVER, HILL_CLIMB),
}
FLAGS = tuple(flag for flag in FLAG_TYPES if flag not in SEARCH_FLAGS)
BUDGET_FLAGS = dict.fromkeys(("budget_seconds", "node_budget"))

# kind -> (function name in its module, required flags, optional flags with
# their defaults), one table per subcommand.  The function gets the flags in
# this order, positionally; an optional flag that is unset and has no default
# is left out.  Search flags reach it as one SearchConfig, last, and only when
# one is set.  Names are looked up on each call, so wrappers that replace
# module attributes see every call.
#
# A FAMILIES row ends with the Phi optimum the family builds: given (n, m)
# where phi_exact is exact, the flags that build it, or None.  No two
# families claim the same (n, m).  The 1-D towers build psi_e optima, so
# they claim none.
FAMILIES = {
    "equi2mod4": ("equi_2mod4", ("m",), {}, None),
    "gregular4g": ("g_regular_4g", ("g",), {}, None),
    "power4": ("equi_power4", ("s", "r"), {"variant": construct.STANDARD}, None),
    "tight": ("tight_derived", ("r",), {"s": None}, None),
    "prime": ("prime_derived", ("p",), {"s": None}, None),
    "explicit": (
        "explicit_code", ("id",), {},
        lambda n, m: {"id": "1d48"} if (n, m) == (1, 48) else None,
    ),
    "2xm": ("ooc_2xm", ("m",), {}, lambda n, m: {"m": m} if n == 2 else None),
    "3xm": ("ooc_3xm", ("m",), {}, lambda n, m: {"m": m} if n == 3 else None),
    "nxm": (
        "compose_0mod3", ("n", "m"), dict.fromkeys(SEARCH_FLAGS),
        lambda n, m: {"n": n, "m": m} if n % 3 == 0 and n > 3 else None,
    ),
}
BOUNDS = {
    "phi": ("phi_exact", ("n", "m"), {}),
    "psi_e": ("psi_e_exact", ("m",), {}),
    "cac": ("cac_optimal_size", ("m",), {}),
    "me": ("me_prime", ("m",), {}),
}
SEARCHES = {
    "optimal": ("optimal_search", ("n", "m"), {"lambda_a": 2, **BUDGET_FLAGS}),
    "equi": ("equi_search", ("m",), {"lambda_a": 2, **BUDGET_FLAGS}),
    "tight": ("tight_search", ("m",), BUDGET_FLAGS),
    "gdd": ("gdd_search", ("u", "m"), dict.fromkeys(SEARCH_FLAGS)),
}


def _call(module, table: dict, noun: str, kind: str, flags: dict):
    """Call the function that `table[kind]` names in `module` with the set flags.

    `flags` maps flag names to values, None or absent when unset.  Returns
    the result and the flags the function got.  A set flag that the kind does
    not take, or an unset required flag, raises UnsupportedParameterError.
    """
    name, required, optional = table[kind][:3]
    for flag in FLAG_TYPES:
        if flags.get(flag) is not None and flag not in (*required, *optional):
            raise UnsupportedParameterError(f"{noun} {kind!r} does not take {_option(flag)}")
    given = {}
    for flag in (*required, *optional):
        value = flags.get(flag)
        if value is None and flag in required:
            raise UnsupportedParameterError(f"{noun} {kind!r} needs {_option(flag)}")
        value = optional.get(flag) if value is None else value
        if value is not None:
            given[flag] = value
    params = [value for flag, value in given.items() if flag not in SEARCH_FLAGS]
    config = {SEARCH_FLAGS[flag]: value for flag, value in given.items() if flag in SEARCH_FLAGS}
    if config:
        params.append(SearchConfig(**config))
    return getattr(module, name)(*params), given


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def cmd_construct(args) -> int:
    res, given = _call(construct, FAMILIES, "family", args.family, vars(args))
    if args.format == "matrix":
        print(render_matrix(res.code))
        return EXIT_OK
    flags = [f"--{flag} {given[flag]}" for flag in FLAGS if flag in given]
    meta = {
        "branch": res.branch,
        "claimed_size": res.claimed_size,
        "claimed_leave": res.claimed_leave,
        "verified": res.verified,
        "provenance": " ".join([f"construct {args.family}", *flags]),
    }
    print(render_json(code_to_document(res.code, meta)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    code, _meta = document_to_code(parse_json(text))
    report = verify_code(code)
    out = {
        "verification": {
            "auto_ok": report.auto_ok,
            "cross_ok": report.cross_ok,
            "max_auto_multiplicity": report.max_auto_multiplicity,
            "violation_count": report.violation_count,
            "witnesses": [asdict(w) for w in report.witnesses],
        },
        "composition_census": None,
        "parity_census": None,
    }
    if code.params.k == 3:
        out["composition_census"] = asdict(composition_census(code))
    if code.params.n == 1 and code.params.m % 4 == 0:
        try:
            out["parity_census"] = asdict(parity_census(code))
        except ValueError:
            pass  # third-period codewords have no parity class
    if args.format == "text":
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"{verdict} auto_ok={report.auto_ok} cross_ok={report.cross_ok} "
            f"max_auto_multiplicity={report.max_auto_multiplicity} "
            f"violations={report.violation_count}"
        )
    else:
        print(render_json(out))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_bound(args) -> int:
    rep, _ = _call(bounds, BOUNDS, "bound", args.which, vars(args))
    out = {
        "value": rep.value,
        "kind": rep.kind,
        "branch": rep.branch,
        "dependencies": [[name, value] for name, value in rep.dependencies],
    }
    if args.format == "text":
        print(f"{args.which} value={rep.value} kind={rep.kind} branch={rep.branch}")
    else:
        print(render_json(out))
    return EXIT_OK


def cmd_search(args) -> int:
    outcome, _ = _call(search, SEARCHES, "search", args.kind, vars(args))
    witness = None
    if isinstance(outcome.best, GddBaseBlocks):
        witness = {
            "m": outcome.best.m,
            "groups": outcome.best.groups,
            "base_blocks": [[[r, s] for r, s in b] for b in outcome.best.base_blocks],
        }
    elif outcome.best is not None:
        witness = code_to_document(
            outcome.best, {"provenance": f"search {args.kind}", "verified": True}
        )
    out = {
        "best_size": outcome.best_size,
        "proven_optimal": outcome.proven_optimal,
        "nodes": outcome.nodes,
        "elapsed_ms": int(outcome.elapsed * 1000),
        "witness": witness,
    }
    if args.format == "text":
        print(
            f"best_size={outcome.best_size} proven_optimal={outcome.proven_optimal} "
            f"nodes={outcome.nodes}"
        )
    else:
        print(render_json(out))
    return EXIT_OK


def _parse_range(spec: str) -> range:
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return range(int(lo), int(hi) + 1)
        value = int(spec)
        return range(value, value + 1)
    except ValueError as exc:
        raise ValueError(f"bad range {spec!r}: {exc}") from None


def cmd_catalog(args) -> int:
    """One row per m where Phi(n, m) is exact, built by the family that claims it."""
    rows = []
    for m in _parse_range(args.m):
        bound = bounds.phi_exact(args.n, m)
        if bound.kind != bounds.EXACT:
            continue
        res = None
        for kind, (*_, optimum) in FAMILIES.items():
            flags = optimum and optimum(args.n, m)
            if flags:
                res, _ = _call(construct, FAMILIES, "family", kind, flags)
        rows.append(
            {
                "n": args.n,
                "m": m,
                "constructed": res.code.size() if res else None,
                "bound": bound.value,
                "kind": bound.kind,
                "verified": bool(res and res.verified),
            }
        )
    if args.format == "text":
        print(f"{'n':>4} {'m':>6} {'built':>7} {'bound':>7} {'kind':<12} verified")
        for r in rows:
            built = "-" if r["constructed"] is None else r["constructed"]
            print(
                f"{r['n']:>4} {r['m']:>6} {built:>7} {r['bound']:>7} "
                f"{r['kind']:<12} {r['verified']}"
            )
    else:
        print(render_json({"rows": rows}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oockit",
        description="Construct, verify, bound, and search weight-3 "
        "wavelength-time optical orthogonal codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="emit a verified code as JSON")
    pc.add_argument("family", choices=list(FAMILIES))
    _add_table_flags(pc, FAMILIES)
    _add_format(pc, ["json", "matrix"])
    pc.set_defaults(func=cmd_construct)

    pv = sub.add_parser("verify", help="verify a code document (stdin with '-')")
    pv.add_argument("input", nargs="?", default="-")
    _add_format(pv, ["json", "text"])
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bound", help="closed-form size bounds")
    pb.add_argument("which", choices=list(BOUNDS))
    _add_table_flags(pb, BOUNDS)
    _add_format(pb, ["json", "text"])
    pb.set_defaults(func=cmd_bound)

    ps = sub.add_parser("search", help="brute-force oracles")
    ps.add_argument("kind", choices=list(SEARCHES))
    _add_table_flags(ps, SEARCHES)
    _add_format(ps, ["json", "text"])
    ps.set_defaults(func=cmd_search)

    pk = sub.add_parser("catalog", help="sweep a parameter range")
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--m", type=str, required=True, help="single value or A..B")
    _add_format(pk, ["json", "text"])
    pk.set_defaults(func=cmd_catalog)
    return parser


def _add_table_flags(p, table: dict) -> None:
    """Add, in `FLAG_TYPES` order, every flag that a row of `table` names."""
    named = {flag for row in table.values() for flag in (*row[1], *row[2])}
    for flag, kind in FLAG_TYPES.items():
        if flag in named:
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument(_option(flag), dest=flag, **typed)


def _add_format(p, choices) -> None:
    p.add_argument("--format", choices=choices, default="json")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(FAILURES) as exc:
        code, prefix = next(FAILURES[c] for c in type(exc).__mro__ if c in FAILURES)
        _err(f"{prefix}: {exc}")
        for w in getattr(exc, "witnesses", [])[:20]:
            _err(f"  witness: {w}")
        return code


if __name__ == "__main__":
    sys.exit(main())
