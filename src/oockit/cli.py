"""Command-line surface: construct / verify / bound / search / catalog.

Each `cmd_*` returns a function that builds its report, its own objects as
they are (`render_json` writes a dataclass as its fields, and a code
document's codewords as the normal-form tuples they are), one that builds
its text form, and its verdict.  `main` writes the one form that `--format`
names to stdout, once the command has finished, and picks the exit code;
diagnostics go to stderr.  Exit codes: 0 success or pass, 1 verification
failure, 2 usage or parameter error, 3 a construction failed its own
verification (or a required search witness was not found), 4 an internal
error: an exception raised by a fault in oockit itself.  Every failure, a
usage error included, is one stderr line, never a traceback.  `--help` prints
the usage that `COMMANDS` states.  Every subcommand rejects a flag that its
kind does not take with exit 2.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import bounds, construct, search
from .core import Code, SearchExhausted, UnsupportedParameterError, VerificationFailure
from .document import (
    code_to_document,
    document_to_code,
    parse_json,
    render_json,
    render_matrix,
)
from .search import EXACT_COVER, HILL_CLIMB, SearchConfig
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
# flag a table row may name -> its type or a tuple of its choices;
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


def cmd_construct(args):
    res, given = _call(construct, FAMILIES, "family", args.family, vars(args))
    flags = [f"--{flag} {given[flag]}" for flag in FLAGS if flag in given]
    meta = {
        "branch": res.branch,
        "claimed_size": res.claimed_size,
        "claimed_leave": res.claimed_leave,
        "verified": res.verified,
        "provenance": " ".join([f"construct {args.family}", *flags]),
    }
    return (
        lambda: code_to_document(res.code, meta, tuples=True),
        lambda: render_matrix(res.code),
        True,
    )


def cmd_verify(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    code, _meta = document_to_code(parse_json(text))
    report = verify_code(code)
    out = {"verification": report, "composition_census": None, "parity_census": None}
    if code.params.k == 3:
        out["composition_census"] = composition_census(code)
    if code.params.n == 1 and code.params.m % 4 == 0:
        try:
            out["parity_census"] = parity_census(code)
        except ValueError:
            pass  # third-period codewords have no parity class
    summary = (
        f"{'PASS' if report.passed else 'FAIL'} auto_ok={report.auto_ok} "
        f"cross_ok={report.cross_ok} max_auto_multiplicity={report.max_auto_multiplicity} "
        f"violations={report.violation_count}"
    )
    return lambda: out, lambda: summary, report.passed


def cmd_bound(args):
    rep, _ = _call(bounds, BOUNDS, "bound", args.bound, vars(args))
    summary = f"{args.bound} value={rep.value} kind={rep.kind} branch={rep.branch}"
    return lambda: rep, lambda: summary, True


def cmd_search(args):
    outcome, _ = _call(search, SEARCHES, "search", args.kind, vars(args))
    witness = outcome.best  # a GddBaseBlocks is written as its fields
    if isinstance(witness, Code):
        meta = {"provenance": f"search {args.kind}", "verified": True}
        witness = code_to_document(witness, meta, tuples=True)
    out = {
        "best_size": outcome.best_size,
        "proven_optimal": outcome.proven_optimal,
        "nodes": outcome.nodes,
        "elapsed_ms": int(outcome.elapsed * 1000),
        "witness": witness,
    }
    summary = (
        f"best_size={outcome.best_size} proven_optimal={outcome.proven_optimal} "
        f"nodes={outcome.nodes}"
    )
    return lambda: out, lambda: summary, True


def _parse_range(spec: str) -> range:
    try:
        lo, dots, hi = spec.partition("..")
        lo = int(lo)
        hi = int(hi) if dots else lo
    except ValueError as exc:
        raise ValueError(f"bad range {spec!r}: {exc}") from None
    if hi < lo:
        raise ValueError(f"bad range {spec!r}: its end {hi} is below its start {lo}")
    return range(lo, hi + 1)


def cmd_catalog(args):
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
    table = [f"{'n':>4} {'m':>6} {'built':>7} {'bound':>7} {'kind':<12} verified"]
    for r in rows:
        built = "-" if r["constructed"] is None else r["constructed"]
        table.append(
            f"{r['n']:>4} {r['m']:>6} {built:>7} {r['bound']:>7} {r['kind']:<12} {r['verified']}"
        )
    return lambda: {"rows": rows}, lambda: "\n".join(table), True


class UsageError(ValueError):
    """A command line outside the grammar that `COMMANDS` states."""


def _table_flags(table: dict) -> dict:
    """Every flag that a row of `table` names, in `FLAG_TYPES` order, with its type."""
    named = {flag for row in table.values() for flag in (*row[1], *row[2])}
    return {flag: kind for flag, kind in FLAG_TYPES.items() if flag in named}


# command -> (function name, positional, flags with their types, formats with the
# default first, summary).  A positional (name, its type or the table whose keys it
# takes, default) with no default is required.  A command with no positional needs
# every flag it takes; `_call` checks a table's per kind.  Names are looked up per call.
COMMANDS = {
    "construct": ("cmd_construct", ("family", FAMILIES, None), _table_flags(FAMILIES),
                  ("json", "matrix"), "emit a verified code as JSON"),
    "verify": ("cmd_verify", ("input", str, "-"), {}, ("json", "text"),
               "verify a code document (stdin with '-')"),
    "bound": ("cmd_bound", ("bound", BOUNDS, None), _table_flags(BOUNDS), ("json", "text"),
              "closed-form size bounds"),
    "search": ("cmd_search", ("kind", SEARCHES, None), _table_flags(SEARCHES),
               ("json", "text"), "brute-force oracles"),
    "catalog": ("cmd_catalog", None, {"n": int, "m": str}, ("json", "text"),
                "sweep a parameter range; --m is one value or A..B"),
}


def _read(name: str, kind, value):
    """`value` read as `kind`: a type, or the tuple or table of the choices it must be in."""
    if not isinstance(kind, type) and value not in kind:
        raise UsageError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
    try:
        return kind(value) if isinstance(kind, type) else value
    except ValueError:
        raise UsageError(f"{name} must be {kind.__name__}, got {value!r}") from None


def parse_args(argv) -> SimpleNamespace:
    """Read `argv` in one pass by the grammar of `COMMANDS`: its command, its
    positional, its format and every flag it takes (None when unset).  A flag's
    value is the next argument or the text after `=`.  Raises UsageError."""
    command = _read("command", COMMANDS, argv[0] if argv else None)
    _, positional, flags, formats, _ = COMMANDS[command]
    options = {_option(flag): (flag, kind) for flag, kind in {**flags, "format": formats}.items()}
    args = {**dict.fromkeys(flags), "format": formats[0]}
    words, free = iter(argv[1:]), []
    for word in words:
        option, eq, value = word.partition("=")
        if not word.startswith("--"):
            free.append(word)
        elif option not in options:
            raise UsageError(f"{command} does not take {option}")
        else:
            value = value if eq else next(words, None)
            if value is None or not eq and value.startswith("--"):
                raise UsageError(f"{option} needs a value")
            flag, kind = options[option]
            args[flag] = _read(option, kind, value)
    if len(free) > (positional is not None):
        raise UsageError(f"unrecognized argument {free[-1]!r}")
    for flag in () if positional else flags:
        if args[flag] is None:
            raise UsageError(f"{command} needs {_option(flag)}")
    if positional:
        name, kind, default = positional
        args[name] = _read(name, kind, free[0] if free else default)
    return SimpleNamespace(command=command, **args)


def _usage(command=None) -> str:
    """The usage of `command`, or of every command, read off `COMMANDS` and the tables."""
    lines = ["usage: oockit COMMAND [ARGUMENT] [--flag value | --flag=value ...] [--help]"]
    for name in [command] if command in COMMANDS else COMMANDS:
        _, positional, flags, formats, summary = COMMANDS[name]
        shown = {flag: _option(flag) + " " + ("{%s}" % ",".join(kind) if isinstance(kind, tuple)
                 else flag.upper()) for flag, kind in {**flags, "format": formats}.items()}
        key, table, default = positional or ("", {}, None)
        head = [f"[{key}]" if default else key] if positional else [shown[f] for f in flags]
        lines.append(" ".join(["\noockit", name, *head, f"[{shown['format']}]:", summary]))
        for kind, (_, required, optional, *_) in (table if isinstance(table, dict) else {}).items():
            given = [shown[flag] for flag in required] + [f"[{shown[flag]}]" for flag in optional]
            lines.append(f"  {key} {kind}: {' '.join(given)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if "-h" in argv or "--help" in argv:
            report, passed = _usage(*argv[:1]), True
        else:
            args = parse_args(argv)
            document, text, passed = globals()[COMMANDS[args.command][0]](args)
            report = render_json(document()) if args.format == "json" else text()
    except tuple(FAILURES) as exc:
        code, prefix = next(FAILURES[c] for c in type(exc).__mro__ if c in FAILURES)
        _err(f"{prefix}: {str(exc) or type(exc).__name__}")
        for w in getattr(exc, "witnesses", [])[:20]:
            _err(f"  witness: {w}")
        return code
    print(report)
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
