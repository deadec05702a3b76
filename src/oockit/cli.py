"""Command-line surface: construct / verify / bound / search / catalog.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success or pass,
1 verification failure, 2 usage or parameter error, 3 a construction failed
its own verification (or a required search witness was not found).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import bounds, construct
from .core import SearchExhausted, UnsupportedParameterError, VerificationFailure
from .document import (
    DocumentError,
    code_to_document,
    document_to_code,
    parse_json,
    render_json,
    render_matrix,
)
from .search import (
    EXACT_COVER,
    HILL_CLIMB,
    GddBaseBlocks,
    SearchConfig,
    equi_search,
    gdd_search,
    optimal_search,
    tight_search,
)
from .verify import composition_census, parity_census, verify_code

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION_FAIL = 3


def _err(message: str) -> None:
    print(message, file=sys.stderr)


# flags of `construct` in provenance order; the search flags never enter it
FLAGS = ("n", "m", "g", "s", "r", "p", "id", "variant")
# search flag -> SearchConfig field; an unset flag keeps the field's default
SEARCH_FLAGS = {
    "budget_seconds": "time_budget",
    "node_budget": "node_budget",
    "seed": "seed",
    "strategy": "strategy",
}

# family -> (builder in `construct`, required flags, optional flags with their
# defaults).  The builder gets the flags in this order, positionally; an
# optional flag that is unset and has no default is left out.  Search flags
# reach the builder as one SearchConfig, last, and only when one is set.
FAMILIES = {
    "equi2mod4": ("equi_2mod4", ("m",), {}),
    "gregular4g": ("g_regular_4g", ("g",), {}),
    "power4": ("equi_power4", ("s", "r"), {"variant": construct.STANDARD}),
    "tight": ("tight_derived", ("r",), {"s": None}),
    "prime": ("prime_derived", ("p",), {"s": None}),
    "explicit": ("explicit_code", ("id",), {}),
    "2xm": ("ooc_2xm", ("m",), {}),
    "3xm": ("ooc_3xm", ("m",), {}),
    "nxm": ("compose_0mod3", ("n", "m"), dict.fromkeys(SEARCH_FLAGS)),
}


def cmd_construct(args) -> int:
    builder, required, optional = FAMILIES[args.family]
    taken = (*required, *optional)
    unused = [
        f for f in (*FLAGS, *SEARCH_FLAGS) if getattr(args, f) is not None and f not in taken
    ]
    if unused:
        _err(f"error: family {args.family!r} does not take --{unused[0].replace('_', '-')}")
        return EXIT_USAGE
    try:
        given = {flag: _require(args, flag) for flag in required}
        for flag, default in optional.items():
            value = default if getattr(args, flag) is None else getattr(args, flag)
            if value is not None:
                given[flag] = value
        params = [value for flag, value in given.items() if flag not in SEARCH_FLAGS]
        search = {flag: value for flag, value in given.items() if flag in SEARCH_FLAGS}
        if search:
            params.append(_search_config(**search))
        res = getattr(construct, builder)(*params)
    except (UnsupportedParameterError, ValueError) as exc:
        _err(f"error: {exc}")
        return EXIT_USAGE
    except VerificationFailure as exc:
        _err(f"verification failure: {exc}")
        for w in getattr(exc, "witnesses", [])[:20]:
            _err(f"  witness: {w}")
        return EXIT_CONSTRUCTION_FAIL
    except SearchExhausted as exc:
        _err(f"search exhausted: {exc}")
        return EXIT_CONSTRUCTION_FAIL
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


def _require(args, name: str) -> int:
    value = getattr(args, name, None)
    if value is None:
        raise UnsupportedParameterError(f"family {args.family!r} needs --{name}")
    return value


def cmd_verify(args) -> int:
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        code, _meta = document_to_code(parse_json(text))
    except (OSError, DocumentError) as exc:
        _err(f"error: {exc}")
        return EXIT_USAGE
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
    try:
        if args.which == "phi":
            rep = bounds.phi_exact(_need(args.n, "--n"), _need(args.m, "--m"))
        elif args.which == "psi_e":
            rep = bounds.psi_e_exact(_need(args.m, "--m"))
        elif args.which == "cac":
            rep = bounds.cac_optimal_size(_need(args.m, "--m"))
        elif args.which == "me":
            rep = bounds.me_prime(_need(args.m, "--m"))
        else:
            raise UnsupportedParameterError(f"unknown bound {args.which!r}")
    except (UnsupportedParameterError, ValueError) as exc:
        _err(f"error: {exc}")
        return EXIT_USAGE
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


def _need(value, flag: str):
    if value is None:
        raise UnsupportedParameterError(f"missing {flag}")
    return value


def _search_config(**flags) -> SearchConfig:
    return SearchConfig(
        **{SEARCH_FLAGS[flag]: value for flag, value in flags.items() if value is not None}
    )


def cmd_search(args) -> int:
    config = _search_config(**{flag: getattr(args, flag) for flag in SEARCH_FLAGS})
    try:
        if args.kind == "optimal":
            outcome = optimal_search(
                _need(args.n, "--n"), _need(args.m, "--m"), args.lambda_a or 2, config
            )
        elif args.kind == "equi":
            outcome = equi_search(_need(args.m, "--m"), args.lambda_a or 2, config)
        elif args.kind == "tight":
            outcome = tight_search(_need(args.m, "--m"), config)
        elif args.kind == "gdd":
            outcome = gdd_search(_need(args.u, "--u"), _need(args.m, "--m"), config)
        else:
            raise UnsupportedParameterError(f"unknown search kind {args.kind!r}")
    except (UnsupportedParameterError, ValueError) as exc:
        _err(f"error: {exc}")
        return EXIT_USAGE
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
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return range(int(lo), int(hi) + 1)
    value = int(spec)
    return range(value, value + 1)


def _try_construct(n: int, m: int):
    try:
        if n == 1:
            return construct.explicit_code("1d48") if m == 48 else None
        if n == 2:
            return construct.ooc_2xm(m)
        if n == 3:
            return construct.ooc_3xm(m)
    except (UnsupportedParameterError, ValueError):
        return None
    return None


def cmd_catalog(args) -> int:
    try:
        span = _parse_range(args.m)
    except ValueError as exc:
        _err(f"error: bad range {args.m!r}: {exc}")
        return EXIT_USAGE
    rows = []
    for m in span:
        res = _try_construct(args.n, m)
        bound = bounds.phi_exact(args.n, m)
        if bound.value is not None:
            bound_value, bound_kind = bound.value, bound.kind
        else:
            bound_value = dict(bound.dependencies).get("upper_bound")
            bound_kind = "upper_bound"
        if res is None and bound.kind != "exact":
            continue
        rows.append(
            {
                "n": args.n,
                "m": m,
                "constructed": res.code.size() if res else None,
                "bound": bound_value,
                "kind": bound_kind,
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
    pc.add_argument("--n", type=int)
    pc.add_argument("--m", type=int)
    pc.add_argument("--g", type=int)
    pc.add_argument("--s", type=int)
    pc.add_argument("--r", type=int)
    pc.add_argument("--p", type=int)
    pc.add_argument("--id", type=str)
    pc.add_argument("--variant", choices=[construct.STANDARD, construct.HALF_FREE])
    _add_search_flags(pc)
    _add_format(pc, ["json", "matrix"])
    pc.set_defaults(func=cmd_construct)

    pv = sub.add_parser("verify", help="verify a code document (stdin with '-')")
    pv.add_argument("input", nargs="?", default="-")
    _add_format(pv, ["json", "text"])
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bound", help="closed-form size bounds")
    pb.add_argument("which", choices=["phi", "psi_e", "cac", "me"])
    pb.add_argument("--n", type=int)
    pb.add_argument("--m", type=int)
    _add_format(pb, ["json", "text"])
    pb.set_defaults(func=cmd_bound)

    ps = sub.add_parser("search", help="brute-force oracles")
    ps.add_argument("kind", choices=["optimal", "equi", "tight", "gdd"])
    ps.add_argument("--n", type=int)
    ps.add_argument("--m", type=int)
    ps.add_argument("--u", type=int)
    ps.add_argument("--lambda-a", dest="lambda_a", type=int)
    _add_search_flags(ps)
    _add_format(ps, ["json", "text"])
    ps.set_defaults(func=cmd_search)

    pk = sub.add_parser("catalog", help="sweep a parameter range")
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--m", type=str, required=True, help="single value or A..B")
    _add_format(pk, ["json", "text"])
    pk.set_defaults(func=cmd_catalog)
    return parser


def _add_search_flags(p) -> None:
    p.add_argument("--budget-seconds", dest="budget_seconds", type=float)
    p.add_argument("--node-budget", dest="node_budget", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--strategy", choices=[EXACT_COVER, HILL_CLIMB])


def _add_format(p, choices) -> None:
    p.add_argument("--format", choices=choices, default="json")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
