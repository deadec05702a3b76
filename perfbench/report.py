"""Run the benchmark over several seeds and report each metric across runs.

    python3 perfbench/report.py --workloads emit,search --seeds 1-10 --sets 2
    python3 perfbench/report.py --workloads search --seeds 1-3 --trace --repeat 2

Runs ``run.py`` once per workload and seed, one process at a time, from the
root of the checkout.  For every end-to-end metric of ``BENCHMARK.json`` it
prints the unit, sample count, median, quartiles and the spread
(q3 - q1) / median next to the metric's bound; a spread under a third of the
bound is marked steady.  ``--sets 2`` runs all workloads over the seeds once,
then again, and prints for every metric the ratio of the second set's median
to the first's and whether it stays within the bound.  ``--trace`` adds a
traced run per seed and prints the per-layer metrics, with what each should
move, on which workload.  ``--repeat`` runs every seed more than once and
checks that its output digest, and ``search.nodes`` in traced runs, repeat
exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from spans import MOVES, UNITS  # noqa: E402


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """(final JSON object, combined digest) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    digest = next((ln.split()[1] for ln in lines if ln.startswith("digest:")), "")
    return json.loads(lines[-1]), digest


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """median, q1, q3 and (q3 - q1) / median, quartiles as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_set(workload: str, args, seconds: int, bench: dict) -> tuple[dict, bool]:
    """Run every seed of one workload; print its table; return medians and correctness."""
    print(f"== {workload}: seeds {args.seeds}, {seconds} s per run, repeat {args.repeat}",
          flush=True)
    results, digests = [], {}
    traced, nodes = [], {}
    for seed in _seeds(args.seeds):
        for _ in range(args.repeat):
            res, digest = run_once(workload, seed, seconds, 0)
            res["seed"] = seed
            results.append(res)
            digests.setdefault(seed, set()).add(digest)
            print(f"  seed {seed}: " + " ".join(
                f"{k} {v['value']:.6g}" for k, v in res["metrics"].items())
                + f" failed {res['failed']}", flush=True)
            if args.trace:
                tres, _ = run_once(workload, seed, seconds, 1)
                traced.append(tres)
                nodes.setdefault(seed, set()).add(tres["metrics"]["search.nodes"]["value"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    print(f"  runs {len(results)}, correct {correct}, attempted {attempted}, failed {failed}")
    print(f"  {'metric':<14} {'unit':<6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    medians = {}
    for spec in bench["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        med, q1, q3, sp = spread(values)
        medians[spec["name"]] = med
        steady = "steady" if sp < spec["bound"] / 3 else "WIDE"
        print(f"  {spec['name']:<14} {spec['unit']:<6} {len(values):>3} {med:>12.6g} "
              f"{q1:>12.6g} {q3:>12.6g} {sp:>8.4f} {spec['bound']:>6} {steady}")
    same = all(len(d) == 1 for d in digests.values())
    print(f"  digests repeat per seed: {same}" + ("" if args.repeat > 1 else " (one run per seed)"))
    if traced:
        print(f"  search.nodes repeat per seed: {all(len(v) == 1 for v in nodes.values())}")
        print(f"  per-layer metrics (median over {len(traced)} traced runs):")
        for name, (moves, where) in MOVES.items():
            med, q1, q3, _ = spread([r["metrics"][name]["value"] for r in traced])
            print(f"    {name:<30} {UNITS[name]:<6} {med:>12.6g} [{q1:.6g}, {q3:.6g}]  "
                  f"moves {moves} on {where}")
    return medians, correct


def compare(first: dict, later: dict, bench: dict) -> bool:
    """Print later/first median per metric; True if none is worse by more than its bound."""
    print("== agreement of the sets: median of set k / median of set 1")
    ok = True
    for workload, sets in later.items():
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            base = first[workload][name]
            ratios = [s[name] / base for s in sets]
            worse = [r - 1 if spec["better"] == "lower" else 1 - r for r in ratios]
            agree = all(w <= bound for w in worse)
            ok &= agree
            print(f"  {workload:<13} {name:<14} " + " ".join(f"{r:.4f}" for r in ratios)
                  + f"  bound {bound}  {'agree' if agree else 'DISAGREE'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="emit,build-verify,search")
    parser.add_argument("--seeds", default="1-10", help="A-B or a single seed")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", action="store_true", help="also make traced runs")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1, help="run all workloads this many times")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    first, later = {}, {}
    for k in range(args.sets):
        print(f"#### set {k + 1} of {args.sets}", flush=True)
        for workload in args.workloads.split(","):
            medians, correct = run_set(workload, args, seconds, bench)
            ok &= correct
            if k == 0:
                first[workload] = medians
            else:
                later.setdefault(workload, []).append(medians)
    if later:
        ok &= compare(first, later, bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
