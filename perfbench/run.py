"""oockit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload emit --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports oockit from its ``src/``.
The workload's operation list is drawn from the seed (see ``workloads.py``)
and run as a closed loop with one client: each operation goes in-process
through ``oockit.cli.main(argv)``, with stdout and stderr captured, or
through a public constructor of ``oockit.construct``.  Each output is
checked and hashed after its operation, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  Every operation runs in a
fresh process forked from the benchmark, as a CLI user's command would, so
no state of one run reaches another.  The list runs up to ``REPEATS`` times
in rounds; the rounds after the first go shortest first and start no run
that would end past ``--seconds``.  Each run's time is scaled to a fixed host
speed, measured by a reference computation around it (``hostspeed.py``), and
an operation's latency is the median of its scaled runs.  The first run of
each operation is checked; a repeat must print the same bytes.

``--trace 1`` runs the list once in-process with the layers wrapped and
reports the per-layer metrics; each operation also runs untraced, before or
after its traced run in turn, and the ratio of the two sums is
``trace.overhead_ratio``.

A report for people comes first on stdout; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
writes each operation's latencies, status and sha256 to
``.bench_build/<workload>-seed<N>-trace<T>.json`` and, if traced, its spans
to ``.spans.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import spans

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_build"
SETUP_PROBES = 5
REPEATS = 3
REF_TAIL = 10  # reference samples around each set-up probe and after the last run


def _import_oockit():
    """Import oockit from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "oockit" / "__init__.py").is_file():
        raise ImportError(f"no oockit package under {src}")
    sys.path.insert(0, str(src))
    import oockit
    import oockit.cli

    if src not in Path(oockit.__file__).resolve().parents:
        raise ImportError(f"oockit imported from {oockit.__file__}, not {src}")
    return oockit


def _setup_probe(workload: str, seed: int) -> float:
    """Start and end, on ``perf_counter``, of a fresh process's set-up: from
    launch until its pass is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return t0, t1


def _execute(op, oockit, Outcome):
    """Run one operation; the timed region covers exactly the call."""
    if not op.is_cli:
        fn = getattr(oockit.construct, op.func)
        t0 = perf_counter()
        try:
            result = fn(*op.args)
        except Exception as exc:  # reported as a failed operation
            return Outcome(perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
        return Outcome(perf_counter() - t0, result=result)
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin or "")
    error, code = None, None
    main = oockit.cli.main
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaped exception is reported, never raised
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = perf_counter() - t0
        sys.stdin = saved_stdin
    return Outcome(seconds, code, out.getvalue(), err.getvalue(), error)


def _judge(op, outcome, checks, check: bool = True) -> dict:
    """Latency, status, problem and digest of one outcome; checked only if ``check``."""
    status, problem = checks.check(op, outcome) if check else (None, "")
    return {"seconds": outcome.seconds, "status": status, "problem": problem,
            "digest": checks.digest(op, outcome) if op.deterministic else None}


def _forked(op, oockit, checks, check: bool) -> dict:
    """Run one operation in a forked child; returns its latency, check and digest.

    The child checks the output only if ``check``, and hashes it if the
    operation is deterministic; it sends back just these, as one JSON line.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        try:
            os.close(rfd)
            result = _judge(op, _execute(op, oockit, checks.Outcome), checks, check)
            with os.fdopen(wfd, "w") as fh:
                json.dump(result, fh)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, wait_status = os.waitpid(pid, 0)
    if not data:
        return {"seconds": None, "status": checks.FAILED, "digest": None,
                "problem": f"process died, wait status {wait_status}"}
    return json.loads(data)


class Run:
    """One benchmark process: runs, checks, digests and, if traced, spans."""

    def __init__(self, oockit):
        import checks

        self.oockit = oockit
        self.checks = checks
        self.reference = hostspeed.Reference()
        self.records: list[dict] = []
        self.failed = self.known_defects = 0
        self.problems: list[str] = []

    def run_traced(self, ops, recorder) -> dict:
        """Run the pass in-process, each operation traced and untraced.

        The untraced run of each operation goes before or after its traced
        run in turn, so that the ratio of the two sums is the tracing
        overhead.  Only the latency of the untraced run is kept: the traced
        run alone is checked, counted and hashed.

        The benchmark's own objects are frozen out of the garbage collector
        before the pass, and young garbage is collected before each operation,
        so that collections inside an operation see about the heap a fresh
        CLI process would have, whatever ran before.
        """
        gc.collect()
        gc.freeze()
        wall = untraced = 0.0
        known = 0
        for j, op in enumerate(ops):
            for rec in [None, recorder] if j % 2 == 0 else [recorder, None]:
                outcome = self._execute(op, rec)
                if rec is recorder:
                    wall += outcome.seconds
                    known += self._record(op, _judge(op, outcome, self.checks))
                else:
                    untraced += outcome.seconds
        return {
            "wall": wall,
            "untraced_wall": untraced,
            "known_defects": known,
            "cli_ops": sum(op.is_cli for op in ops),
        }

    def run_forked(self, ops, deadline: float) -> list[float]:
        """Run every operation in forked children, in rounds; its scaled latencies.

        Round 0 runs and checks every operation in the drawn order.  Later
        rounds repeat them shortest first, and a round ends early where a
        repeat would end past ``deadline`` (a ``perf_counter`` value).  A
        deterministic repeat must hash as its first run did; any other is
        checked again.  A reference sample precedes every run; an operation's
        latency is the median of its runs, each scaled to the reference speed
        around it.
        """
        gc.collect()
        gc.freeze()
        runs = [[] for _ in ops]  # (start, end, seconds) per run

        def timed(i, check):
            self.reference.sample()
            t0 = perf_counter()
            result = _forked(ops[i], self.oockit, self.checks, check)
            if result["seconds"] is not None:
                runs[i].append((t0, perf_counter(), result["seconds"]))
            return result

        for i, op in enumerate(ops):
            self._record(op, timed(i, check=True))
        again = sorted(
            (r[0][2], i) for i, (r, rec) in enumerate(zip(runs, self.records))
            if r and rec["status"] != self.checks.FAILED
        )
        for _ in range(1, REPEATS):
            for first, i in again:
                if perf_counter() + first > deadline:
                    break
                op, rec = ops[i], self.records[i]
                result = timed(i, check=not op.deterministic)
                if result["seconds"] is None or result["status"] == self.checks.FAILED:
                    self._fail(rec, op, result["problem"])
                elif op.deterministic and result["digest"] != rec["digest"]:
                    self._fail(rec, op, "output differs from its first run")
        self.reference.sample(REF_TAIL)
        latencies = []
        for rec, r in zip(self.records, runs):
            rec["runs"] = [s for _, _, s in r]
            scaled = [s * self.reference.scale(t0, t1) for t0, t1, s in r]
            rec["seconds"] = statistics.median(scaled) if scaled else None
            latencies.append(rec["seconds"])
        return latencies

    def setup_probes(self, workload: str, seed: int) -> list[float]:
        """Scaled seconds of SETUP_PROBES fresh processes until their first operation."""
        windows = []
        for _ in range(SETUP_PROBES):
            self.reference.sample(REF_TAIL)
            windows.append(_setup_probe(workload, seed))
        self.reference.sample(REF_TAIL)
        return [(t1 - t0) * self.reference.scale(t0, t1) for t0, t1 in windows]

    def _fail(self, rec: dict, op, problem: str) -> None:
        if rec["status"] != self.checks.FAILED:
            self.failed += 1
            self.known_defects -= rec["status"] == self.checks.KNOWN_DEFECT
            self.problems.append(f"{op.key}: {problem}")
        rec["status"], rec["problem"] = self.checks.FAILED, problem

    def _execute(self, op, recorder):
        gc.collect()
        if recorder is None:
            return _execute(op, self.oockit, self.checks.Outcome)
        with spans.installed(recorder):
            recorder.op = len(self.records)
            recorder.active = True
            try:
                return _execute(op, self.oockit, self.checks.Outcome)
            finally:
                recorder.active = False

    def _record(self, op, result: dict) -> int:
        """Count and keep one judged run; returns 1 for the known defect, else 0."""
        status, problem = result["status"], result["problem"]
        if status == self.checks.FAILED:
            self.failed += 1
            self.problems.append(f"{op.key}: {problem}")
        elif status == self.checks.KNOWN_DEFECT:
            self.known_defects += 1
        self.records.append({
            "key": op.key,
            "seconds": result["seconds"],
            "status": status,
            "problem": problem,
            "digest": result["digest"],
        })
        return status == self.checks.KNOWN_DEFECT

    def combined_digest(self) -> str:
        h = hashlib.sha256()
        for r in self.records:
            if r["digest"] is not None:
                h.update(f"{r['key']}\t{r['digest']}\n".encode())
        return h.hexdigest()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _print_table(rows) -> None:
    print(f"  {'metric':<30} {'unit':<6} {'n':>5} {'median':>14} {'q1':>14} {'q3':>14}")
    for name, unit, values in rows:
        q1, med, q3 = _quartiles(values)
        print(f"  {name:<30} {unit:<6} {len(values):>5} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("emit", "build-verify", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        oockit = _import_oockit()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.probe_setup:
        workloads.build_pass(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    deadline = perf_counter() + args.seconds
    run = Run(oockit)
    setup = [] if args.trace else run.setup_probes(args.workload, args.seed)
    ops = workloads.build_pass(args.workload, args.seed)
    recorder = spans.Recorder() if args.trace else None
    if recorder is not None:
        result = run.run_traced(ops, recorder)
    else:
        latencies = run.run_forked(ops, deadline)
    rusage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    peak_rss_mb = max(r.ru_maxrss for r in rusage) / 1024

    attempted = len(run.records)
    digest = run.combined_digest()
    print(f"oockit benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  attempted {attempted}, failed {run.failed}, error rate {run.failed / attempted:.4f}")
    if run.known_defects:
        print(f"  known defect: {run.known_defects} construct nxm frontier commands died with "
              f"RecursionError, rate {run.known_defects / attempted:.4f}")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    print(f"digest: {digest}")

    if recorder is not None:
        layer = spans.layer_metrics(
            recorder.spans,
            cli_ops=result["cli_ops"],
            known_defects=result["known_defects"],
            overhead_ratio=result["wall"] / result["untraced_wall"],
        )
        print("  per-layer metrics of the traced pass:")
        _print_table([(k, spans.UNITS[k], [v]) for k, v in layer.items()])
        print("  self time by layer, s: " + ", ".join(
            f"{k} {v:.4g}" for k, v in spans.layer_self_times(recorder.spans).items()))
        metrics = {k: {"value": v, "unit": spans.UNITS[k]} for k, v in layer.items()}
    else:
        latencies = [x for x in latencies if x is not None]  # a died process failed
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        metrics = {
            "wall_s": {"value": sum(latencies), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "op_p90_ms": {"value": 1000 * p90, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        runs = [len(r["runs"]) for r in run.records]
        ref = run.reference.seconds
        print(f"  runs per operation: {runs.count(REPEATS)} x {REPEATS}, "
              f"{len(runs) - runs.count(REPEATS)} fewer; latency is the median scaled run")
        print(f"  reference: {len(ref)} samples, median {1000 * statistics.median(ref):.4g} ms, "
              f"scaled to {1000 * hostspeed.REF_S:.4g} ms; unscaled first runs sum to "
              f"{sum(r['runs'][0] for r in run.records if r['runs']):.6g} s")
        print("  end-to-end metrics; samples are operations or set-up probes:")
        _print_table([
            ("op_latency_ms", "ms", [1000 * x for x in latencies]),
            ("setup_s", "s", setup),
        ])
        print(f"  wall_s {sum(latencies):.6g}, op_p90_ms {1000 * p90:.6g} over "
              f"{len(latencies)} operations, peak_rss_mb {peak_rss_mb:.6g}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed,
              "digest": digest, "setup_s": setup,
              "failed": run.failed, "known_defects": run.known_defects,
              "metrics": metrics, "operations": run.records}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if recorder is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for s in recorder.spans:
                fh.write(json.dumps(vars(s), default=str) + "\n")
    print(f"  report: {OUT.name}/{stem}.json")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
