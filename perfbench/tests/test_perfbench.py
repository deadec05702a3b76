"""Tests of the benchmark itself: generation, checks, spans, scaling and metric specs.

    python3 -m pytest -q perfbench/tests
"""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import hostspeed
import spans
import workloads
from checks import FAILED, KNOWN_DEFECT, OK, Outcome
from oockit import bounds, cli, construct, core, document, search, verify
from workloads import Op

ROOT = Path(__file__).resolve().parents[2]


def _keys(workload, seed):
    return [op.key for op in workloads.build_pass(workload, seed)]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations_other_seed_other_operations(workload):
    first = _keys(workload, 7)
    assert first == _keys(workload, 7)
    assert first != _keys(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_has_at_least_100_distinct_operations(workload):
    for seed in (1, 2, 3):
        keys = _keys(workload, seed)
        assert len(keys) >= 100
        assert len(set(keys)) == len(keys)


def test_parameter_spaces_agree_with_bounds():
    for r in workloads.TIGHT_R:
        base = r if r % 12 in (1, 5) else r // 3
        assert r % 12 in (1, 3, 5) and bounds.tight_admissible(base).admissible
    for m in range(4, 2000, 4):
        assert workloads.three_row_ok(m) == (bounds.phi_exact(3, m).kind == "exact"), m


def test_stratified_draw_is_spread_and_without_repeats():
    picks = workloads.stratified(random.Random(1), list(range(8, 1101)), int, 8, 1100, 14)
    assert len(picks) == len(set(picks)) == 14
    assert min(picks) < 10 and max(picks) > 1000


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        spans.Span("cli.main", "cli", 0.0, 10.0, -1, 0),
        spans.Span("construct.ooc_3xm", "construct", 1.0, 6.0, 0, 0),
        spans.Span("verify.verify_code", "verify", 2.0, 4.0, 1, 0),
        spans.Span("document.code_to_document", "document", 6.5, 9.5, 0, 0),
        spans.Span("core.normalize", "core", 7.0, 9.0, 3, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 3.0, 2.0, 1.0, 2.0])
    by_layer = spans.layer_self_times(tree)
    assert by_layer["cli"] == pytest.approx(2.0) and by_layer["core"] == pytest.approx(2.0)


def _originals():
    return {
        (mod.__name__, name): value
        for mod in (cli, construct, core, document, search, verify, bounds)
        for name, value in vars(mod).items()
        if callable(value)
    }


def test_wrappers_see_internal_calls_and_restore_the_originals():
    before = _originals()
    rec = spans.Recorder()
    with spans.installed(rec):
        assert construct.verify_code is not before[("oockit.construct", "verify_code")]
        assert cli.code_to_document is not before[("oockit.cli", "code_to_document")]
        assert document.normalize is not before[("oockit.document", "normalize")]
        assert construct.make_codeword is before[("oockit.construct", "make_codeword")]
        rec.active = True
        cli_out = io.StringIO()
        with redirect_stdout(cli_out):
            assert cli.main(["construct", "2xm", "--m", "8"]) == 0
        rec.active = False
    assert _originals() == before
    names = [s.name for s in rec.spans]
    assert names[0] == "cli.main"
    for name in ("cli.cmd_construct", "construct.ooc_2xm", "verify.verify_code",
                 "document.code_to_document", "core.normalize", "document.render_json"):
        assert name in names
    layer = spans.layer_metrics(rec.spans, cli_ops=1, known_defects=0, overhead_ratio=1.0)
    assert layer["construct.public_calls"] == 1 and layer["construct.codewords"] == 6
    assert layer["core.normalize_calls"] == 6
    assert layer["document.bytes_out"] == len(cli_out.getvalue()) - 1


def test_traced_and_forked_runs_check_and_hash_each_operation_once():
    import oockit
    from run import REPEATS, Run

    ops = [_emit_op(8), _emit_op(12)]
    forked, traced = Run(oockit), Run(oockit)
    latencies = forked.run_forked(ops, deadline=float("inf"))
    result = traced.run_traced(ops, spans.Recorder())
    for run in (forked, traced):
        assert len(run.records) == len(ops) and run.failed == 0
    assert forked.combined_digest() == traced.combined_digest()
    assert [len(r["runs"]) for r in forked.records] == [REPEATS] * len(ops)
    assert all(x > 0 for x in latencies) and result["untraced_wall"] > 0


def test_forked_repeats_stop_at_the_deadline():
    import oockit
    from run import Run

    run = Run(oockit)
    run.run_forked([_emit_op(8)], deadline=0.0)
    assert [len(r["runs"]) for r in run.records] == [1] and run.failed == 0


def test_scale_uses_the_reference_samples_near_the_span():
    ref = hostspeed.Reference()
    ref.starts = [0.0, 0.5, 10.0, 10.5, 11.0]
    ref.seconds = [0.001, 0.001, 0.004, 0.004, 0.008]
    # only the samples within WINDOW_S of [0.2, 0.3] count
    assert ref.scale(0.2, 0.3) == pytest.approx(hostspeed.REF_S / 0.001)
    assert ref.scale(10.2, 10.4) == pytest.approx(hostspeed.REF_S / 0.004)
    # no sample near the span: the median of all of them
    assert ref.scale(50.0, 51.0) == pytest.approx(hostspeed.REF_S / 0.004)
    ref.sample(3)
    assert len(ref.seconds) == 8 and all(x > 0 for x in ref.seconds[-3:])


def test_metric_specs_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    assert list(spans.MOVES) == names
    layer = spans.layer_metrics([], cli_ops=0, known_defects=0, overhead_ratio=1.0)
    assert list(layer) == names
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _emit_op(m=8):
    return Op(f"construct 2xm --m {m}", "emit_json", argv=("construct", "2xm", "--m", str(m)),
              meta={"family": "2xm", "n": 2, "m": m})


def _emit_doc(m=8):
    res = construct.ooc_2xm(m)
    return document.code_to_document(res.code, {"claimed_size": res.claimed_size, "verified": True})


def test_check_accepts_a_good_emission():
    text = document.render_json(_emit_doc())
    assert checks.check(_emit_op(), Outcome(0.1, 0, text + "\n")) == (OK, "")


def test_check_rejects_a_wrong_size():
    doc = _emit_doc()
    doc["codewords"] = doc["codewords"][:-1]
    status, problem = checks.check(_emit_op(), Outcome(0.1, 0, json.dumps(doc)))
    assert status == FAILED and "size" in problem


def test_check_rejects_a_duplicated_translate():
    doc = _emit_doc(12)
    # in canonical form every translate of a codeword is the codeword itself;
    # replacing one codeword keeps the size right, so verify_code must catch it
    doc["codewords"][-1] = doc["codewords"][0]
    doc["codewords"].sort()
    status, problem = checks.check(_emit_op(12), Outcome(0.1, 0, json.dumps(doc)))
    assert status == FAILED and "verify_code" in problem


def test_check_rejects_an_unexpected_exit_code():
    text = document.render_json(_emit_doc())
    status, problem = checks.check(_emit_op(), Outcome(0.1, 1, text))
    assert status == FAILED and "exit" in problem
    status, problem = checks.check(_emit_op(), Outcome(0.1, None, "", error="RecursionError: x"))
    assert status == FAILED


def test_planted_verify_document_must_fail_verification():
    import oockit
    from run import _execute

    planted = workloads._plant_translate(_emit_doc(12), random.Random(3))
    meta = {"planted": True, "codewords": len(planted["codewords"])}
    op = Op("verify planted", "verify", argv=("verify", "-"), stdin=json.dumps(planted), meta=meta)
    out = _execute(op, oockit, Outcome)
    assert out.exit_code == 1
    assert checks.check(op, out) == (OK, "")
    out.exit_code = 0
    assert checks.check(op, out)[0] == FAILED
    clean = Op("verify clean", "verify", argv=("verify", "-"), stdin=json.dumps(_emit_doc(12)),
               meta={"planted": True, "codewords": 9})
    assert checks.check(clean, _execute(clean, oockit, Outcome))[0] == FAILED


def test_frontier_recursion_error_is_the_known_defect():
    op = Op("construct nxm --n 12 --m 56", "frontier", argv=("construct", "nxm"),
            meta={"family": "nxm", "n": 12, "m": 56, "frontier": True})
    out = Outcome(3.0, None, "", error="RecursionError: maximum recursion depth exceeded")
    assert checks.check(op, out) == (KNOWN_DEFECT, "")
    assert checks.check(op, Outcome(3.0, 2, ""))[0] == FAILED


def test_least_translate_matches_core_normalize():
    rng = random.Random(5)
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(3, 40)
        cells = rng.sample([(r, s) for r in range(n) for s in range(m)], 3)
        cw = core.make_codeword(cells)
        assert checks.least_translate(cw, m) == core.normalize(cw, m)


def test_digest_ignores_search_elapsed_time():
    op = Op("search tight --m 13", "search_tight", argv=("search", "tight", "--m", "13"))
    a = Outcome(0.1, 0, json.dumps({"best_size": 3, "elapsed_ms": 1}))
    b = Outcome(0.2, 0, json.dumps({"best_size": 3, "elapsed_ms": 9}))
    assert checks.digest(op, a) == checks.digest(op, b)
