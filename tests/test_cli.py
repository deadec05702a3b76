import inspect
import io
import json

import pytest

from oockit import bounds, construct, search
from oockit.cli import BOUNDS, FAMILIES, SEARCH_FLAGS, SEARCHES, build_parser, main
from oockit.construct import explicit_code, ooc_2xm
from oockit.core import Code, CodeParams, make_codeword
from oockit.document import (
    DocumentError,
    code_to_document,
    document_to_code,
    parse_json,
    render_json,
    render_matrix,
)


class TestDocument:
    def test_round_trip(self):
        code = explicit_code("3x8").code
        doc = code_to_document(code, {"branch": "explicit/3x8", "verified": True})
        parsed, meta = document_to_code(parse_json(render_json(doc)))
        assert code_to_document(parsed, meta) == doc

    def test_codewords_are_normalized_and_sorted(self):
        code = Code(
            CodeParams(1, 8),
            [make_codeword(((0, 5), (0, 6), (0, 7))), make_codeword(((0, 2), (0, 3), (0, 5)))],
        )
        doc = code_to_document(code)
        assert doc["codewords"] == sorted(doc["codewords"])
        assert doc["codewords"][0][0] == [0, 0]

    def test_canonical_json_has_sorted_keys(self):
        doc = code_to_document(ooc_2xm(8).code)
        text = render_json(doc)
        assert text == render_json(json.loads(text))
        assert '"codewords"' in text.splitlines()[1]

    def test_malformed_documents_rejected(self):
        with pytest.raises(DocumentError):
            parse_json("{not json")
        with pytest.raises(DocumentError):
            document_to_code({"schema_version": "2"})
        with pytest.raises(DocumentError):
            document_to_code({"schema_version": "1", "params": {"n": 1, "m": 8}, "codewords": [[[0, 0], [0, 9], [0, 1]]]})
        # int() would read each of these as some other code, which then passes
        for params, cell in [
            ({"n": 1, "m": 7.9}, [0, 1]),
            ({"n": 1, "m": 7}, [0, 1.5]),
            ({"n": 1, "m": 7}, [False, 1]),
            ({"n": "1", "m": 7}, [0, 1]),
            ({"n": 1, "m": 7, "lambda_a": True}, [0, 1]),
        ]:
            doc = {"schema_version": "1", "params": params, "codewords": [[[0, 0], cell, [0, 3]]]}
            with pytest.raises(DocumentError):
                document_to_code(doc)

    def test_matrix_rendering(self):
        code = Code(CodeParams(2, 4), [make_codeword(((0, 0), (0, 2), (1, 3)))])
        assert render_matrix(code) == "1010\n0001"


class TestCliConstructVerify:
    def test_pipe_idempotence(self, capsys):
        assert main(["construct", "2xm", "--m", "8"]) == 0
        doc_text = capsys.readouterr().out
        assert len(json.loads(doc_text)["codewords"]) == 6

        import io, sys

        stdin = sys.stdin
        sys.stdin = io.StringIO(doc_text)
        try:
            rc = main(["verify", "-"])
        finally:
            sys.stdin = stdin
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["verification"]["auto_ok"] and report["verification"]["cross_ok"]
        assert report["composition_census"]["beta"] > 0

    def test_explicit_and_matrix_format(self, capsys):
        assert main(["construct", "explicit", "--id", "3x8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["claimed_size"] == 13
        assert main(["construct", "explicit", "--id", "1d48", "--format", "matrix"]) == 0
        lines = capsys.readouterr().out.strip().split("\n\n")
        assert len(lines) == 10 and all(len(b) == 48 for b in lines)

    def test_unsupported_parameters_exit_2(self, capsys):
        assert main(["construct", "3xm", "--m", "10"]) == 2
        assert main(["construct", "equi2mod4", "--m", "8"]) == 2
        assert main(["construct", "explicit", "--id", "9x9"]) == 2
        capsys.readouterr()

    def test_unused_flag_exit_2(self, capsys):
        assert main(["construct", "3xm", "--m", "8", "--s", "2"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: family '3xm' does not take --s"]
        assert main(["construct", "power4", "--s", "1", "--r", "6", "--seed", "3"]) == 2
        assert main(["construct", "tight", "--r", "13", "--variant", "standard"]) == 2
        assert capsys.readouterr().out == ""

    def test_nxm_with_three_rows_takes_no_search_flags(self, capsys):
        argv = ["construct", "nxm", "--n", "3", "--m", "8"]
        assert main([*argv, "--seed", "1", "--budget-seconds", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: n = 3 takes no search flags: it runs no search"]
        assert main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["codewords"]) == 13

    def test_equi_search_at_lambda_one_is_empty(self, capsys):
        assert main(["search", "equi", "--m", "13", "--lambda-a", "1", "--format", "text"]) == 0
        assert capsys.readouterr().out == "best_size=0 proven_optimal=True nodes=0\n"

    def test_provenance_names_a_flag_set_to_zero(self, capsys):
        assert main(["construct", "tight", "--r", "13", "--s", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["provenance"] == "construct tight --s 0 --r 13"

    @pytest.mark.parametrize("n,m", [(12, 56), (15, 40)])
    def test_nxm_frontier_shapes_build(self, capsys, n, m):
        assert main(["construct", "nxm", "--n", str(n), "--m", str(m)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["codewords"]) == bounds.phi_exact(n, m).value
        assert doc["metadata"]["verified"]

    def test_search_exhaustion_exit_3(self, capsys):
        rc = main(
            ["construct", "nxm", "--n", "12", "--m", "8",
             "--budget-seconds", "0.5", "--node-budget", "10", "--strategy", "exact_cover"]
        )
        capsys.readouterr()
        assert rc == 3

    def test_verify_flags_violations_exit_1(self, capsys, tmp_path):
        code = Code(
            CodeParams(1, 9, 3, 2, 1),
            [make_codeword(((0, 0), (0, 3), (0, 6)))] * 2,
        )
        path = tmp_path / "bad.json"
        path.write_text(render_json(code_to_document(code)))
        assert main(["verify", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verification"]["violation_count"] > 0

    def test_verify_stdin_fills_the_parity_census(self, capsys, monkeypatch):
        assert main(["construct", "power4", "--s", "1", "--r", "6"]) == 0
        doc = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert main(["verify", "-"]) == 0
        census = json.loads(capsys.readouterr().out)["parity_census"]
        assert census == {"c_o": 3, "c_e": 0, "c_d": 1, "n_oe": 0, "n_od": 0, "n_e": 0, "n_d": 0}
        assert sum(census.values()) == len(json.loads(doc)["codewords"])

    def test_third_period_codeword_has_no_parity_census(self, capsys, tmp_path):
        code = Code(
            CodeParams(1, 12, 3, 3, 1),
            [make_codeword(((0, 0), (0, 4), (0, 8))), make_codeword(((0, 0), (0, 1), (0, 3)))],
        )
        path = tmp_path / "third.json"
        path.write_text(render_json(code_to_document(code)))
        assert main(["verify", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["parity_census"] is None and out["composition_census"]["alpha"] == 2

    def test_verify_text_format(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(render_json(code_to_document(explicit_code("3x8").code)))
        assert main(["verify", str(path), "--format", "text"]) == 0
        assert capsys.readouterr().out == (
            "PASS auto_ok=True cross_ok=True max_auto_multiplicity=2 violations=0\n"
        )

    def test_verify_malformed_exit_2(self, capsys, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"schema_version": "1", "params"')
        assert main(["verify", str(path)]) == 2
        capsys.readouterr()


class TestCliBoundSearchCatalog:
    def test_bound_phi(self, capsys):
        assert main(["bound", "phi", "--n", "3", "--m", "32"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "branch": "phi/rows0mod3_32mod64",
            "dependencies": [],
            "kind": "exact",
            "value": 53,
        }

    def test_bound_phi_text(self, capsys):
        assert main(["bound", "phi", "--n", "3", "--m", "32", "--format", "text"]) == 0
        assert capsys.readouterr().out == (
            "phi value=53 kind=exact branch=phi/rows0mod3_32mod64\n"
        )

    def test_bound_psi_e(self, capsys):
        assert main(["bound", "psi_e", "--m", "20"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 4 and out["kind"] == "exact"

    def test_bound_unknown_still_exits_zero(self, capsys):
        assert main(["bound", "phi", "--n", "5", "--m", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "unknown" and out["dependencies"] == [["upper_bound", 35]]

    def test_bound_cac_odd_exit_2(self, capsys):
        assert main(["bound", "cac", "--m", "9"]) == 2
        capsys.readouterr()

    def test_search_optimal(self, capsys):
        assert main(["search", "optimal", "--n", "2", "--m", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["best_size"] == 2 and out["proven_optimal"]
        assert len(out["witness"]["codewords"]) == 2

    def test_search_tight_witness(self, capsys):
        assert main(["search", "tight", "--m", "13"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["best_size"] == 3

    @pytest.mark.parametrize("m", ["0", "-5"])
    def test_search_tight_rejects_lengths_below_one(self, capsys, m):
        assert main(["search", "tight", "--m", m]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need n, m >= 1, got n=1, m={m}\n"

    @pytest.mark.parametrize(
        "argv,m",
        [
            (["construct", "2xm", "--m", "0"], 0),
            (["construct", "2xm", "--m", "-4"], -4),
            (["catalog", "--n", "2", "--m", "0..3"], 0),
        ],
    )
    def test_two_row_lengths_below_one_exit_2(self, capsys, argv, m):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need n, m >= 1, got n=2, m={m}\n"

    def test_bound_cac_zero_names_the_requirement(self, capsys):
        assert main(["bound", "cac", "--m", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: conflict-avoiding sizes are closed-form for even m >= 2 only, got 0\n"
        )

    def test_search_budget_of_zero_is_honoured(self, capsys):
        argv = ["search", "optimal", "--n", "2", "--m", "6", "--node-budget", "0"]
        assert main([*argv, "--format", "text"]) == 0
        assert "proven_optimal=False" in capsys.readouterr().out
        # the clock is read on the first node, not only every 16 nodes
        argv = ["search", "optimal", "--n", "2", "--m", "6", "--budget-seconds", "0"]
        assert main([*argv, "--format", "text"]) == 0
        assert capsys.readouterr().out.split()[1:] == ["proven_optimal=False", "nodes=1"]

    def test_nan_budget_is_a_usage_error(self, capsys):
        assert main(["search", "tight", "--m", "13", "--budget-seconds", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: a search budget must not be NaN\n"

    def test_three_row_rejection_names_the_bounds_class(self, capsys):
        assert main(["construct", "3xm", "--m", "12"]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert captured.out == "" and "phi/unknown" in line

    @pytest.mark.parametrize("kind,flags", [("optimal", ["--n", "2", "--m", "6"]),
                                            ("equi", ["--m", "13"])])
    def test_lambda_a_of_zero_is_a_usage_error(self, capsys, kind, flags):
        assert main(["search", kind, *flags, "--lambda-a", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: need lambda_a >= 1, got 0\n"

    def test_missing_required_flag_exit_2(self, capsys):
        assert main(["bound", "phi", "--m", "8"]) == 2
        assert main(["search", "gdd", "--u", "3"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: bound 'phi' needs --n", "error: search 'gdd' needs --m"
        ]

    def test_search_gdd(self, capsys):
        assert main(["search", "gdd", "--u", "4", "--m", "4", "--strategy", "exact_cover"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["witness"]["base_blocks"]) == 72

    def test_catalog_rows(self, capsys):
        assert main(["catalog", "--n", "3", "--m", "8..104"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["m"] for r in rows] == [8, 20, 24, 32, 40, 52, 56, 68, 72, 88, 96, 100, 104]
        assert all(r["constructed"] == r["bound"] and r["verified"] for r in rows)

    def test_catalog_bad_range_exit_2(self, capsys):
        assert main(["catalog", "--n", "3", "--m", "8..x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad range '8..x': ")

    def test_catalog_builds_rows_0mod3_through_the_family_table(self, capsys):
        assert main(["catalog", "--n", "12", "--m", "8..56"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["m"] for r in rows] == [8, 20, 24, 32, 40, 52, 56]
        for r in rows:
            assert r["constructed"] == r["bound"] == bounds.phi_exact(12, r["m"]).value
            assert r["verified"]

    @pytest.mark.parametrize(
        "argv", [["construct", "3xm", "--m", "8"], ["catalog", "--n", "3", "--m", "8"]]
    )
    def test_unexpected_exception_is_one_line_and_exit_4(self, capsys, monkeypatch, argv):
        def overflow(m):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(construct, "ooc_3xm", overflow)
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: maximum recursion depth exceeded\n"

    def test_power4_negative_s_names_the_requirement(self, capsys):
        assert main(["construct", "power4", "--s", "-1", "--r", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: need s >= 0, got -1\n"
        argv = ["construct", "power4", "--s", "0", "--r", "6", "--variant", "half_free"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: variant half_free needs s >= 1, got s=0\n"


# subcommand -> (module its table names functions of, table)
TABLES = {
    "construct": (construct, FAMILIES),
    "bound": (bounds, BOUNDS),
    "search": (search, SEARCHES),
}


def _subparsers():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    return sub.choices


def _options(subparser) -> dict:
    """dest -> a value argparse accepts, for every --flag of the subparser."""
    return {
        a.dest: (a.choices[0] if a.choices else "1")
        for a in subparser._actions
        if a.option_strings and a.dest not in ("help", "format")
    }


class TestCliTables:
    @pytest.mark.parametrize("command", list(TABLES))
    def test_entries_bind_to_public_functions(self, command):
        module, table = TABLES[command]
        for kind, (name, required, optional, *_) in table.items():
            fn = getattr(module, name)
            assert not name.startswith("_") and inspect.isfunction(fn), kind
            params = [flag for flag in (*required, *optional) if flag not in SEARCH_FLAGS]
            if any(flag in SEARCH_FLAGS for flag in optional):
                params.append(search.SearchConfig())
            inspect.signature(fn).bind(*params)

    def test_at_most_one_family_claims_each_phi_optimum(self):
        for n in range(1, 40):
            for m in range(1, 200):
                if bounds.phi_exact(n, m).kind == bounds.EXACT:
                    claims = [kind for kind, row in FAMILIES.items() if row[3] and row[3](n, m)]
                    assert len(claims) <= 1, (n, m, claims)

    @pytest.mark.parametrize("command,flags", [
        ("construct", {"n", "m", "g", "s", "r", "p", "id", "variant", *SEARCH_FLAGS}),
        ("bound", {"n", "m"}),
        ("search", {"n", "m", "u", "lambda_a", *SEARCH_FLAGS}),
    ])
    def test_each_subcommand_takes_the_flags_its_table_rows_name(self, command, flags):
        table = TABLES[command][1]
        named = {flag for row in table.values() for flag in (*row[1], *row[2])}
        assert set(_options(_subparsers()[command])) == named == flags

    @pytest.mark.parametrize("command", list(TABLES))
    def test_choices_are_the_table_keys(self, command):
        positional = [a for a in _subparsers()[command]._actions if not a.option_strings]
        assert [list(a.choices) for a in positional if a.choices] == [list(TABLES[command][1])]

    @pytest.mark.parametrize("command", list(TABLES))
    def test_every_flag_a_kind_does_not_take_exits_2(self, command, capsys):
        options = _options(_subparsers()[command])
        for kind, (_, required, optional, *_) in TABLES[command][1].items():
            argv = [command, kind]
            for flag in required:
                argv += [f"--{flag.replace('_', '-')}", options[flag]]
            for flag in options.keys() - {*required, *optional}:
                assert main([*argv, f"--{flag.replace('_', '-')}", options[flag]]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                (line,) = captured.err.splitlines()
                assert line.endswith(f"{kind!r} does not take --{flag.replace('_', '-')}")
