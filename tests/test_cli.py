"""Command line surface: flags, printed lines, exit codes, report files.

Exit-code contract frozen here: 0 clean, 2 obstruction found (negative
beta or Ding, violated volume bound), 1 configuration or computational
failure.  Scans prefer 2 over 1 when both apply.
"""

import json

import pytest

from fanokit import acceptance, cli
from fanokit.cli import main
from fanokit.config import resolve_model, resolve_sequence, resolve_subscheme
from fanokit.errors import ConfigError, NoStabilization
from fanokit.model import build_model, catalog_model
from fanokit.reportio import model_to_dict

import helpers


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture(scope="module")
def p116_path(tmp_path_factory):
    """Model file for the weighted plane P(1,1,6), which violates the bound."""
    X = build_model(2, ((1, 0), (0, 1), (-1, -6)), name="P116")
    path = tmp_path_factory.mktemp("models") / "p116.json"
    path.write_text(json.dumps(model_to_dict(X)))
    return str(path)


class TestResolvers:
    def test_catalog_name(self):
        assert resolve_model("P1xP2").name == "P1xP2"

    def test_model_file(self, p116_path):
        X = resolve_model(p116_path)
        assert X.r0 == 3

    def test_bad_model_source_lists_catalog(self):
        with pytest.raises(ConfigError, match="P1, P112, .*existing file"):
            resolve_model("Q7")

    def test_subscheme_shorthands(self):
        X = catalog_model("P112")
        assert resolve_subscheme(X, "point@0").label == "point@0"
        assert resolve_subscheme(X, "point2@0").label == "point2@0"
        Z = resolve_subscheme(X, "divisor@-1,-2")
        assert Z.label == "divisor@(-1, -2)"
        assert dict(Z.chart_gens) == {1: ((1, 0),), 2: ((1, 0),)}
        with pytest.raises(ConfigError, match="shorthand"):
            resolve_subscheme(X, "blowup@0")

    def test_subscheme_file_dimension_check(self, tmp_path):
        X2, X3 = catalog_model("P2"), catalog_model("P3")
        path = tmp_path / "z.json"
        from fanokit.subscheme import point_subscheme

        path.write_text(json.dumps(helpers.subscheme_to_dict(point_subscheme(X2, 0))))
        assert resolve_subscheme(X2, str(path)).chart_gens
        with pytest.raises(ConfigError, match="dimension"):
            resolve_subscheme(X3, str(path))

    def test_sequence_shorthands(self):
        X = catalog_model("P1")
        assert len(resolve_sequence(X, "trivial@3").steps) == 3
        dnc = resolve_sequence(X, "dnc@0")
        assert len(dnc.steps) == 2
        with pytest.raises(ConfigError, match="shorthand"):
            resolve_sequence(X, "trivial@0")


class TestCatalogAndVolume:
    def test_catalog_lists_all_models(self, run):
        code, out, _ = run("catalog")
        assert code == 0
        names = [line.split()[0] for line in out.splitlines()]
        assert names == ["P1", "P112", "P1xP1", "P1xP2", "P2", "P3", "dP6"]

    def test_catalog_json(self, run):
        code, out, _ = run("catalog", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["P2"]["rays"] == [[1, 0], [0, 1], [-1, -1]]
        assert data["dP6"]["r0"] == 1

    def test_volume_plain(self, run):
        code, out, _ = run("volume", "--model", "P1xP2")
        assert code == 0
        assert "anticanonical volume: 54 (54.000000000000)" in out

    def test_volume_with_profile_csv(self, run, tmp_path):
        csv_path = tmp_path / "profile.csv"
        code, out, _ = run("volume", "--model", "P2", "--subscheme", "point@0",
                           "--profile-csv", str(csv_path))
        assert code == 0
        assert "tau = 3 (3.000000000000)" in out
        assert "integral = 18 (18.000000000000)" in out
        assert csv_path.read_text() == "start,end,c0,c1,c2\n0,3,9,0,-1\n"

    @pytest.mark.parametrize("model, body", [
        ("P2", '"boundary_ray": [1, 0]'),
        ("P112", '"charts": {"1": [[1, 1]]}')], ids=["boundary-ray-key", "singular-chart"])
    def test_refused_subscheme_prints_nothing(self, run, tmp_path, model, body):
        # the subscheme is resolved and its profile built before any output
        path = tmp_path / "w.json"
        path.write_text(f'{{"label": "w", "dim": 2, {body}}}')
        code, out, err = run("volume", "--model", model, "--subscheme", str(path))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1

    @pytest.mark.parametrize("vertex, arity", [('["5"]', 1), ('["1", "1", "1"]', 3)],
                             ids=["short", "long"])
    def test_model_file_vertex_of_another_arity(self, run, tmp_path, vertex, arity):
        # refused before any hull is taken
        path = tmp_path / "m.json"
        path.write_text(f'{{"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["0", "2"], {vertex}]}}')
        code, out, err = run("volume", "--model", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: model file {str(path)!r}: vertex arity {arity} != 2\n"

    def test_profile_csv_requires_subscheme(self, run, tmp_path):
        # refused before the volume line is printed
        code, out, err = run("volume", "--model", "P2",
                             "--profile-csv", str(tmp_path / "x.csv"))
        assert (code, out) == (1, "")
        assert err == "error: --profile-csv needs --subscheme\n"


class TestLct:
    def test_point_threshold_and_powers(self, run):
        code, out, _ = run("lct", "--model", "P2", "--subscheme", "point@0")
        assert (code, out) == (0, "lct = 2 (2.000000000000)\n")
        code, out, _ = run("lct", "--model", "P2", "--subscheme", "point@0",
                           "--power", "2")
        assert (code, out) == (0, "lct = 1 (1.000000000000)\n")

    def test_product_line_threshold(self, run):
        code, out, _ = run("lct", "--model", "P1", "--subscheme", "dnc@0",
                           "--product-line", "--c1", "1/2")
        assert code == 0
        assert "product-line threshold:" in out

    def test_product_line_requires_c1(self, run):
        code, _, err = run("lct", "--model", "P1", "--subscheme", "dnc@0",
                           "--product-line")
        assert code == 1
        assert "--product-line needs --c1" in err

    def test_product_line_step_of_another_arity(self, run, tmp_path):
        # refused by type (check_model_fit) before any chart is compared
        path = tmp_path / "long.json"
        path.write_text('{"steps": [{"dim": 2, "charts": {"0": [[0, 0, 1]]}}]}')
        code, out, err = run("lct", "--model", "P2", "--product-line", "--c1", "0",
                             "--subscheme", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: UnsupportedSubscheme:")
        assert err.count("\n") == 1


class TestFiltration:
    def test_point_on_line_report(self, run, tmp_path):
        report_path = tmp_path / "d.json"
        code, out, _ = run("filtration", "--model", "P1", "--subscheme",
                           "point@0", "--report", str(report_path))
        assert code == 0
        assert "r1 = 1; window (-1, 3)" in out
        assert "d_infty = -1 (-1.000000000000)" in out
        data = json.loads(report_path.read_text())
        assert data["model"] == "P1"
        assert data["subscheme"] == "point@0"
        assert data["d_infty"]["d_infty"]["fraction"] == "-1"


class TestBetaAndDing:
    def test_consistent_point(self, run):
        code, out, _ = run("beta", "--model", "P2", "--subscheme", "point@0")
        assert code == 0
        assert "beta(point@0) = 0 (0.000000000000): CONSISTENT" in out

    def test_ideal_that_is_not_integrally_closed(self, run, tmp_path):
        # (x^2, y^2) on P2 has the profile of its closure (x^2, xy, y^2)
        path = tmp_path / "x2y2.json"
        path.write_text('{"label": "x2y2", "dim": 2, '
                        '"charts": {"0": [[2, 0], [0, 2]]}}')
        code, out, _ = run("beta", "--model", "P2", "--subscheme", str(path))
        assert code == 0
        assert "beta(x2y2) = 0 (0.000000000000): CONSISTENT" in out
        assert "approximate" not in out

    @pytest.mark.parametrize("charts, pair", [
        ('{"0": [[1, 0]]}', "charts 0 and 2"),
        ('{"0": [[1, 0]], "1": [[0, 3]]}', "charts 0 and 1")])
    def test_subscheme_file_that_does_not_glue(self, run, tmp_path, charts, pair):
        path = tmp_path / "z.json"
        path.write_text(f'{{"label": "z", "dim": 2, "charts": {charts}}}')
        code, out, err = run("beta", "--model", "P2", "--subscheme", str(path))
        assert code == 1
        assert "beta" not in out
        assert f"GluingMismatch: z: {pair} disagree" in err

    @pytest.mark.parametrize("body", ['"boundary_ray": [1, 0]',
                                      '"charts": {"0": [[0, 1]]}, "boundary_ray": [-1, -1]'],
                             ids=["key-alone", "key-and-charts"])
    def test_subscheme_file_with_a_boundary_ray_key_refused(self, run, tmp_path, body):
        # a subscheme file holds chart ideals only; divisor@i,j names a divisor
        path = tmp_path / "w.json"
        path.write_text(f'{{"label": "w", "dim": 2, {body}}}')
        code, out, err = run("beta", "--model", "P2", "--subscheme", str(path))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "'boundary_ray' key is not read" in err and "divisor@i,j" in err

    def test_sequence_file_step_that_does_not_glue(self, run, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"steps": [{"label": "s1", "dim": 2, "charts": {}}, '
                        '{"label": "s2", "dim": 2, "charts": {"0": [[1, 0]]}}]}')
        code, out, err = run("ding", "--model", "P2", "--sequence", str(path))
        assert code == 1
        assert "ding" not in out
        assert "GluingMismatch: s2: charts 0 and 2 disagree" in err

    @pytest.mark.parametrize("argv", [
        ("beta", "--model", "P1", "--subscheme", "{z}"),
        ("ding", "--model", "P1", "--sequence", "{s}"),
        ("lct", "--model", "P1", "--product-line", "--c1", "1/2", "--subscheme", "{s}")])
    def test_file_naming_a_chart_the_model_lacks(self, run, tmp_path, argv):
        far = '{"label": "far", "dim": 1, "charts": {"5": [[1]]}}'
        z, s = tmp_path / "far.json", tmp_path / "far_seq.json"
        z.write_text(far)
        s.write_text(f'{{"steps": [{far}]}}')
        code, out, err = run(*[a.format(z=z, s=s) for a in argv])
        assert code == 1
        assert out == ""
        assert err == "error: GluingMismatch: far: chart 5 is not one of the 2 charts of P1\n"

    def test_obstructing_divisor_exits_two(self, run, tmp_path):
        out_path = tmp_path / "beta.json"
        code, out, _ = run("beta", "--model", "P112", "--subscheme",
                           "divisor@1,0", "--out", str(out_path))
        assert code == 2
        assert "-8/3 (-2.666666666667): OBSTRUCTS_SEMISTABILITY" in out
        data = json.loads(out_path.read_text())
        assert data["beta"]["fraction"] == "-8/3"

    def test_ding_trivial_sequence_is_zero(self, run):
        code, out, _ = run("ding", "--model", "P1", "--sequence", "trivial@2")
        assert code == 0
        assert "M = 2, L_top = 0 (0.000000000000)" in out
        assert "ding = 0 (0.000000000000)" in out

    def test_ding_dnc_value(self, run):
        code, out, _ = run("ding", "--model", "P1", "--sequence", "dnc@0",
                           "--r", "1")
        assert code == 0
        assert "L_top = -2 (-2.000000000000)" in out
        assert "ding = 1/2 (0.500000000000)" in out


class TestVerifyBoundAndScan:
    def test_bound_holds_with_seshadri_lines(self, run):
        code, out, _ = run("verify-bound", "--model", "P2")
        assert code == 0
        assert "volume 9 (9.000000000000) within bound 9" in out
        assert out.count("seshadri at chart") == 3
        assert "3 (3.000000000000)" in out

    def test_bound_violated_exits_two(self, run, p116_path):
        code, out, _ = run("verify-bound", "--model", p116_path)
        assert code == 2
        assert "volume 32/3 (10.666666666667) EXCEEDS bound 9" in out

    def test_scan_clean_battery(self, run):
        code, out, _ = run("scan", "--model", "P2")
        assert code == 0
        assert out.count("CONSISTENT") == 9
        assert "OBSTRUCTS" not in out

    def test_scan_obstructed_exits_two(self, run, tmp_path):
        out_path = tmp_path / "scan.json"
        code, out, _ = run("scan", "--model", "P112", "--out", str(out_path))
        assert code == 2
        assert out.count("OBSTRUCTS_SEMISTABILITY") == 2
        data = json.loads(out_path.read_text())
        assert len(data["entries"]) == 7

    def test_scan_explicit_candidates(self, run):
        code, out, _ = run("scan", "--model", "P2", "--subscheme", "point@0",
                           "--subscheme", "point2@1")
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "point@0", "point2@1"]


class TestAcceptanceCommand:
    def test_failing_criterion_is_aggregated(self, run, tmp_path, monkeypatch):
        def unsettled():
            raise NoStabilization("weight counts never settled")

        registry = list(acceptance._REGISTRY)
        registry[6] = (7, "weight-identity-limit", unsettled)
        monkeypatch.setattr(acceptance, "_REGISTRY", tuple(registry))
        out_path = tmp_path / "summary.json"
        code, out, _ = run("test-acceptance", "--out", str(out_path))
        assert code == 1
        lines = out.splitlines()
        assert "FAIL 7 weight-identity-limit: NoStabilization" in out
        assert sum(line.startswith("PASS") for line in lines) == 8
        assert lines[-3].endswith("s]")
        assert lines[-2] == "FAILURES above"
        assert lines[-1].startswith("report written to")
        data = json.loads(out_path.read_text())
        assert data["passed"] is False
        assert len(data["criteria"]) == 9


class TestOutputPaths:
    """Every option naming a file to write is checked before any work."""

    COMMANDS = [
        ("volume", "--model", "P2", "--subscheme", "point@0", "--profile-csv"),
        ("filtration", "--model", "P1", "--subscheme", "point@0", "--report"),
        ("beta", "--model", "P2", "--subscheme", "point@0", "--out"),
        ("ding", "--model", "P1", "--sequence", "dnc@0", "--out"),
        ("verify-bound", "--model", "P2", "--out"),
        ("scan", "--model", "P2", "--out"),
        ("test-acceptance", "--out")]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_refused_up_front(self, run, tmp_path, argv):
        for path, why in [("/nonexistent/dir/x.json", "is not writable"),
                          (str(tmp_path), "is a directory")]:
            code, out, err = run(*argv, path)
            assert code == 1
            assert out == ""
            assert err == f"error: output path {path!r} {why}\n"

    def test_unwritable_output_aborts(self, run, monkeypatch):
        def suite():
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "run_acceptance_suite_timed", suite)
        code, out, err = run("test-acceptance", "--out",
                             "/nonexistent/dir/summary.json")
        assert code == 1
        assert out == ""
        assert "not writable" in err


class TestErrorPaths:
    def test_no_command_prints_help(self, run):
        code, out, _ = run()
        assert code == 1
        assert "COMMAND" in out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "test-acceptance" in capsys.readouterr().out

    def test_unknown_flag_exits_one_not_two(self, run):
        # 2 means an obstruction was found; a typo must not read as one
        code, out, err = run("ding", "--model", "P1", "--sequence", "dnc@0",
                             "--bogus")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --bogus" in err

    def test_missing_required_flag_exits_one(self, run):
        code, out, err = run("ding", "--model", "P1")
        assert code == 1
        assert out == ""
        assert err.startswith("usage: fanokit ding")
        assert "required: --sequence" in err

    def test_power_budget_flag_is_gone(self, run):
        code, _, err = run("filtration", "--model", "P1", "--subscheme",
                           "point@0", "--report", "d.json", "--kmax", "8")
        assert code == 1
        assert "unrecognized arguments: --kmax 8" in err

    @pytest.mark.parametrize("argv, body", [
        (("beta", "--model", "P2", "--subscheme"), '[1, 2]'),
        (("beta", "--model", "P2", "--subscheme"), '{"dim": 2, "charts": {"0": 5}}'),
        (("ding", "--model", "P2", "--sequence"), '{"steps": [1]}'),
        (("volume", "--model"), '{"rays": 5, "dim": 2}'),
        (("volume", "--model"), '[1, 2]')],
        ids=["subscheme-list", "chart-int", "step-int", "rays-int", "model-list"])
    def test_file_of_the_wrong_json_shape(self, run, tmp_path, argv, body):
        path = tmp_path / "shape.json"
        path.write_text(body)
        code, out, err = run(*argv, str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and repr(str(path)) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, what, body, message", [
        (("volume", "--model"), "model file",
         '{"dim": 2, "rays": [[1.9, 0], [0, 1], [-1, -1]]}', "rays: 1.9 is not an integer"),
        (("volume", "--model"), "model file",
         '{"dim": 2, "rays": [[true, 0], [0, 1], [-1, -1]]}', "rays: True is not an integer"),
        (("volume", "--model"), "model file",
         '{"dim": "2", "rays": [[1, 0], [0, 1], [-1, -1]]}', "dim: '2' is not an integer"),
        (("volume", "--model"), "model file",
         '{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "r0": true}',
         "r0: True is not an integer"),
        (("beta", "--model", "P2", "--subscheme"), "subscheme file",
         '{"dim": 2, "charts": {"0": [[1.5, 0], [0, 1.5]]}}', "chart 0: 1.5 is not an integer"),
        (("beta", "--model", "P2", "--subscheme"), "subscheme file",
         '{"dim": 2.0, "charts": {"0": [[1, 0], [0, 1]]}}', "dim: 2.0 is not an integer"),
        (("beta", "--model", "P2", "--subscheme"), "subscheme file",
         '{"dim": 2, "charts": {"00": [[1, 0], [0, 1]]}}', "charts: '00' is not a chart index"),
        (("ding", "--model", "P1", "--sequence"), "sequence file",
         '{"steps": [{"dim": 1, "charts": {"0": [[1.7]]}}]}', "chart 0: 1.7 is not an integer"),
        (("ding", "--model", "P1", "--sequence"), "sequence file",
         '{"steps": [{"dim": 1, "charts": {"0": [["1"]]}}]}', "chart 0: '1' is not an integer")],
        ids=["ray-float", "ray-bool", "dim-string", "r0-bool", "generator-float",
             "subscheme-dim-float", "chart-key-00", "step-float", "step-string"])
    def test_file_entry_that_is_not_an_integer(self, run, tmp_path, argv, what, body, message):
        # read as int() these printed a number for the truncated data and exited 0
        path = tmp_path / "f.json"
        path.write_text(body)
        code, out, err = run(*argv, str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {what} {str(path)!r}: {message}\n"

    @pytest.mark.parametrize("argv, body, key", [
        (("beta", "--model", "P2", "--subscheme"),
         '{"label": "z", "dim": 2, "chart": {"0": [[1, 0], [0, 1]]}}', "chart"),
        (("beta", "--model", "P2", "--subscheme"),
         '{"label": "z", "dim": 2, "charts": {"0": [[1, 0], [0, 1]]}, "charts2": 1}', "charts2"),
        (("volume", "--model"), '{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "ray": 1}', "ray"),
        (("ding", "--model", "P1", "--sequence"),
         '{"steps": [{"dim": 1, "charts": {"0": [[1]]}}], "step": []}', "step")],
        ids=["misspelt-chart", "extra-charts2", "model-extra", "sequence-extra"])
    def test_file_with_an_unknown_key(self, run, tmp_path, argv, body, key):
        # read as absent, the misspelt key left beta with no charts, and
        # the extra one printed beta 0 and exited 0
        path = tmp_path / "f.json"
        path.write_text(body)
        code, out, err = run(*argv, str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and f"unknown key {key!r}" in err
        assert err.count("\n") == 1

    def test_subscheme_file_with_a_negative_exponent(self, run, tmp_path):
        # refused by type before any chart is compared
        path = tmp_path / "neg.json"
        path.write_text('{"label": "neg", "dim": 2, "charts": {"0": [[2, -1]], "1": [[1, 0]]}}')
        code, out, err = run("beta", "--model", "P2", "--subscheme", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: UnsupportedSubscheme:")
        assert err.count("\n") == 1

    def test_unknown_model_name(self, run):
        code, _, err = run("volume", "--model", "Q7")
        assert code == 1
        assert "neither a catalog name" in err

    def test_domain_error_maps_to_one(self, run):
        code, _, err = run("lct", "--model", "P112", "--subscheme",
                           "point@1")
        assert code == 1
        assert "error: NotSmoothPoint" in err
