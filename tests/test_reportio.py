"""Deterministic serialization: rational strings, report JSON, model files, CSV.

The contract under test is byte-stability. Reports must come out identical
across runs, so everything here is exact
string arithmetic; no float ever touches a report.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanokit.model import build_model, catalog_model
from fanokit.reportio import (decimal_string, dump_report, dumps_report,
                              format_rational, model_from_dict, model_to_dict,
                              parse_rational, profile_csv_rows,
                              rational_entry, sequence_from_dict,
                              subscheme_from_dict,
                              to_jsonable,
                              write_profile_csv)
from fanokit.stability import semistability_scan
from fanokit.subscheme import (IdealSequenceOnXxA1, point_subscheme,
                               standard_battery)
from fanokit.volumes import blowup_volume_profile

import helpers

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)


class TestRationalStrings:
    def test_format_integer_omits_denominator(self):
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(-3) == "-3"

    def test_format_fraction(self):
        assert format_rational(Fraction(-8, 3)) == "-8/3"

    @given(rationals)
    def test_parse_inverts_format(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_parse_rejects_floats(self):
        with pytest.raises(ValueError):
            parse_rational(0.5)
        with pytest.raises(ValueError):
            parse_rational(True)

    def test_decimal_basic(self):
        assert decimal_string(Fraction(2, 3)) == "0.666666666667"
        assert decimal_string(Fraction(-8, 3)) == "-2.666666666667"
        assert decimal_string(Fraction(9)) == "9.000000000000"

    def test_decimal_half_up_at_last_place(self):
        assert decimal_string(Fraction(1, 2 * 10**12)) == "0.000000000001"

    def test_decimal_negative_rounding_to_zero_drops_sign(self):
        assert decimal_string(Fraction(-1, 10**15)) == "0.000000000000"

    @given(rationals)
    def test_decimal_error_below_half_ulp(self, q):
        text = decimal_string(q)
        assert abs(Fraction(text.replace(".", "")) / 10**12 - q) <= Fraction(
            1, 2 * 10**12
        )

    def test_rational_entry_shape(self):
        assert rational_entry(Fraction(1, 2)) == {
            "fraction": "1/2",
            "decimal": "0.500000000000",
        }


@dataclass(frozen=True)
class _Row:
    name: str
    value: Fraction


class TestToJsonable:
    def test_rejects_float(self):
        with pytest.raises(TypeError):
            to_jsonable(0.5)

    def test_dataclass_and_nesting(self):
        out = to_jsonable({"rows": [_Row("a", Fraction(1, 3))], 2: None})
        assert out == {
            "rows": [{"name": "a", "value": rational_entry(Fraction(1, 3))}],
            "2": None,
        }

    def test_dumps_sorted_and_newline_terminated(self):
        text = dumps_report({"b": 1, "a": Fraction(1, 2)})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text)["a"] == {
            "fraction": "1/2",
            "decimal": "0.500000000000",
        }

    def test_dump_report_writes_exact_bytes(self, tmp_path):
        path = tmp_path / "r.json"
        text = dump_report({"x": Fraction(2, 3)}, path)
        assert path.read_text() == text


class TestModelFiles:
    def test_polytope_round_trip(self):
        X = catalog_model("dP6")
        data = model_to_dict(X)
        Y = model_from_dict({"dim": data["dim"], "vertices": data["vertices"]})
        assert Y.polytope == X.polytope
        assert Y.polytope.inequalities == X.polytope.inequalities

    def test_model_round_trip_via_rays(self):
        X = catalog_model("P1xP2")
        Y = model_from_dict(model_to_dict(X))
        assert Y.rays == X.rays
        assert Y.r0 == X.r0
        assert Y.name == X.name

    def test_model_from_vertices_only(self):
        data = model_to_dict(catalog_model("dP6"))
        del data["rays"], data["name"]
        Y = model_from_dict(data)
        assert sorted(Y.rays) == sorted(catalog_model("dP6").rays)

    def test_fractional_vertices_round_trip(self):
        X = build_model(2, ((1, 0), (0, 1), (-1, -6)))
        data = json.loads(json.dumps(model_to_dict(X)))
        assert ["-1", "1/3"] in data["vertices"]
        Y = model_from_dict({"dim": 2, "vertices": data["vertices"]})
        assert sorted(Y.rays) == sorted(X.rays)
        assert Y.r0 == 3

    def test_declared_r0_is_checked(self):
        data = model_to_dict(catalog_model("P2"))
        data["r0"] = 7
        with pytest.raises(ValueError, match="r0"):
            model_from_dict(data)

    def test_vertices_must_cut_out_anticanonical_polytope(self):
        with pytest.raises(ValueError, match="anticanonical"):
            model_from_dict(
                {"dim": 2, "vertices": [["2", "0"], ["0", "2"], ["-2", "-2"]]}
            )


class TestSubschemeFiles:
    def test_point_round_trip(self):
        X = catalog_model("P2")
        Z = point_subscheme(X, 1)
        W = subscheme_from_dict(helpers.subscheme_to_dict(Z))
        assert W.label == Z.label
        assert W.chart_gens == Z.chart_gens

    def test_battery_round_trips(self):
        X = catalog_model("P112")
        for Z in standard_battery(X):
            W = subscheme_from_dict(helpers.subscheme_to_dict(Z))
            assert W.chart_gens == Z.chart_gens

    def test_sequence_round_trip(self):
        X = catalog_model("P1")
        pt = point_subscheme(X, 0)
        S = IdealSequenceOnXxA1(steps=(pt, pt))
        T = sequence_from_dict({"steps": [helpers.subscheme_to_dict(z) for z in S.steps]})
        assert [z.chart_gens for z in T.steps] == [z.chart_gens for z in S.steps]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            sequence_from_dict({"steps": []})


class TestProfileCsv:
    def test_frozen_point_blowup_rows(self, tmp_path):
        X = catalog_model("P2")
        profile = blowup_volume_profile(X, point_subscheme(X, 0))
        rows = profile_csv_rows(profile)
        assert rows[0] == ["start", "end", "c0", "c1", "c2"]
        assert rows[1] == ["0", "3", "9", "0", "-1"]
        path = tmp_path / "p.csv"
        write_profile_csv(profile, path)
        assert path.read_text() == "start,end,c0,c1,c2\n0,3,9,0,-1\n"


class TestByteIdentity:
    def test_scan_report_stable_across_runs(self):
        X = catalog_model("P1xP1")
        texts = {dumps_report(semistability_scan(X, standard_battery(X)))
                 for _ in range(3)}
        assert len(texts) == 1
