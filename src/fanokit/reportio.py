"""Deterministic JSON and CSV serialization for models, ideals, and reports.

Every rational is written as a reduced fraction string ("a/b", plain "a"
when integral); inside reports it is paired with a fixed 12-place decimal
rendering computed in integer arithmetic, so no float ever touches a
file.  json.dumps runs with sorted keys and nothing time- or
machine-dependent is emitted: rerunning a command byte-reproduces its
report, which is what makes the golden files diffable.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Any, Mapping

from .model import ToricFanoModel, build_model
from .piecewise import PiecewisePolynomial
from .polytope import RationalPolytope
from .subscheme import IdealSequenceOnXxA1, MonomialSubscheme

DECIMAL_PLACES = 12


def format_rational(value) -> str:
    """Reduced fraction string: "7/3", "-8/3", or plain "2"."""
    return str(Fraction(value))


def parse_rational(text) -> Fraction:
    """Inverse of format_rational; also accepts plain ints."""
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if isinstance(text, str):
        return Fraction(text)
    raise ValueError(f"not a rational: {text!r}")


def decimal_string(value) -> str:
    """Half-up decimal rendering of a rational to DECIMAL_PLACES places,
    exact in integers."""
    q = Fraction(value)
    scaled = abs(q) * 10 ** DECIMAL_PLACES
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled - units) >= 1:
        units += 1
    sign = "-" if q < 0 and units else ""
    whole, frac = divmod(units, 10 ** DECIMAL_PLACES)
    return f"{sign}{whole}.{str(frac).zfill(DECIMAL_PLACES)}"


def rational_entry(value) -> dict:
    """The report form of one rational: fraction plus decimal rendering."""
    return {"fraction": format_rational(value), "decimal": decimal_string(value)}


def to_jsonable(obj) -> Any:
    """Recursive report encoding; rationals become fraction/decimal pairs.

    Floats are rejected outright: everything this package reports is
    rational, and a float in a report means a bug upstream.
    """
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return rational_entry(obj)
    if isinstance(obj, float):
        raise TypeError(f"float {obj!r} has no place in a report")
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        return {k: to_jsonable(v) for k, v in obj._asdict().items()}
    if isinstance(obj, PiecewisePolynomial):
        return {"breakpoints": [rational_entry(b) for b in obj.breakpoints],
                "pieces": [[rational_entry(c) for c in p] for p in obj.pieces]}
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(obj) -> str:
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n"


def dump_report(obj, path: str) -> str:
    text = dumps_report(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


# ---------------------------------------------------------------------------
# polytopes and models

def model_to_dict(X: ToricFanoModel) -> dict:
    P = X.polytope
    d = {"dim": P.dimension,
         "vertices": [[format_rational(c) for c in v] for v in P.vertices],
         "rays": [list(r) for r in X.rays], "r0": X.r0}
    if X.name:
        d["name"] = X.name
    return d


def model_from_dict(data: Mapping) -> ToricFanoModel:
    """Model from its JSON form; any redundant fields are cross-checked."""
    dim = int(data["dim"])
    name = str(data.get("name", ""))
    if "rays" in data:
        rays = [tuple(int(x) for x in r) for r in data["rays"]]
    elif "vertices" in data:
        P = RationalPolytope.from_vertices(
            dim, [[parse_rational(c) for c in v] for v in data["vertices"]])
        # facet normals are primitive, so each is a ray exactly when its
        # offset is -1
        rays = []
        for nr, off in P.inequalities:
            if off != -1:
                raise ValueError(
                    f"facet normal {nr} has offset {off}: the vertices do "
                    f"not cut out an anticanonical polytope")
            rays.append(nr)
    else:
        raise ValueError("model data needs a 'rays' or 'vertices' key")
    X = build_model(dim, rays, name=name)
    if "vertices" in data:
        given = sorted(tuple(parse_rational(c) for c in v)
                       for v in data["vertices"])
        if given != sorted(X.polytope.vertices):
            raise ValueError("vertex list disagrees with the ray data")
    if "r0" in data and int(data["r0"]) != X.r0:
        raise ValueError(f"declared r0={data['r0']}, computed r0={X.r0}")
    return X


# ---------------------------------------------------------------------------
# subschemes and ideal sequences

def subscheme_from_dict(data: Mapping) -> MonomialSubscheme:
    charts = {int(i): tuple(tuple(int(x) for x in g) for g in gens)
              for i, gens in data.get("charts", {}).items()}
    ray = data.get("boundary_ray")
    return MonomialSubscheme(
        label=str(data.get("label", "subscheme")), dimension=int(data["dim"]),
        chart_gens=charts,
        boundary_ray=tuple(int(x) for x in ray) if ray is not None else None)


def sequence_from_dict(data: Mapping) -> IdealSequenceOnXxA1:
    steps = data["steps"]
    if not steps:
        raise ValueError("an ideal sequence needs at least one step")
    return IdealSequenceOnXxA1(
        steps=tuple(subscheme_from_dict(d) for d in steps))


# ---------------------------------------------------------------------------
# volume profiles

def profile_csv_rows(profile: PiecewisePolynomial) -> list[list[str]]:
    """Breakpoints and coefficient rows, all as rational strings.

    Row i covers [start, end) with the polynomial sum(c_j x^j); the
    profile is zero past the last row.
    """
    width = max(len(p) for p in profile.pieces)
    rows = [["start", "end"] + [f"c{j}" for j in range(width)]]
    bps = profile.breakpoints
    for i, piece in enumerate(profile.pieces):
        coeffs = list(piece) + [Fraction(0)] * (width - len(piece))
        rows.append([format_rational(bps[i]), format_rational(bps[i + 1])]
                    + [format_rational(c) for c in coeffs])
    return rows


def write_profile_csv(profile: PiecewisePolynomial, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(profile_csv_rows(profile))
