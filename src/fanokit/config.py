"""Source resolution for the CLI.

A model source is either a catalog name or a path to a model JSON file;
a subscheme source is a path to a subscheme JSON file or one of the
shorthands "point@IDX", "point2@IDX", "divisor@i,j,...".  Sequence
sources accept a steps JSON file or "trivial@M" / "dnc@IDX" (the
deformation to the normal cone of the fixed point on chart IDX, two
equal steps).  File entries are read as integers by reportio, which
refuses a float, a string, a bool or a non-canonical chart key with a
ValueError naming the key.  A subscheme or sequence step read from a
file must then fit the model and glue across its charts
(``subscheme.verify_gluing``: equal ideals at the rays two adjacent
smooth charts share); the shorthands glue by construction.
"""

from __future__ import annotations

import json
import os

from .errors import ConfigError
from .model import CATALOG_RAYS, ToricFanoModel, catalog_model
from .reportio import model_from_dict, sequence_from_dict, subscheme_from_dict
from .subscheme import (IdealSequenceOnXxA1, MonomialSubscheme,
                        boundary_divisor_subscheme, point_subscheme,
                        thickened_point_subscheme, verify_gluing)

# what reading file data of the wrong keys, values or JSON shape raises
_BAD_DATA = (KeyError, ValueError, TypeError, AttributeError)


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def resolve_model(source: str) -> ToricFanoModel:
    if source in CATALOG_RAYS:
        return catalog_model(source)
    if not os.path.exists(source):
        raise ConfigError(
            f"model source {source!r} is neither a catalog name "
            f"({', '.join(sorted(CATALOG_RAYS))}) nor an existing file")
    try:
        return model_from_dict(_load_json(source, "model file"))
    except _BAD_DATA as exc:
        raise ConfigError(f"model file {source!r}: {exc}") from exc


def resolve_subscheme(X: ToricFanoModel, source: str) -> MonomialSubscheme:
    if os.path.exists(source):
        try:
            Z = subscheme_from_dict(_load_json(source, "subscheme file"))
        except _BAD_DATA as exc:
            raise ConfigError(f"subscheme file {source!r}: {exc}") from exc
        if Z.dimension != X.dimension:
            raise ConfigError(
                f"subscheme {Z.label!r} has dimension {Z.dimension}, "
                f"model has {X.dimension}")
        verify_gluing(X, Z)
        return Z
    kind, sep, arg = source.partition("@")
    try:
        if sep and kind == "point":
            return point_subscheme(X, int(arg))
        if sep and kind == "point2":
            return thickened_point_subscheme(X, int(arg))
        if sep and kind == "divisor":
            return boundary_divisor_subscheme(
                X, tuple(int(x) for x in arg.split(",")))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad subscheme shorthand {source!r}: {exc}") from exc
    raise ConfigError(
        f"subscheme source {source!r} is neither an existing file nor a "
        f"point@IDX / point2@IDX / divisor@i,j shorthand")


def resolve_sequence(X: ToricFanoModel, source: str) -> IdealSequenceOnXxA1:
    if os.path.exists(source):
        try:
            S = sequence_from_dict(_load_json(source, "sequence file"))
        except _BAD_DATA as exc:
            raise ConfigError(f"sequence file {source!r}: {exc}") from exc
        if S.steps[0].dimension != X.dimension:
            raise ConfigError(
                f"sequence steps have dimension {S.steps[0].dimension}, "
                f"model has {X.dimension}")
        for step in S.steps:
            verify_gluing(X, step)
        return S
    kind, sep, arg = source.partition("@")
    try:
        if sep and kind == "trivial":
            count = int(arg)
            if count < 1:
                raise ValueError("needs at least one step")
            unit = MonomialSubscheme(label="unit", dimension=X.dimension)
            return IdealSequenceOnXxA1(steps=(unit,) * count)
        if sep and kind == "dnc":
            point = point_subscheme(X, int(arg))
            return IdealSequenceOnXxA1(steps=(point, point))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad sequence shorthand {source!r}: {exc}") from exc
    raise ConfigError(
        f"sequence source {source!r} is neither an existing file nor a "
        f"trivial@M / dnc@IDX shorthand")
