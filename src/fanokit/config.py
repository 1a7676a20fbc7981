"""Run configuration and source resolution for the CLI and the driver.

A model source is either a catalog name or a path to a model JSON file;
a subscheme source is a path to a subscheme JSON file or one of the
shorthands "point@IDX", "point2@IDX", "divisor@i,j,...".  Sequence
sources accept a steps JSON file or "trivial@M" / "dnc@IDX" (the
deformation to the normal cone of the fixed point on chart IDX, two
equal steps).  A subscheme or sequence step read from a file must glue
across the model's charts (``subscheme.verify_gluing``); the shorthands
glue by construction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from typing import Mapping

from .errors import ConfigError
from .filtration import DEFAULT_R_LIST
from .model import CATALOG_RAYS, ToricFanoModel, catalog_model
from .reportio import model_from_dict, sequence_from_dict, subscheme_from_dict
from .subscheme import (IdealSequenceOnXxA1, MonomialSubscheme,
                        boundary_divisor_subscheme, point_subscheme,
                        thickened_point_subscheme, verify_gluing)

@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs beyond the subcommand itself.

    k_max is the power budget of the weight-count cross-check in
    acceptance criteria 7 and 8: the weight records k = 1..k_max whose
    stabilised leading difference the exact leading integrals are held
    against.  No reported value depends on it.  r_list is the levels
    sampled for the limit slope.
    """

    k_max: int = 10
    r_list: tuple[int, ...] = DEFAULT_R_LIST
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "r_list", tuple(int(r) for r in self.r_list))
        if int(self.k_max) < 1:
            raise ConfigError("k_max must be positive")
        if not self.r_list or any(r < 1 for r in self.r_list):
            raise ConfigError("r_list must be a nonempty list of positive ints")

    def validate_paths(self) -> None:
        if self.out is None:
            return
        parent = os.path.dirname(os.path.abspath(self.out))
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            raise ConfigError(f"output path {self.out!r} is not writable")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, Mapping):
            raise ConfigError(f"config {path!r} must hold a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in data.items()})

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **{k: v for k, v in kwargs.items()
                                if v is not None})


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
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"model file {source!r}: {exc}") from exc


def resolve_subscheme(X: ToricFanoModel, source: str) -> MonomialSubscheme:
    if os.path.exists(source):
        try:
            Z = subscheme_from_dict(_load_json(source, "subscheme file"))
        except (KeyError, ValueError) as exc:
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
        except (KeyError, ValueError) as exc:
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
