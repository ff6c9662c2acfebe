"""Flat key=value run configuration.

One line per key, ``key = value``, ``#`` comments allowed.  Unknown keys
are rejected so typos fail loudly; every key has a documented default and
a parser, which runs when the value is set and holds the key's range, so a
value that does not parse or is out of range is a ConfigError before any
data is read.  The rules between two keys (``bev.split < bev.window``, for
one) run in one pass, ``RunConfig.check``, once every value is set.  The
flat format keeps experiment-log diffs line-oriented.
"""

from __future__ import annotations

import operator
from argparse import ArgumentTypeError
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bev import BevGrid
from .errors import ConfigError, read_file
from .kitti_io import NUM_CLASSES
from .losses import TCKD_SCOPES, DistillConfig
from .nnet import SgdState
from .synthbench import SceneConfig

# Each parser returns the typed value or raises ValueError naming what the
# value must be; RunConfig.set turns that into "<key> must be <what>, got <value>".


def _as(convert: Callable[[str], object], what: str) -> Callable[[str], object]:
    def parse(text: str) -> object:
        try:
            return convert(text)
        except (ValueError, KeyError):
            raise ValueError(what) from None

    return parse


def _number(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):  # nan passes every range check, inf each one with no upper bound
        raise ValueError(text)
    return value


_int = _as(int, "an integer")
_float = _as(_number, "a number")


def _within(parse: Callable[[str], object], ok: Callable, what: str) -> Callable[[str], object]:
    """``parse``, then a range check: a value failing ``ok`` must be ``what``."""

    def check(text: str) -> object:
        value = parse(text)
        if not ok(value):
            raise ValueError(what)
        return value

    return check


_count = _within(_int, lambda v: v >= 1, ">= 1")
_natural = _within(_int, lambda v: v >= 0, ">= 0")
_positive = _within(_float, lambda v: v > 0, "> 0")
_nonnegative = _within(_float, lambda v: v >= 0, ">= 0")
_fraction = _within(_float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
_decay = _within(_float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_floats = _as(
    lambda text: tuple(_number(tok) for tok in text.split(",")), "comma-separated numbers"
)
_class_weights = _within(_floats, lambda v: len(v) == NUM_CLASSES, f"{NUM_CLASSES} numbers")
_ints = _as(
    lambda text: tuple(int(tok) for tok in text.split(",")) if text.strip() else (),
    "comma-separated integers",
)
_class_ids = _within(
    _ints, lambda v: all(0 <= c < NUM_CLASSES for c in v), f"class ids in 0..{NUM_CLASSES - 1}"
)
_auto_or_positive = _within(
    _as(lambda text: None if text == "auto" else _number(text), "auto or a number"),
    lambda v: v is None or v > 0,
    "auto or > 0",
)
_tckd_scope = _within(str, TCKD_SCOPES.__contains__, " or ".join(TCKD_SCOPES))


def positive_int(text: str) -> int:
    """The count parser (an integer >= 1) as the argparse type of every
    count flag: ``--threads``, ``--frames``, ``--epochs`` and the benchmark
    script's ``--seeds``."""
    try:
        return _count(text)
    except ValueError:
        raise ArgumentTypeError(f"expected an integer >= 1, got {text!r}") from None


@dataclass(frozen=True)
class _Key:
    default: str
    doc: str
    parse: Callable[[str], object]


# epochs: 150 is the documented full-scale value; desk-scale synthetic runs
# pass --epochs to scale down.
CONFIG_KEYS: dict[str, _Key] = {
    "bev.n_radial": _Key("32", "radial bins", _count),
    "bev.n_angular": _Key("360", "angular bins", _count),
    "bev.r_max": _Key("50.0", "projection range in meters", _positive),
    "bev.z_min": _Key("-4.0", "lower z cut (exclusive)", _float),
    "bev.z_max": _Key("2.0", "upper z cut (exclusive)", _float),
    "bev.window": _Key("8", "frames per motion tensor", _int),
    "bev.split": _Key("4", "newer-window length", _count),
    "distill.temperature": _Key("1.0", "softmax temperature for distillation", _positive),
    "distill.beta": _Key("1.0", "weight of the non-target term", _nonnegative),
    "distill.gamma": _Key("0.25", "weight of the distillation loss in the total", _nonnegative),
    "distill.weight_floor": _Key(
        "auto", "floor for frame class shares; auto = 1 / valid cells", _auto_or_positive
    ),
    "distill.tckd_scope": _Key(
        "moving", "labels receiving the target-class term: moving | all", _tckd_scope
    ),
    "teacher.kappa": _Key("10.0", "synthetic teacher confidence", _positive),
    "teacher.sigma": _Key("1.0", "synthetic teacher logit noise", _nonnegative),
    "net.base_width": _Key("16", "student channel width; teacher doubles it", _count),
    "opt.lr": _Key("0.005", "initial learning rate", _positive),
    "opt.momentum": _Key("0.9", "SGD momentum", _fraction),
    "opt.weight_decay": _Key("0.0001", "coupled weight decay", _nonnegative),
    "opt.lr_decay": _Key("0.99", "learning-rate factor applied after each epoch", _decay),
    "train.epochs": _Key("150", "full-scale epoch count (see --epochs)", _count),
    "train.batch_size": _Key("8", "frames per optimizer step", _count),
    "train.seed": _Key("0", "master seed for init, shuffling, synth teacher", _natural),
    "train.val_fraction": _Key("0.25", "trailing fraction of frames held out", _fraction),
    "train.class_weights": _Key("0,1,1,1", "cross-entropy weight per class", _class_weights),
    "train.lovasz_classes": _Key("1,2,3", "classes included in the Lovasz term", _class_ids),
    "scene.n_frames": _Key("8", "synthetic sequence length", _natural),
    "scene.n_moving": _Key("2", "moving discs", _natural),
    "scene.n_static_movable": _Key("3", "parked (movable) discs", _natural),
    "scene.n_static": _Key("2000", "background scatter points", _natural),
    "scene.radius_min": _Key("1.0", "smallest disc radius, meters", _positive),
    "scene.radius_max": _Key("3.0", "largest disc radius, meters", _float),
    "scene.speed_min": _Key("0.5", "slowest disc speed, m/frame", _nonnegative),
    "scene.speed_max": _Key("1.5", "fastest disc speed, m/frame", _float),
    "scene.points_per_disc": _Key("50", "points sprinkled on each disc", _count),
    "scene.ego_vx": _Key("0.5", "ego velocity x, m/frame", _float),
    "scene.ego_vy": _Key("0.0", "ego velocity y, m/frame", _float),
    "scene.arena_radius": _Key("40.0", "world radius, meters", _float),
    "scene.seed": _Key("0", "scene generator seed", _natural),
}


# (a, relation, b): the rules between two keys, run by RunConfig.check.
# They cannot run at set: a config passes through states that break them on
# its way to a valid one (bev.window = 4 set before bev.split = 2, say).
_CROSS_KEY_RULES = (
    ("bev.z_min", "<", "bev.z_max"),
    ("bev.split", "<", "bev.window"),
    ("scene.radius_min", "<=", "scene.radius_max"),
    ("scene.speed_min", "<=", "scene.speed_max"),
    ("scene.arena_radius", ">", "scene.radius_max"),
)
_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt}


@dataclass
class RunConfig:
    """Each key's text as set (what ``dump`` writes) and its parsed value
    (what ``get`` returns)."""

    values: dict[str, str]

    def __post_init__(self) -> None:
        self._parsed: dict[str, object] = {}
        for key, value in self.values.items():
            self.set(key, value)

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls({k: meta.default for k, meta in CONFIG_KEYS.items()})

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        text = read_file(path, "config", text=True)
        cfg = cls.defaults()
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = stripped.partition("=")
            cfg.set(key.strip(), value.strip())
        return cfg

    def set(self, key: str, value: str) -> None:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            self._parsed[key] = CONFIG_KEYS[key].parse(value)
        except ValueError as exc:
            raise ConfigError(f"{key} must be {exc}, got {value}") from None
        self.values[key] = value

    def get(self, key: str):
        """The value of ``key`` as its parser typed it."""
        return self._parsed[key]

    get_int = get  # the name perfbench's workloads read seeds with

    def check(self) -> None:
        """Run the cross-key rules; the first one broken is a ConfigError
        naming both keys and both values."""
        for a, relation, b in _CROSS_KEY_RULES:
            if not _RELATIONS[relation](self.get(a), self.get(b)):
                raise ConfigError(
                    f"{a} must be {relation} {b}, got {a}={self.values[a]}, {b}={self.values[b]}"
                )

    # section builders ----------------------------------------------------

    def _build(self, cls, section: str, **derived):
        """``cls`` with each field ``f`` that has a key ``<section>.f`` read
        from it, plus ``derived`` fields."""
        keyed = {
            f.name: self.get(f"{section}.{f.name}")
            for f in fields(cls)
            if f"{section}.{f.name}" in CONFIG_KEYS
        }
        return cls(**keyed, **derived)

    def bev_grid(self) -> BevGrid:
        return self._build(BevGrid, "bev")

    def distill(self) -> DistillConfig:
        return self._build(DistillConfig, "distill")

    def sgd(self) -> SgdState:
        return self._build(SgdState, "opt")

    def scene(self) -> SceneConfig:
        get = self.get
        return self._build(
            SceneConfig,
            "scene",
            radius_range=(get("scene.radius_min"), get("scene.radius_max")),
            speed_range=(get("scene.speed_min"), get("scene.speed_max")),
            ego_velocity=(get("scene.ego_vx"), get("scene.ego_vy")),
        )

    def class_weights(self) -> np.ndarray:
        return np.array(self.get("train.class_weights"))

    def window(self) -> tuple[int, int]:
        return self.get("bev.window"), self.get("bev.split")

    def dump(self) -> str:
        """Full config with per-key documentation, suitable as a template."""
        lines = ["# run configuration (key = value; unknown keys are errors)"]
        for key, meta in CONFIG_KEYS.items():
            lines.append(f"{key} = {self.values[key]}  # {meta.doc}")
        return "\n".join(lines) + "\n"


def documented_defaults() -> str:
    return RunConfig.defaults().dump()
