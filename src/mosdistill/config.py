"""Flat key=value run configuration.

One line per key, ``key = value``, ``#`` comments allowed.  Unknown keys
are rejected so typos fail loudly; every key has a documented default.
The flat format keeps experiment-log diffs line-oriented.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bev import BevGrid
from .errors import ConfigError, read_file
from .losses import DistillConfig
from .synthbench import SceneConfig


@dataclass(frozen=True)
class _Key:
    default: str
    doc: str


# epochs: 150 is the documented full-scale value; desk-scale synthetic runs
# pass --epochs to scale down.
CONFIG_KEYS: dict[str, _Key] = {
    "bev.n_radial": _Key("32", "radial bins"),
    "bev.n_angular": _Key("360", "angular bins"),
    "bev.r_max": _Key("50.0", "projection range in meters"),
    "bev.z_min": _Key("-4.0", "lower z cut (exclusive)"),
    "bev.z_max": _Key("2.0", "upper z cut (exclusive)"),
    "bev.window": _Key("8", "frames per motion tensor"),
    "bev.split": _Key("4", "newer-window length"),
    "bev.appearance_channels": _Key(
        "false", "append raw per-frame height images to the motion tensor"
    ),
    "distill.temperature": _Key("1.0", "softmax temperature for distillation"),
    "distill.beta": _Key("1.0", "weight of the non-target term"),
    "distill.gamma": _Key("0.25", "weight of the distillation loss in the total"),
    "distill.weight_floor": _Key(
        "auto", "floor for frame class shares; auto = 1 / valid cells"
    ),
    "distill.prob_floor": _Key("1e-12", "floor inside logs"),
    "distill.tckd_scope": _Key(
        "moving", "labels receiving the target-class term: moving | all"
    ),
    "teacher.kappa": _Key("10.0", "synthetic teacher confidence"),
    "teacher.sigma": _Key("1.0", "synthetic teacher logit noise"),
    "net.base_width": _Key("16", "student channel width; teacher doubles it"),
    "opt.lr": _Key("0.005", "initial learning rate"),
    "opt.momentum": _Key("0.9", "SGD momentum"),
    "opt.weight_decay": _Key("0.0001", "coupled weight decay"),
    "opt.lr_decay": _Key("0.99", "learning-rate factor applied after each epoch"),
    "train.epochs": _Key("150", "full-scale epoch count (see --epochs)"),
    "train.batch_size": _Key("8", "frames per optimizer step"),
    "train.seed": _Key("0", "master seed for init, shuffling, synth teacher"),
    "train.val_fraction": _Key("0.25", "trailing fraction of frames held out"),
    "train.class_weights": _Key("0,1,1,1", "cross-entropy weight per class"),
    "train.lovasz_classes": _Key("1,2,3", "classes included in the Lovasz term"),
    "scene.n_frames": _Key("8", "synthetic sequence length"),
    "scene.n_moving": _Key("2", "moving discs"),
    "scene.n_static_movable": _Key("3", "parked (movable) discs"),
    "scene.n_static": _Key("2000", "background scatter points"),
    "scene.radius_min": _Key("1.0", "smallest disc radius, meters"),
    "scene.radius_max": _Key("3.0", "largest disc radius, meters"),
    "scene.speed_min": _Key("0.5", "slowest disc speed, m/frame"),
    "scene.speed_max": _Key("1.5", "fastest disc speed, m/frame"),
    "scene.points_per_disc": _Key("50", "points sprinkled on each disc"),
    "scene.ego_vx": _Key("0.5", "ego velocity x, m/frame"),
    "scene.ego_vy": _Key("0.0", "ego velocity y, m/frame"),
    "scene.arena_radius": _Key("40.0", "world radius, meters"),
    "scene.seed": _Key("0", "scene generator seed"),
}


@dataclass
class RunConfig:
    values: dict[str, str]

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
        self.values[key] = value

    # typed getters -------------------------------------------------------

    def get_str(self, key: str) -> str:
        return self.values[key]

    def get_int(self, key: str) -> int:
        try:
            return int(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer: {exc}") from exc

    def get_float(self, key: str) -> float:
        try:
            return float(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be a number: {exc}") from exc

    def get_bool(self, key: str) -> bool:
        value = self.values[key].lower()
        if value in ("true", "1", "yes"):
            return True
        if value in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} must be true or false, got {value!r}")

    def get_float_list(self, key: str) -> list[float]:
        try:
            return [float(tok) for tok in self.values[key].split(",")]
        except ValueError as exc:
            raise ConfigError(f"{key} must be comma-separated numbers") from exc

    def get_int_list(self, key: str) -> list[int]:
        raw = self.values[key].strip()
        if not raw:
            return []
        try:
            return [int(tok) for tok in raw.split(",")]
        except ValueError as exc:
            raise ConfigError(f"{key} must be comma-separated integers") from exc

    # section builders ----------------------------------------------------

    def bev_grid(self) -> BevGrid:
        try:
            return BevGrid(
                n_radial=self.get_int("bev.n_radial"),
                n_angular=self.get_int("bev.n_angular"),
                r_max=self.get_float("bev.r_max"),
                z_min=self.get_float("bev.z_min"),
                z_max=self.get_float("bev.z_max"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def distill(self) -> DistillConfig:
        floor_raw = self.get_str("distill.weight_floor")
        floor = None if floor_raw == "auto" else float(floor_raw)
        try:
            return DistillConfig(
                temperature=self.get_float("distill.temperature"),
                beta=self.get_float("distill.beta"),
                gamma=self.get_float("distill.gamma"),
                weight_floor=floor,
                prob_floor=self.get_float("distill.prob_floor"),
                tckd_scope=self.get_str("distill.tckd_scope"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def scene(self) -> SceneConfig:
        return SceneConfig(
            n_frames=self.get_int("scene.n_frames"),
            n_moving=self.get_int("scene.n_moving"),
            n_static_movable=self.get_int("scene.n_static_movable"),
            n_static=self.get_int("scene.n_static"),
            radius_range=(
                self.get_float("scene.radius_min"),
                self.get_float("scene.radius_max"),
            ),
            speed_range=(
                self.get_float("scene.speed_min"),
                self.get_float("scene.speed_max"),
            ),
            points_per_disc=self.get_int("scene.points_per_disc"),
            ego_velocity=(
                self.get_float("scene.ego_vx"),
                self.get_float("scene.ego_vy"),
            ),
            arena_radius=self.get_float("scene.arena_radius"),
            seed=self.get_int("scene.seed"),
        )

    def class_weights(self) -> np.ndarray:
        weights = np.array(self.get_float_list("train.class_weights"))
        if weights.shape != (4,):
            raise ConfigError("train.class_weights needs exactly 4 values")
        return weights

    def lovasz_classes(self) -> tuple[int, ...]:
        return tuple(self.get_int_list("train.lovasz_classes"))

    def window(self) -> tuple[int, int]:
        n = self.get_int("bev.window")
        n2 = self.get_int("bev.split")
        if not 1 <= n2 < n:
            raise ConfigError("need 1 <= bev.split < bev.window")
        return n, n2

    def dump(self) -> str:
        """Full config with per-key documentation, suitable as a template."""
        lines = ["# run configuration (key = value; unknown keys are errors)"]
        for key, meta in CONFIG_KEYS.items():
            lines.append(f"{key} = {self.values[key]}  # {meta.doc}")
        return "\n".join(lines) + "\n"


def documented_defaults() -> str:
    return RunConfig.defaults().dump()
