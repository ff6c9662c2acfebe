from argparse import ArgumentTypeError
from dataclasses import fields

import pytest

from mosdistill import cli
from mosdistill.bev import BevGrid
from mosdistill.config import CONFIG_KEYS, RunConfig, documented_defaults, positive_int
from mosdistill.errors import ConfigError
from mosdistill.losses import DistillConfig
from mosdistill.nnet import SgdState
from mosdistill.synthbench import SceneConfig


class TestRunConfig:
    def test_defaults_cover_every_key(self):
        cfg = RunConfig.defaults()
        assert set(cfg.values) == set(CONFIG_KEYS)
        for key in CONFIG_KEYS:
            assert CONFIG_KEYS[key].doc  # every key is documented

    def test_unknown_key_rejected(self):
        cfg = RunConfig.defaults()
        with pytest.raises(ConfigError):
            cfg.set("bev.nradial", "10")

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "bev.n_radial = 24\n"
            "scene.seed=9  # trailing comment\n"
            "\n"
        )
        cfg = RunConfig.from_file(path)
        assert cfg.get("bev.n_radial") == 24
        assert cfg.get("scene.seed") == 9
        assert cfg.get("bev.n_angular") == 360  # untouched default

    def test_file_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bev.bogus = 1\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_file_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_builders(self):
        cfg = RunConfig.defaults()
        grid = cfg.bev_grid()
        assert grid.shape == (32, 360)
        assert grid.z_min == -4.0 and grid.z_max == 2.0
        dc = cfg.distill()
        assert dc.gamma == 0.25 and dc.weight_floor is None
        scene = cfg.scene()
        assert scene.n_frames == 8 and scene.arena_radius == 40.0
        assert cfg.window() == (8, 4)
        assert list(cfg.class_weights()) == [0.0, 1.0, 1.0, 1.0]
        assert cfg.get("train.lovasz_classes") == (1, 2, 3)
        sgd = cfg.sgd()
        assert (sgd.lr, sgd.momentum, sgd.weight_decay, sgd.lr_decay) == (0.005, 0.9, 1e-4, 0.99)

    def test_key_defaults_equal_field_defaults(self):
        # each section default is written twice, as a CONFIG_KEYS string and
        # as a dataclass field; they must agree
        cfg = RunConfig.defaults()
        assert cfg.bev_grid() == BevGrid()
        assert cfg.distill() == DistillConfig()
        assert cfg.sgd() == SgdState()
        assert cfg.scene() == SceneConfig()

    def test_window_validation(self):
        # split < window is a cross-key rule: set accepts it, check rejects it
        cfg = RunConfig.defaults()
        cfg.set("bev.split", "8")
        assert cfg.window() == (8, 8)
        with pytest.raises(
            ConfigError, match=r"^bev.split must be < bev.window, got bev.split=8, bev.window=8$"
        ):
            cfg.check()
        cfg.set("bev.window", "9")
        cfg.check()

    def test_bad_numeric_value(self):
        cfg = RunConfig.defaults()
        with pytest.raises(ConfigError, match="opt.lr must be a number, got fast"):
            cfg.set("opt.lr", "fast")
        assert cfg.get("opt.lr") == 0.005  # the rejected value left no trace
        assert cfg.values["opt.lr"] == "0.005"

    def test_weight_floor_auto_and_numeric(self):
        cfg = RunConfig.defaults()
        assert cfg.distill().weight_floor is None
        cfg.set("distill.weight_floor", "0.001")
        assert cfg.distill().weight_floor == 0.001

    def test_dump_parses_back(self, tmp_path):
        text = documented_defaults()
        path = tmp_path / "defaults.cfg"
        path.write_text(text)
        cfg = RunConfig.from_file(path)
        assert cfg.values == RunConfig.defaults().values

    def test_class_weights_length(self):
        cfg = RunConfig.defaults()
        with pytest.raises(ConfigError, match="train.class_weights must be 4 numbers, got 1,2,3"):
            cfg.set("train.class_weights", "1,2,3")
        assert list(cfg.class_weights()) == [0.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("bev.n_radial", "2.5", "bev.n_radial must be an integer, got 2.5"),
            ("train.batch_size", "0", "train.batch_size must be >= 1, got 0"),
            ("train.epochs", "x", "train.epochs must be an integer, got x"),
            ("opt.lr", "nan", "opt.lr must be a number, got nan"),
            ("scene.seed", "-1", "scene.seed must be >= 0, got -1"),
            ("train.class_weights", "1,x,1,1", "must be comma-separated numbers"),
            ("train.lovasz_classes", "1,,2", "must be comma-separated integers"),
            ("distill.weight_floor", "NaN", "must be auto or a number, got NaN"),
            ("bev.r_max", "inf", "bev.r_max must be a number, got inf"),
            ("bev.z_min", "-inf", "bev.z_min must be a number, got -inf"),
            ("distill.weight_floor", "Infinity", "must be auto or a number, got Infinity"),
            ("train.class_weights", "1,inf,1,1", "must be comma-separated numbers"),
            ("train.val_fraction", "1.0", r"train.val_fraction must be in \[0, 1\), got 1.0"),
            ("train.val_fraction", "-0.1", r"must be in \[0, 1\), got -0.1"),
            ("train.class_weights", "1,1,1,1,1", "must be 4 numbers, got 1,1,1,1,1"),
            ("train.lovasz_classes", "9", "must be class ids in 0..3, got 9"),
            ("train.lovasz_classes", "1,-1", "must be class ids in 0..3, got 1,-1"),
        ],
    )
    def test_parser_rejects_at_set(self, key, value, message):
        cfg = RunConfig.defaults()
        with pytest.raises(ConfigError, match=message):
            cfg.set(key, value)

    def test_parsed_types(self):
        cfg = RunConfig.defaults()
        assert cfg.get("train.class_weights") == (0.0, 1.0, 1.0, 1.0)
        assert cfg.get("distill.weight_floor") is None
        assert cfg.get("distill.tckd_scope") == "moving"
        cfg.set("train.lovasz_classes", "")
        assert cfg.get("train.lovasz_classes") == ()
        cfg.set("train.lovasz_classes", "0,3")
        assert cfg.get("train.lovasz_classes") == (0, 3)
        cfg.set("train.val_fraction", "0")
        assert cfg.get("train.val_fraction") == 0.0
        assert isinstance(cfg.get("train.seed"), int) and isinstance(cfg.get("opt.lr"), float)

    def test_file_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("opt.lr = fast\n")
        with pytest.raises(ConfigError, match="opt.lr must be a number, got fast"):
            RunConfig.from_file(path)

    def test_range_checks_raise_config_error(self):
        # a single key's range lives in its parser; the rejected value leaves no trace
        for key, value, message in [
            ("opt.lr", "0", "opt.lr must be > 0, got 0"),
            ("distill.temperature", "0", "distill.temperature must be > 0, got 0"),
            ("bev.r_max", "-1", "bev.r_max must be > 0, got -1"),
            ("scene.points_per_disc", "0", "scene.points_per_disc must be >= 1, got 0"),
        ]:
            cfg = RunConfig.defaults()
            with pytest.raises(ConfigError, match=f"^{message}$"):
                cfg.set(key, value)
            assert cfg.values == RunConfig.defaults().values

    def test_section_keys_name_fields(self):
        # _build reads a section key only if it names a field: a key that
        # names none would be skipped silently, leaving the field's default
        read_elsewhere = {
            "bev.window", "bev.split",  # RunConfig.window
            "scene.radius_min", "scene.radius_max", "scene.speed_min", "scene.speed_max",
            "scene.ego_vx", "scene.ego_vy",  # the range fields RunConfig.scene derives
        }
        sections = {"bev": BevGrid, "distill": DistillConfig, "opt": SgdState,
                    "scene": SceneConfig}
        for key in CONFIG_KEYS:
            section, _, name = key.partition(".")
            if section in sections and key not in read_elsewhere:
                assert name in {f.name for f in fields(sections[section])}, key
        for key in read_elsewhere:
            assert key in CONFIG_KEYS

    def test_one_count_parser(self):
        # the CLI's count flags use the config's count parser
        assert cli.positive_int is positive_int
        assert positive_int("3") == 3
        for text in ("0", "-2", "1.5", "x"):
            with pytest.raises(ArgumentTypeError, match="expected an integer >= 1"):
                positive_int(text)
