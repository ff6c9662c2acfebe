import pytest

from mosdistill.config import CONFIG_KEYS, RunConfig, documented_defaults
from mosdistill.errors import ConfigError


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
        assert cfg.get_int("bev.n_radial") == 24
        assert cfg.get_int("scene.seed") == 9
        assert cfg.get_int("bev.n_angular") == 360  # untouched default

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
        assert cfg.lovasz_classes() == (1, 2, 3)

    def test_window_validation(self):
        cfg = RunConfig.defaults()
        cfg.set("bev.split", "8")
        with pytest.raises(ConfigError):
            cfg.window()

    def test_bad_numeric_value(self):
        cfg = RunConfig.defaults()
        cfg.set("opt.lr", "fast")
        with pytest.raises(ConfigError):
            cfg.get_float("opt.lr")

    def test_bool_parsing(self):
        cfg = RunConfig.defaults()
        cfg.set("bev.appearance_channels", "TRUE")
        assert cfg.get_bool("bev.appearance_channels") is True
        cfg.set("bev.appearance_channels", "maybe")
        with pytest.raises(ConfigError):
            cfg.get_bool("bev.appearance_channels")

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
        cfg.set("train.class_weights", "1,2,3")
        with pytest.raises(ConfigError):
            cfg.class_weights()
