"""Binary containers, JSON artifacts, manifests, and config parsing."""

import struct

import numpy as np
import pytest

from rcdiff import io
from rcdiff.config import RunConfig, SCHEMA, load_config, parse_config_text
from rcdiff.errors import ConfigError, ValidationError
from rcdiff.score_model import MlpScore, _EncoderDecoderScore
from rcdiff.world import make_world


class TestMatrixContainer:
    def test_roundtrip(self, tmp_path):
        X = np.random.default_rng(0).standard_normal((13, 7))
        path = tmp_path / "m.bin"
        io.write_matrix(path, X)
        np.testing.assert_array_equal(io.read_matrix(path), X)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(ValidationError):
            io.read_matrix(path)

    def test_truncation_rejected(self, tmp_path):
        X = np.zeros((4, 4))
        path = tmp_path / "m.bin"
        io.write_matrix(path, X)
        whole = path.read_bytes()
        # A whole entry, part of one, and part of the 24-byte header.
        for cut in (8, 3, len(whole) - 12):
            path.write_bytes(whole[:-cut])
            with pytest.raises(ValidationError):
                io.read_matrix(path)

    def test_csv_export_parses_back(self, tmp_path):
        X = np.random.default_rng(1).standard_normal((5, 3))
        y = np.random.default_rng(2).standard_normal(5)
        path = tmp_path / "d.csv"
        io.export_csv(path, X, y)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x0,x1,x2,y"
        parsed = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        np.testing.assert_array_equal(parsed[:, :3], X)
        np.testing.assert_array_equal(parsed[:, 3], y)

    def test_csv_export_matches_csv_writer_bytes(self, tmp_path):
        import csv

        rng = np.random.default_rng(3)
        X = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-12, 12, (7, 4))
        y = rng.standard_normal(7)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x{i}" for i in range(4)] + ["y"])
            for i in range(7):
                w.writerow([repr(float(v)) for v in X[i]] + [repr(float(y[i]))])
        io.export_csv(tmp_path / "d.csv", X, y)
        assert (tmp_path / "d.csv").read_bytes() == ref.read_bytes()


class TestTensorBlocks:
    def test_roundtrip_with_meta(self, tmp_path):
        rng = np.random.default_rng(0)
        meta = {"kind": "test", "dims": [3, 2]}
        blocks = {"W": rng.standard_normal((3, 2)), "b": rng.standard_normal(2)}
        path = tmp_path / "t.rctb"
        io.write_blocks(path, meta, blocks)
        meta2, blocks2 = io.read_blocks(path)
        assert meta2 == meta
        for k in blocks:
            np.testing.assert_array_equal(blocks2[k], blocks[k])

    def test_corruption_rejected(self, tmp_path):
        path = tmp_path / "t.rctb"
        io.write_blocks(path, {"kind": "test"}, {"W": np.ones((2, 2))})
        whole = path.read_bytes()
        scrambled = bytearray(whole)
        scrambled[6] ^= 0xFF  # the metadata length
        bad_version = bytearray(whole)
        bad_version[5] ^= 0xFF
        oversized = bytearray(whole)
        # The first dim of block "W", after its name and its u32 rank.
        struct.pack_into("<Q", oversized, whole.index(b"W") + 1 + 4, 10**6)
        for raw in (scrambled, bad_version, oversized):
            path.write_bytes(bytes(raw))
            with pytest.raises(ValidationError):
                io.read_blocks(path)

    def test_world_roundtrip(self, tmp_path):
        w = make_world(D=6, d=2, seed=0)
        io.save_world(tmp_path / "w.rctb", w)
        w2 = io.load_world(tmp_path / "w.rctb")
        np.testing.assert_array_equal(w2.A, w.A)
        assert w2.offsupport_sign == w.offsupport_sign

    @pytest.mark.parametrize("cls", _EncoderDecoderScore.__subclasses__(),
                             ids=lambda cls: cls.variant)
    def test_model_roundtrip(self, tmp_path, cls):
        model = cls(6, 2, 0.5, seed=1)
        io.save_model(tmp_path / "m.rctb", model)
        # The file holds the model alone: the schedule is the run's config.
        meta, _ = io.read_blocks(tmp_path / "m.rctb")
        assert set(meta) == {"kind", *model.to_blocks()[0]}
        clone = io.load_model(tmp_path / "m.rctb")
        X = np.random.default_rng(2).standard_normal((4, 6))
        np.testing.assert_array_equal(model(X, 1.0, 0.7), clone(X, 1.0, 0.7))

    def test_wrong_kind_rejected(self, tmp_path):
        w = make_world(D=6, d=2, seed=0)
        io.save_world(tmp_path / "w.rctb", w)
        with pytest.raises(ValidationError):
            io.load_model(tmp_path / "w.rctb")

    @pytest.mark.parametrize("drop", ["meta:offsupport_sign", "block:Sigma",
                                      "model:W2", "model:hidden"])
    def test_missing_key_names_file_and_key(self, tmp_path, drop):
        kind, key = drop.split(":")
        if kind == "model":
            io.save_model(tmp_path / "f.rctb", MlpScore(6, 2, hidden=(8, 8), seed=1))
        else:
            io.save_world(tmp_path / "f.rctb", make_world(D=6, d=2, seed=0))
        meta, blocks = io.read_blocks(tmp_path / "f.rctb")
        meta.pop(key, None)
        blocks.pop(key, None)
        io.write_blocks(tmp_path / "f.rctb", meta, blocks)
        load = io.load_model if kind == "model" else io.load_world
        with pytest.raises(ValidationError, match=f"f.rctb: missing key '{key}'"):
            load(tmp_path / "f.rctb")

    @pytest.mark.parametrize("cls", _EncoderDecoderScore.__subclasses__(),
                             ids=lambda cls: cls.variant)
    def test_wrong_block_shape_names_file_and_block(self, tmp_path, cls):
        io.save_model(tmp_path / "f.rctb", cls(6, 2, 0.5, seed=1))
        meta, blocks = io.read_blocks(tmp_path / "f.rctb")
        blocks["V"] = np.zeros((6, 3))
        io.write_blocks(tmp_path / "f.rctb", meta, blocks)
        with pytest.raises(ValidationError,
                           match=r"f.rctb: block 'V' has shape \(6, 3\), expected \(6, 2\)"):
            io.load_model(tmp_path / "f.rctb")


class TestManifest:
    def test_verify_detects_tamper(self, tmp_path):
        f = tmp_path / "a.bin"
        io.write_matrix(f, np.zeros((2, 2)))
        files = {"a.bin": io.sha256_file(f)}
        assert io.verify_manifest(tmp_path, files) == []
        f.write_bytes(b"tampered-with-bytes-----")
        issues = io.verify_manifest(tmp_path, files)
        assert issues and "hash mismatch" in issues[0]
        f.unlink()
        assert io.verify_manifest(tmp_path, files) == ["missing: a.bin"]

    def test_json_write_is_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        io.write_json(p1, {"b": 1.5, "a": [1, 2]})
        io.write_json(p2, {"a": [1, 2], "b": 1.5})
        assert p1.read_bytes() == p2.read_bytes()


class TestConfig:
    def test_defaults_reproduce_study_scale(self):
        cfg = RunConfig()
        assert cfg["world.D"] == 64
        assert cfg["world.d"] == 16
        assert cfg["world.offsupport_coeff"] == 5.0
        assert cfg["data.n1"] == 65536
        assert cfg["data.n2"] == 8192
        assert cfg["reward.lambda"] == 1.0
        assert cfg.nu == 1.0 / 8.0
        assert cfg["sweep.a"] == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]
        assert len(cfg["sweep.seeds"]) == 5
        assert cfg["sample.n"] == 2048
        assert cfg["score.variant"] == "mlp"

    def test_parse_and_override(self):
        cfg = RunConfig(values=parse_config_text(
            "# comment\nworld.D = 8\nworld.d = 2\nsweep.a = 0, 1\n"
        ))
        assert cfg["world.D"] == 8
        assert cfg["sweep.a"] == [0.0, 1.0]
        assert cfg["data.n2"] == 8192  # default preserved

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("world.Q = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("world.D = 8\nworld.D = 9\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("world.D = eight\n")

    def test_semantic_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(values={"world.d": 100})  # d > D
        with pytest.raises(ConfigError):
            RunConfig(values={"data.noise_sigma": 1.0})
        with pytest.raises(ConfigError):
            RunConfig(values={"schedule.eta": 0.5})  # eta > t0
        with pytest.raises(ConfigError):
            RunConfig(values={"score.variant": "unet"})

    @pytest.mark.parametrize("hidden", [[], [8, 8, 8, 8], [16, 0], [-4]])
    def test_bad_hidden_widths_rejected(self, hidden):
        with pytest.raises(ConfigError, match="score.hidden"):
            RunConfig(values={"score.hidden": hidden})

    @pytest.mark.parametrize("decay", [0.0, -0.5, 1.5])
    def test_lr_decay_outside_unit_interval_rejected(self, decay):
        with pytest.raises(ConfigError, match="lr_decay"):
            RunConfig(values={"score.lr_decay": decay})

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ConfigError, match="sweep.a"):
            RunConfig(values=parse_config_text("sweep.a = 0, 1, 1.0\n"))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="sweep.seeds"):
            RunConfig(values=parse_config_text("sweep.seeds = 3, 4, 3\n"))

    def test_sigma_diag(self):
        cfg = RunConfig(values={"world.d": 2, "world.D": 4,
                                "world.sigma_diag": [1.0, 0.5]})
        np.testing.assert_array_equal(cfg.sigma, np.diag([1.0, 0.5]))
        assert RunConfig().sigma is None

    def test_digest_depends_on_values_only(self):
        c1 = RunConfig(values={"world.D": 8, "world.d": 2})
        c2 = RunConfig(values={"world.d": 2, "world.D": 8})
        c3 = RunConfig(values={"world.D": 16, "world.d": 2})
        assert c1.digest() == c2.digest()
        assert c1.digest() != c3.digest()

    def test_load_config_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("world.D = 8\nworld.d = 2\n")
        assert load_config(p)["world.D"] == 8
        assert load_config(None)["world.D"] == 64

    def test_every_schema_key_has_default_and_description(self):
        for key, (parser, default, desc) in SCHEMA.items():
            assert callable(parser)
            assert desc
            RunConfig(values={key: default})  # defaults must self-validate


class TestCsvSchema:
    def test_golden_column_order(self):
        from rcdiff.pipeline import CSV_COLUMNS

        assert list(CSV_COLUMNS) == [
            "a", "seed", "subopt", "avg_reward", "e1", "e2", "e3",
            "angle", "offsupport", "shift",
        ]

    def test_reader_rejects_other_schemas(self, tmp_path):
        from rcdiff.pipeline import read_metrics_csv
        from rcdiff.errors import RcdiffError

        p = tmp_path / "metrics.csv"
        p.write_text("a,seed,reward\n1,2,3\n")
        with pytest.raises(RcdiffError):
            read_metrics_csv(p)
