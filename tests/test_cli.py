"""Command-line harness: exit codes, artifacts, idempotence, figures."""

import json
import struct

import pytest

from rcdiff import io
from rcdiff.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, main
from rcdiff.validate import CHECKS

SMOKE = """
world.D = 8
world.d = 2
data.n1 = 4096
data.n2 = 512
schedule.T = 6.0
schedule.t0 = 0.05
schedule.eta = 0.05
score.epochs = 3
sweep.a = 0, 2
sweep.seeds = 0
sample.n = 256
metrics.n_ref = 2000
"""


@pytest.fixture()
def smoke_cfg(tmp_path):
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text(SMOKE + f"out.dir = {tmp_path}/run\n")
    return cfg, tmp_path / "run"


class TestPipelineCommand:
    def test_full_run_and_idempotence(self, smoke_cfg, capsys):
        import time

        cfg, out = smoke_cfg
        start = time.perf_counter()
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert time.perf_counter() - start < 120  # smoke scale stays quick
        manifest = io.read_json(out / "manifest.json")
        assert manifest["complete"] is True
        assert (out / "metrics.csv").exists()
        assert io.verify_manifest(out) == []

        # Second run is a no-op on an up-to-date manifest.
        before = (out / "metrics.csv").stat().st_mtime_ns
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert "up to date" in capsys.readouterr().out
        assert (out / "metrics.csv").stat().st_mtime_ns == before

        # --force reruns and reproduces the cells bit-identically.
        assert main(["pipeline", "--config", str(cfg), "--force",
                     "--out", str(out.parent / "run2")]) == EXIT_OK
        for rel in ("seed_0/samples_a2.bin", "seed_0/metrics_a2.json"):
            assert (out / rel).read_bytes() == (out.parent / "run2" / rel).read_bytes()

    def test_dry_run_touches_only_manifest(self, smoke_cfg):
        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg), "--dry-run"]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        manifest = io.read_json(out / "manifest.json")
        assert manifest["dry_run"] is True
        assert manifest["complete"] is False

    def test_dry_run_keeps_finished_run_up_to_date(self, smoke_cfg, capsys):
        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        manifest = (out / "manifest.json").read_bytes()
        assert main(["pipeline", "--config", str(cfg), "--dry-run"]) == EXIT_OK
        assert "kept" in capsys.readouterr().out
        assert (out / "manifest.json").read_bytes() == manifest
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert "up to date" in capsys.readouterr().out

    def test_metrics_csv_is_parseable(self, smoke_cfg):
        from rcdiff.pipeline import read_metrics_csv

        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        rows = read_metrics_csv(out / "metrics.csv")
        assert len(rows) == 2
        assert {row["a"] for row in rows} == {0.0, 2.0}

    def test_csv_rows_project_the_cell_records(self, smoke_cfg):
        from rcdiff.pipeline import CSV_COLUMNS, read_metrics_csv

        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        rows = read_metrics_csv(out / "metrics.csv")
        assert len(rows) == 2
        for row in rows:
            sdir = out / f"seed_{row['seed']}"
            record = io.read_json(sdir / f"metrics_a{io.a_tag(row['a'])}.json")
            # The record keeps the cell's stream entropy, rooted at the seed.
            assert record["seed"][0] == row["seed"]
            assert row == {col: row["seed"] if key is None else record[key]
                           for col, key in CSV_COLUMNS.items()}

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("world.unknown = 1\n")
        assert main(["pipeline", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("line", [
        "score.hidden =", "score.hidden = 8, 8, 8, 8", "score.lr_decay = 1.5",
        "sweep.a = 0, 1, 1.0", "sweep.seeds = 2, 2", "sweep.a = 1, 1.0000001",
        "sweep.a = 0, -0", "reward.nu = 0", "world.offsupport_coeff = -1",
        "reward.lambda = -1", "reward.lambda = nan", "reward.lambda = 0",
        "sweep.a = 0, inf",
    ])
    def test_dry_run_rejects_config_that_fails_later(self, smoke_cfg, line):
        cfg, out = smoke_cfg
        cfg.write_text(cfg.read_text().replace("sweep.", "# sweep.") + line + "\n")
        assert main(["pipeline", "--config", str(cfg), "--dry-run"]) == EXIT_CONFIG
        assert not out.exists()

    def test_oracle_run_is_not_up_to_date_for_trained_run(self, smoke_cfg, capsys):
        cfg, out = smoke_cfg
        oracle_cfg = cfg.with_name("oracle.cfg")
        oracle_cfg.write_text(cfg.read_text() + "score.variant = oracle\n")
        assert main(["pipeline", "--config", str(oracle_cfg)]) == EXIT_OK
        assert not (out / "seed_0" / "score_model.rctb").exists()
        side = json.loads((out / "seed_0" / "samples_a2.json").read_text())
        assert side["score_id"].startswith("oracle:")
        assert main(["figures", "--config", str(oracle_cfg)]) == EXIT_OK
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert "up to date" not in capsys.readouterr().out
        side = json.loads((out / "seed_0" / "samples_a2.json").read_text())
        assert side["score_id"].startswith("model:")
        # The config digest keys the score source: each run is up to date
        # with respect to its own config only.
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert "up to date" in capsys.readouterr().out

    def test_failed_stage_leaves_incomplete_manifest(self, smoke_cfg, capsys):
        cfg, out = smoke_cfg
        # A directory squatting on an artifact path makes the write fail.
        (out / "seed_0" / "world.rctb").mkdir(parents=True)
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_COMPUTE
        assert "stage" in capsys.readouterr().err
        manifest = io.read_json(out / "manifest.json")
        assert manifest["complete"] is False

    def test_env_var_out_root(self, smoke_cfg, tmp_path, monkeypatch):
        cfg, _ = smoke_cfg
        monkeypatch.setenv("RCDIFF_OUT", str(tmp_path / "rooted"))
        assert main(["pipeline", "--config", str(cfg), "--dry-run",
                     "--out", "rel"]) == EXIT_OK
        assert (tmp_path / "rooted" / "rel" / "manifest.json").exists()


class TestFiguresCommand:
    def test_requires_pipeline_artifacts(self, smoke_cfg, capsys):
        cfg, _ = smoke_cfg
        assert main(["figures", "--config", str(cfg)]) == EXIT_COMPUTE
        assert "pipeline" in capsys.readouterr().err

    def test_emits_curves_and_histograms(self, smoke_cfg):
        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert main(["figures", "--config", str(cfg)]) == EXIT_OK
        figs = out / "figures"
        for name in ("curve_avg_reward", "curve_shift", "curve_offsupport"):
            assert (figs / f"{name}.csv").exists()
            svg = (figs / f"{name}.svg").read_text()
            assert svg.startswith("<svg") and "polyline" in svg
        assert (figs / "hist_a0.csv").exists()
        assert (figs / "hist_a2.csv").exists()

    def test_truncated_manifest_is_compute_error(self, smoke_cfg, capsys):
        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        manifest = out / "manifest.json"
        whole = manifest.read_bytes()
        for raw in (whole[:-3], b"\xff" + whole):  # truncated; not UTF-8
            manifest.write_bytes(raw)
            assert main(["figures", "--config", str(cfg)]) == EXIT_COMPUTE
            assert "manifest.json" in capsys.readouterr().err

    def test_single_seed_gives_zero_error_bars(self, smoke_cfg):
        import csv

        cfg, out = smoke_cfg
        main(["pipeline", "--config", str(cfg)])
        main(["figures", "--config", str(cfg)])
        with open(out / "figures" / "curve_avg_reward.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["err"]) == 0.0 for r in rows)

    def test_histograms_use_the_configured_bin_count(self, smoke_cfg):
        cfg, out = smoke_cfg
        cfg.write_text(cfg.read_text() + "metrics.histogram_bins = 20\n")
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert main(["figures", "--config", str(cfg)]) == EXIT_OK
        tables = sorted((out / "figures").glob("hist_a*.csv"))
        assert [p.name for p in tables] == ["hist_a0.csv", "hist_a2.csv"]
        for path in tables:
            assert len(path.read_text().splitlines()) == 1 + 20  # header + bins


class TestValidateCommand:
    def test_single_check_passes(self, capsys):
        assert main(["validate", "--check", "trace-identity"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_every_check_passes(self, capsys):
        assert main(["validate"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [[name, "PASS"] for name in CHECKS]

    def test_unknown_check_is_config_error(self):
        assert main(["validate", "--check", "nonsense"]) == EXIT_CONFIG

    def test_single_check_is_fast(self):
        import time

        start = time.perf_counter()
        main(["validate", "--check", "trace-identity"])
        assert time.perf_counter() - start < 1.0


class TestStagedCommands:
    def test_staged_flow_matches_pipeline_layout(self, smoke_cfg, tmp_path):
        cfg, out = smoke_cfg
        assert main(["gen-data", "--config", str(cfg)]) == EXIT_OK
        assert main(["train-reward", "--config", str(cfg)]) == EXIT_OK
        assert main(["train-score", "--config", str(cfg)]) == EXIT_OK
        assert main(["sample", "--config", str(cfg), "--a", "2"]) == EXIT_OK
        assert main(["sample", "--config", str(cfg), "--a", "0"]) == EXIT_OK
        sdir = out / "seed_0"
        for name in ("world.rctb", "labeled.bin", "ridge.rctb",
                     "score_model.rctb", "samples_a2.bin", "samples_a2.json"):
            assert (sdir / name).exists()
        side = json.loads((sdir / "samples_a2.json").read_text())
        assert side["a"] == 2.0
        assert side["n"] == 256

        # Every per-seed file both flows write is byte-identical.
        assert main(["pipeline", "--config", str(cfg),
                     "--out", str(tmp_path / "full")]) == EXIT_OK
        full = tmp_path / "full" / "seed_0"
        staged = {p.name for p in sdir.iterdir()}
        shared = staged & {p.name for p in full.iterdir()}
        assert staged - shared == {"train_trace.json"}
        assert {"pseudo_labels.bin", "samples_a0.bin", "labeled.csv"} <= shared
        for name in sorted(shared):
            assert (sdir / name).read_bytes() == (full / name).read_bytes(), name

    def test_sample_outside_sweep_is_config_error(self, smoke_cfg, capsys):
        cfg, out = smoke_cfg
        cfg.write_text(cfg.read_text() + "score.variant = oracle\n")
        main(["gen-data", "--config", str(cfg)])
        main(["train-reward", "--config", str(cfg)])
        before = sorted(p.name for p in (out / "seed_0").iterdir())
        assert main(["sample", "--config", str(cfg), "--a", "3"]) == EXIT_CONFIG
        assert "sweep.a" in capsys.readouterr().err
        assert sorted(p.name for p in (out / "seed_0").iterdir()) == before

    def test_sample_with_oracle_score(self, smoke_cfg):
        cfg, out = smoke_cfg
        cfg.write_text(cfg.read_text() + "score.variant = oracle\n")
        main(["gen-data", "--config", str(cfg)])
        main(["train-reward", "--config", str(cfg)])
        assert main(["sample", "--config", str(cfg), "--a", "0"]) == EXIT_OK
        side = json.loads((out / "seed_0" / "samples_a0.json").read_text())
        assert side["score_id"].startswith("oracle:")

    def test_train_score_under_oracle_is_config_error(self, smoke_cfg, capsys):
        cfg, out = smoke_cfg
        cfg.write_text(cfg.read_text() + "score.variant = oracle\n")
        main(["gen-data", "--config", str(cfg)])
        main(["train-reward", "--config", str(cfg)])
        before = {p.name: p.read_bytes() for p in (out / "seed_0").iterdir()}
        assert main(["train-score", "--config", str(cfg)]) == EXIT_CONFIG
        assert "oracle" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (out / "seed_0").iterdir()} == before

    def test_corrupted_model_file_is_compute_error(self, smoke_cfg, capsys):
        cfg, out = smoke_cfg
        main(["gen-data", "--config", str(cfg)])
        main(["train-reward", "--config", str(cfg)])
        main(["train-score", "--config", str(cfg)])
        model_path = out / "seed_0" / "score_model.rctb"
        whole = model_path.read_bytes()
        bad_version = bytearray(whole)
        bad_version[5] ^= 0xFF
        oversized = bytearray(whole)
        # The first dim of the first block: after the metadata, the u32 block
        # count, the u32 name length and the name, and the u32 rank.
        (meta_len,) = struct.unpack_from("<Q", whole, 8)
        (name_len,) = struct.unpack_from("<I", whole, 16 + meta_len + 4)
        struct.pack_into("<Q", oversized, 16 + meta_len + 8 + name_len + 4, 10**6)
        for raw in (bad_version, oversized):
            model_path.write_bytes(bytes(raw))
            assert main(["sample", "--config", str(cfg), "--a", "0"]) == EXIT_COMPUTE
            assert "error" in capsys.readouterr().err

    def test_missing_data_is_compute_error(self, smoke_cfg):
        cfg, _ = smoke_cfg
        assert main(["train-reward", "--config", str(cfg)]) == EXIT_COMPUTE
