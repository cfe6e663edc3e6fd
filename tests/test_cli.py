"""Command-line harness: exit codes, artifacts, idempotence, figures."""

import json

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


def _pipeline(cfg, *flags):
    return main(["pipeline", "--config", str(cfg), *flags])


def _assert_same_run(run, fresh):
    """``run`` lists the files of the ``--force`` run ``fresh``, and only
    those, with equal bytes; the manifests agree apart from timings."""
    manifests = [io.read_json(d / "manifest.json") for d in (run, fresh)]
    for manifest in manifests:
        del manifest["timings_s"]
    assert manifests[0] == manifests[1]
    written = {p.relative_to(fresh).as_posix() for p in fresh.rglob("*") if p.is_file()}
    assert set(manifests[1]["files"]) == written - {"manifest.json"}
    assert io.verify_manifest(run) == []


def test_every_config_key_is_a_model_key_or_only_changes_its_use():
    from rcdiff.config import SCHEMA
    from rcdiff.pipeline import MODEL_KEYS

    use_keys = {"sample.n", "sweep.a", "sweep.seeds", "metrics.n_ref",
                "metrics.histogram_bins", "out.dir"}
    model_keys = {key for key in SCHEMA if key.startswith(MODEL_KEYS)}
    assert model_keys.isdisjoint(use_keys)
    assert set(SCHEMA) - model_keys == use_keys


def test_manifest_lists_no_stale_file(smoke_cfg):
    cfg, out = smoke_cfg
    cfg.write_text(cfg.read_text() + "score.variant = oracle\n")
    assert _pipeline(cfg) == EXIT_OK
    cfg.write_text(cfg.read_text().replace("sweep.a = 0, 2", "sweep.a = 0"))
    assert _pipeline(cfg) == EXIT_OK
    assert (out / "seed_0" / "samples_a2.bin").exists()
    files = io.read_json(out / "manifest.json")["files"]
    assert not any("_a2." in rel for rel in files)
    assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
    _assert_same_run(out, out.parent / "fresh")


@pytest.mark.parametrize("variant", ["mlp", "covering"])
class TestModelReuse:
    @pytest.fixture()
    def trained(self, smoke_cfg, variant, capsys):
        cfg, out = smoke_cfg
        cfg.write_text(cfg.read_text() + f"score.variant = {variant}\n")
        assert _pipeline(cfg) == EXIT_OK
        assert "seed 0: trained" in capsys.readouterr().out
        return cfg, out

    def test_sweep_change_reuses_the_model(self, trained, capsys):
        cfg, out = trained
        model = out / "seed_0" / "score_model.rctb"
        before = model.stat()
        cfg.write_text(cfg.read_text().replace("sweep.a = 0, 2", "sweep.a = 0, 3"))
        assert _pipeline(cfg) == EXIT_OK
        assert "seed 0: reusing score_model.rctb" in capsys.readouterr().out
        after = model.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
        _assert_same_run(out, out.parent / "fresh")
        # --force never reads the record: it retrains over a reusable model.
        assert _pipeline(cfg, "--force") == EXIT_OK
        assert "seed 0: trained" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [("score.epochs", 2), ("reward.lambda", 0.5)])
    def test_training_input_change_retrains(self, trained, key, value, capsys):
        cfg, out = trained
        lines = [line for line in cfg.read_text().splitlines() if not line.startswith(key)]
        cfg.write_text("\n".join(lines) + f"\n{key} = {value}\n")
        assert _pipeline(cfg) == EXIT_OK
        log = capsys.readouterr().out
        assert "seed 0: trained" in log and "reusing" not in log
        assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
        _assert_same_run(out, out.parent / "fresh")

    def test_flipped_model_byte_retrains(self, trained, capsys):
        cfg, out = trained
        cfg.write_text(cfg.read_text().replace("sweep.a = 0, 2", "sweep.a = 2"))
        model = out / "seed_0" / "score_model.rctb"
        raw = bytearray(model.read_bytes())
        raw[-1] ^= 0x01  # still a loadable model, with one weight changed
        model.write_bytes(bytes(raw))
        assert _pipeline(cfg) == EXIT_OK
        log = capsys.readouterr().out
        assert "seed 0: trained" in log and "reusing" not in log
        assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
        _assert_same_run(out, out.parent / "fresh")

    def test_failed_run_keeps_the_models_it_trained(self, trained, capsys):
        cfg, out = trained
        cfg.write_text(cfg.read_text().replace("sweep.seeds = 0", "sweep.seeds = 0, 1"))
        squatter = out / "seed_1" / "world.rctb"
        squatter.mkdir(parents=True)
        assert _pipeline(cfg) == EXIT_COMPUTE
        assert io.read_json(out / "manifest.json")["complete"] is False
        squatter.rmdir()
        capsys.readouterr()
        assert _pipeline(cfg) == EXIT_OK
        log = capsys.readouterr().out
        assert "seed 0: reusing" in log and "seed 1: trained" in log
        assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
        _assert_same_run(out, out.parent / "fresh")
