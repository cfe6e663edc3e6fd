"""Command-line harness: exit codes, artifacts, idempotence, figures."""

import csv
import math
import os

import pytest

from rcdiff import io
from rcdiff.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, main
from rcdiff.figures import HISTOGRAM_BINS
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


def _hash_clean(out) -> bool:
    """Every file that ``out``'s manifest lists is there with its sha256."""
    return io.verify_manifest(out, io.read_json(out / "manifest.json")["files"]) == []


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
        assert _hash_clean(out)
        assert set(manifest["timings_s"]) == {
            "seed0.world", "seed0.data", "seed0.ridge", "seed0.pseudo", "seed0.train",
            "seed0.sample", "seed0.metrics.a0", "seed0.metrics.a2"}

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

    def test_dry_run_writes_nothing(self, smoke_cfg, capsys):
        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg), "--dry-run"]) == EXIT_OK
        assert f"output directory {out}" in capsys.readouterr().out
        assert not out.exists()

    def test_dry_run_keeps_finished_run_up_to_date(self, smoke_cfg, capsys):
        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK

        def snapshot():
            return {p: (p.stat().st_mtime_ns, p.is_file() and p.read_bytes())
                    for p in [out, *out.rglob("*")]}
        before = snapshot()
        assert main(["pipeline", "--config", str(cfg), "--dry-run"]) == EXIT_OK
        assert snapshot() == before
        capsys.readouterr()
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
            assert row == {col: row["seed"] if key is None else record[key]
                           for col, key in CSV_COLUMNS.items()}

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("world.unknown = 1\n")
        assert main(["pipeline", "--config", str(bad)]) == EXIT_CONFIG

    def test_config_that_is_not_utf8_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"world.D = 8\n# \xff\n")
        assert main(["pipeline", "--config", str(bad), "--dry-run"]) == EXIT_CONFIG
        assert "bad.cfg is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "score.hidden =", "score.hidden = 8, 8, 8, 8", "score.lr_decay = 1.5",
        "sweep.a = 0, 1, 1.0", "sweep.seeds = 2, 2", "sweep.a = 1, 1.0000001",
        "sweep.a = 0, -0", "reward.nu = 0", "world.offsupport_coeff = -1",
        "reward.lambda = -1", "reward.lambda = nan", "reward.lambda = 0",
        "sweep.a = 0, inf", "score.learning_rate = 0", "score.learning_rate = -1",
        "sweep.seeds = -1", "reward.lambda = 0\nworld.D = 4\nworld.d = 4\ndata.n2 = 3",
    ])
    def test_dry_run_rejects_config_that_fails_later(self, smoke_cfg, line):
        cfg, out = smoke_cfg
        # The sweep keys and every key that ``line`` sets leave the smoke config.
        keys = {row.partition("=")[0].strip() for row in line.splitlines()}
        kept = [row for row in cfg.read_text().splitlines()
                if not row.startswith("sweep.") and row.partition("=")[0].strip() not in keys]
        cfg.write_text("\n".join(kept + [line]) + "\n")
        assert main(["pipeline", "--config", str(cfg), "--dry-run"]) == EXIT_CONFIG
        assert not out.exists()

    def test_oracle_run_is_not_up_to_date_for_trained_run(self, smoke_cfg, capsys):
        cfg, out = smoke_cfg
        oracle_cfg = cfg.with_name("oracle.cfg")
        oracle_cfg.write_text(cfg.read_text() + "score.variant = oracle\n")
        model = out / "seed_0" / "score_model.rctb"
        assert main(["pipeline", "--config", str(oracle_cfg)]) == EXIT_OK
        manifest = io.read_json(out / "manifest.json")
        assert manifest["config"]["score.variant"] == "oracle"
        assert not model.exists() and "training" not in manifest
        assert main(["figures", "--config", str(oracle_cfg)]) == EXIT_OK
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert "up to date" not in capsys.readouterr().out
        manifest = io.read_json(out / "manifest.json")
        assert manifest["training"]["0"]["sha256"] == io.sha256_file(model)
        # The config digest keys the score source: each run is up to date
        # with respect to its own config only.
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert "up to date" in capsys.readouterr().out

    def test_failed_stage_leaves_incomplete_manifest(self, smoke_cfg, capsys):
        cfg, out = smoke_cfg
        # A directory squatting on an artifact path makes the write fail.
        (out / "seed_0" / "world.rctb").mkdir(parents=True)
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_COMPUTE
        assert "compute error in stage 'seed0.world'" in capsys.readouterr().err
        assert not (out / "seed_0" / "world.rctb.tmp").exists()
        manifest = io.read_json(out / "manifest.json")
        assert manifest["complete"] is False

    def test_failed_span_view_names_its_seed(self, smoke_cfg, monkeypatch, capsys):
        from rcdiff import score_model
        from rcdiff.errors import ValidationError

        def rank_deficient(model):
            raise ValidationError("decoder matrix is rank deficient")
        monkeypatch.setattr(score_model, "extract_subspace", rank_deficient)
        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_COMPUTE
        assert ("compute error in stage 'seed0.sample': decoder matrix is rank deficient"
                in capsys.readouterr().err)
        assert io.read_json(out / "manifest.json")["complete"] is False

    @pytest.mark.parametrize("raw", ["[]", '{"training": []}', '{"training": {"0": []}}'])
    def test_manifest_of_the_wrong_shape_is_recomputed(self, smoke_cfg, raw, capsys):
        cfg, out = smoke_cfg
        out.mkdir()
        (out / "manifest.json").write_text(raw)
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert "seed 0: trained" in capsys.readouterr().out
        assert io.read_json(out / "manifest.json")["complete"] is True

    def test_each_start_reads_the_manifest_once(self, smoke_cfg, monkeypatch, capsys):
        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        reads = []
        read_json = io.read_json

        def counted(path):
            reads.append(path.name)
            return read_json(path)
        monkeypatch.setattr(io, "read_json", counted)

        def start(*flags):
            reads.clear()
            capsys.readouterr()
            assert main(["pipeline", "--config", str(cfg), *flags]) == EXIT_OK
            return reads.count("manifest.json"), capsys.readouterr().out

        count, log = start()
        assert count == 1 and "up to date" in log
        cfg.write_text(cfg.read_text().replace("sweep.a = 0, 2", "sweep.a = 0, 3"))
        count, log = start()
        assert count == 1 and "reusing" in log
        sample = out / "seed_0" / "samples_a3.bin"
        raw = bytearray(sample.read_bytes())
        raw[-1] ^= 0x01
        sample.write_bytes(bytes(raw))
        count, log = start()
        assert count == 1 and "reusing" in log
        count, log = start("--force")
        assert count == 0 and "trained" in log

    @pytest.mark.parametrize("files", [None, []], ids=["missing", "list"])
    def test_manifest_without_a_file_table_is_recomputed(self, smoke_cfg, files, capsys):
        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        manifest = io.read_json(out / "manifest.json")
        if files is None:
            del manifest["files"]
        else:
            manifest["files"] = files
        io.write_json(out / "manifest.json", manifest)
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert "up to date" not in capsys.readouterr().out
        assert _hash_clean(out)

    def test_every_stage_runs_through_its_module_global(self, smoke_cfg, monkeypatch):
        # The benchmark's span tracing patches these names on ``pipeline``;
        # a stage called some other way would drop out of its per-layer figures.
        from rcdiff import pipeline

        calls = {}
        for name in ("make_world", "generate_datasets", "fit_ridge", "pseudo_label",
                     "train", "run_backward", "build_metrics_report"):
            def counted(*args, _fn=getattr(pipeline, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        cfg, _ = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert calls == {"make_world": 1, "generate_datasets": 1, "fit_ridge": 1,
                         "pseudo_label": 1, "train": 1, "run_backward": 1,
                         "build_metrics_report": 2}

    def test_env_var_out_root(self, smoke_cfg, tmp_path, monkeypatch, capsys):
        cfg, _ = smoke_cfg
        monkeypatch.setenv("RCDIFF_OUT", str(tmp_path / "rooted"))
        assert main(["pipeline", "--config", str(cfg), "--dry-run",
                     "--out", "rel"]) == EXIT_OK
        assert f"output directory {tmp_path / 'rooted' / 'rel'}\n" in capsys.readouterr().out
        assert not (tmp_path / "rooted").exists()


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
        tables = sorted(figs.glob("hist_a*.csv"))
        assert [p.name for p in tables] == ["hist_a0.csv", "hist_a2.csv"]
        edges = set()
        for path in tables:
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert header == ["bin_lo", "bin_hi", "count"] and len(rows) == HISTOGRAM_BINS
            # Every sample of the target, pooled over seeds (one seed of sample.n = 256).
            assert sum(int(count) for _, _, count in rows) == 256
            assert all(lo == prev_hi for (lo, _, _), (_, prev_hi, _) in zip(rows[1:], rows))
            edges.add(tuple(float(v) for v in [rows[0][0]] + [hi for _, hi, _ in rows]))
        # One set of bins, shared by every target, strictly increasing.
        [shared] = edges
        assert all(lo < hi for lo, hi in zip(shared, shared[1:]))

    def test_figures_read_no_manifest(self, smoke_cfg):
        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert main(["figures", "--config", str(cfg)]) == EXIT_OK
        figs = {p.name: p.read_bytes() for p in (out / "figures").iterdir()}
        manifest = out / "manifest.json"
        # Truncated, then deleted: figures come from the results alone.
        for damage in (lambda: manifest.write_bytes(manifest.read_bytes()[:-3]),
                       manifest.unlink):
            damage()
            assert main(["figures", "--config", str(cfg)]) == EXIT_OK
            assert {p.name: p.read_bytes() for p in (out / "figures").iterdir()} == figs

    @pytest.mark.parametrize("corrupt, bad", [
        (lambda text: text[:text.rindex(",")], "line 3"),  # truncated last row
        (lambda text: text.rstrip() + ",1\n", "line 3"),  # one field too many
        (lambda text: text.replace("\n0.0,", "\nzero,", 1), "line 2"),
        (lambda text: text[:text.index("\n") + 1], "no rows"),
    ], ids=["truncated", "long", "non-numeric", "header-only"])
    def test_corrupt_metrics_csv_is_compute_error(self, smoke_cfg, capsys, corrupt, bad):
        cfg, out = smoke_cfg
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        csv_path = out / "metrics.csv"
        csv_path.write_text(corrupt(csv_path.read_text()))
        assert main(["figures", "--config", str(cfg)]) == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert "metrics.csv" in err and bad in err
        assert not (out / "figures").exists()

    def test_single_seed_gives_zero_error_bars(self, smoke_cfg):
        import csv

        cfg, out = smoke_cfg
        main(["pipeline", "--config", str(cfg)])
        main(["figures", "--config", str(cfg)])
        with open(out / "figures" / "curve_avg_reward.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["err"]) == 0.0 for r in rows)


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

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_takes_no_config_or_out(self, flag, capsys):
        # ``validate`` runs built-in checks; it reads no config and writes no run.
        with pytest.raises(SystemExit) as exc:
            main(["validate", flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
    assert _hash_clean(run)


def test_every_config_key_is_a_model_key_or_only_changes_its_use():
    from rcdiff.config import SCHEMA
    from rcdiff.pipeline import MODEL_KEYS

    use_keys = {"sample.n", "sweep.a", "sweep.seeds", "metrics.n_ref", "out.dir",
                "schedule.eta"}
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


@pytest.mark.parametrize("variant, model", [("mlp", {"seed_0/score_model.rctb"}),
                                            ("oracle", set())], ids=["mlp", "oracle"])
def test_run_keeps_one_copy_of_each_result(smoke_cfg, variant, model):
    cfg, out = smoke_cfg
    cfg.write_text(cfg.read_text() + f"score.variant = {variant}\n")
    assert _pipeline(cfg) == EXIT_OK
    expected = {"metrics.csv", "seed_0/world.rctb", "seed_0/labeled.csv", "seed_0/ridge.rctb",
                "seed_0/samples_a0.bin", "seed_0/samples_a2.bin",
                "seed_0/metrics_a0.json", "seed_0/metrics_a2.json"} | model
    manifest = io.read_json(out / "manifest.json")
    assert set(manifest["files"]) == expected
    # The oracle's parameters are the config's nu and the stored world and ridge.
    assert set(manifest) == {"config_digest", "config", "files", "host", "sampler_revision",
                             "metrics_revision", "timings_s", "complete"} | (
                                 {"training"} if model else set())
    # Pseudo-labels are computed only for a model that is trained.
    assert ("seed0.pseudo" in manifest["timings_s"]) == bool(model)
    on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert on_disk == expected | {"manifest.json"}


@pytest.mark.parametrize("key", ["metrics.n_ref", "sample.n"])
def test_single_draw_gives_finite_records(smoke_cfg, key):
    # One reference draw or one generated point has no spread: its share of
    # e2_se is 0, not the NaN of a one-value sample deviation.
    cfg, out = smoke_cfg
    kept = [row for row in cfg.read_text().splitlines() if not row.startswith(key)]
    cfg.write_text("\n".join(kept + ["score.variant = oracle", f"{key} = 1"]) + "\n")
    assert _pipeline(cfg) == EXIT_OK
    for tag in ("0", "2"):
        record = io.read_json(out / "seed_0" / f"metrics_a{tag}.json")
        assert record["e2_se"] >= 0 and all(
            math.isfinite(v) for v in record.values() if isinstance(v, float))


def test_manifest_records_the_host_outside_the_up_to_date_check(smoke_cfg, monkeypatch, capsys):
    import importlib.metadata
    import platform

    from rcdiff import pipeline

    cfg, out = smoke_cfg
    cfg.write_text(cfg.read_text() + "score.variant = oracle\n")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert _pipeline(cfg) == EXIT_OK
    host = io.read_json(out / "manifest.json")["host"]
    assert set(host) == {"python", "numpy", "blas", "cpus", "threads", "workers"}
    assert host["python"] == platform.python_version()
    assert host["numpy"] == importlib.metadata.version("numpy")
    assert host["cpus"] == pipeline._cpus() >= 1
    assert host["threads"]["OMP_NUM_THREADS"] == "1"
    assert host["threads"]["MKL_NUM_THREADS"] is None
    assert host["workers"] == 1  # one seed
    # Another thread setting, CPU count or worker count changes no output,
    # so the run stays up to date.
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    manifest = io.read_json(out / "manifest.json")
    manifest["host"].update(cpus=host["cpus"] + 1, workers=2)
    io.write_json(out / "manifest.json", manifest)
    capsys.readouterr()
    assert _pipeline(cfg) == EXIT_OK
    assert "up to date" in capsys.readouterr().out


def test_seed_inputs_regenerate_from_the_manifest(smoke_cfg, tmp_path):
    import numpy as np

    from rcdiff.config import RunConfig
    from rcdiff.pipeline import SEED_DATA, SEED_WORLD
    from rcdiff.rng import derive
    from rcdiff.world import generate_datasets, make_world

    cfg, out = smoke_cfg
    assert _pipeline(cfg) == EXIT_OK
    c = RunConfig(values=io.read_json(out / "manifest.json")["config"])
    world = make_world(c["world.D"], c["world.d"], c.sigma, c["world.offsupport_coeff"],
                       c["world.offsupport_sign"], seed=derive(0, SEED_WORLD))
    _, labeled = generate_datasets(world, c["data.n1"], c["data.n2"], c["data.noise_sigma"],
                                   seed=derive(0, SEED_DATA))
    regen = tmp_path / "regen"
    regen.mkdir()
    io.save_world(regen / "world.rctb", world)
    io.export_csv(regen / "labeled.csv", labeled.X, labeled.y)
    for name in ("world.rctb", "labeled.csv"):
        assert (regen / name).read_bytes() == (out / "seed_0" / name).read_bytes()
    # The text export holds the labeled set exactly: repr floats round-trip.
    table = np.loadtxt(out / "seed_0" / "labeled.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table, np.column_stack([labeled.X, labeled.y]))


def test_oracle_run_of_an_older_sampler_revision_is_sampled_again(smoke_cfg, capsys):
    # As a finished oracle run written at revision 2, which stepped the
    # oracle on all D coordinates: same config, other sample bytes.
    from rcdiff.sampler import SAMPLER_REVISION

    cfg, out = smoke_cfg
    cfg.write_text(cfg.read_text() + "score.variant = oracle\n")
    assert _pipeline(cfg) == EXIT_OK
    manifest = io.read_json(out / "manifest.json")
    manifest["sampler_revision"] = 2
    stale = out / "seed_0" / "samples_a0.bin"
    stale.write_bytes((out / "seed_0" / "samples_a2.bin").read_bytes())
    manifest["files"]["seed_0/samples_a0.bin"] = io.sha256_file(stale)
    io.write_json(out / "manifest.json", manifest)
    capsys.readouterr()
    assert _pipeline(cfg) == EXIT_OK
    assert "up to date" not in capsys.readouterr().out
    assert io.read_json(out / "manifest.json")["sampler_revision"] == SAMPLER_REVISION
    assert _pipeline(cfg) == EXIT_OK
    assert "up to date" in capsys.readouterr().out
    assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
    _assert_same_run(out, out.parent / "fresh")


def test_mlp_run_of_an_older_sampler_revision_is_sampled_again(smoke_cfg, monkeypatch, capsys):
    # A finished mlp run written at revision 5, whose span view ran the
    # head in float64: its model is reused and its samples are rewritten.
    from rcdiff import pipeline
    from rcdiff.score_model import SpanScore

    cfg, out = smoke_cfg
    cfg.write_text(cfg.read_text() + "score.variant = mlp\n")
    with monkeypatch.context() as m:
        m.setattr(pipeline, "SAMPLER_REVISION", 5)
        m.setattr(SpanScore, "__call__",
                  lambda view, u, y, t: view.model._decoded(u, view.R, y, t)[0])
        assert _pipeline(cfg) == EXIT_OK
    old = io.read_json(out / "manifest.json")
    assert old["sampler_revision"] == 5
    capsys.readouterr()
    assert _pipeline(cfg) == EXIT_OK
    log = capsys.readouterr().out
    assert "seed 0: reusing score_model.rctb" in log and "up to date" not in log
    new = io.read_json(out / "manifest.json")
    assert new["sampler_revision"] == 6
    assert new["training"] == old["training"]
    model = "seed_0/score_model.rctb"
    assert new["files"][model] == old["files"][model] == old["training"]["0"]["sha256"]
    for tag in ("0", "2"):
        rel = f"seed_0/samples_a{tag}.bin"
        assert new["files"][rel] != old["files"][rel]
    assert _pipeline(cfg) == EXIT_OK
    assert "up to date" in capsys.readouterr().out


@pytest.mark.parametrize("revision", [None, 2], ids=["absent", "older"])
def test_run_of_an_older_metrics_revision_rewrites_its_records(smoke_cfg, revision, capsys):
    # As a finished run written before ``e2_se`` joined the record: same
    # config and sampler revision, other record bytes.
    from rcdiff.metrics import METRICS_REVISION

    cfg, out = smoke_cfg
    assert _pipeline(cfg) == EXIT_OK
    manifest = io.read_json(out / "manifest.json")
    manifest.pop("metrics_revision")
    if revision is not None:
        manifest["metrics_revision"] = revision
    for tag in ("0", "2"):
        path = out / "seed_0" / f"metrics_a{tag}.json"
        record = io.read_json(path)
        del record["e2_se"]
        io.write_json(path, record)
        manifest["files"][f"seed_0/metrics_a{tag}.json"] = io.sha256_file(path)
    io.write_json(out / "manifest.json", manifest)
    capsys.readouterr()
    assert _pipeline(cfg) == EXIT_OK
    log = capsys.readouterr().out
    assert "seed 0: reusing score_model.rctb" in log and "up to date" not in log
    assert io.read_json(out / "manifest.json")["metrics_revision"] == METRICS_REVISION
    assert "e2_se" in io.read_json(out / "seed_0" / "metrics_a0.json")
    assert _pipeline(cfg) == EXIT_OK
    assert "up to date" in capsys.readouterr().out
    assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
    _assert_same_run(out, out.parent / "fresh")


def test_every_error_type_pickles_with_its_fields():
    # A worker process hands its failure to the parent pickled.
    import inspect
    import pickle

    from rcdiff import errors
    from rcdiff.pipeline import PipelineStageError

    diverged = errors.TrainingDivergedError(7, [1.5, 0.25])
    examples = [errors.RcdiffError("base"), errors.ValidationError("rank deficient"),
                errors.ConfigError("unknown key"), diverged,
                errors.SamplerDivergedError(3, 2.0), PipelineStageError("seed1.train", diverged)]
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__}
    assert {type(e) for e in examples} == defined | {PipelineStageError}

    def fields(error):
        return type(error), str(error), {
            k: fields(v) if isinstance(v, BaseException) else v for k, v in vars(error).items()}
    for error in examples:
        assert fields(pickle.loads(pickle.dumps(error))) == fields(error)


def _set_workers(monkeypatch, count):
    """Give the runs that follow ``count`` (1 or 2) worker processes, as on
    a two-CPU host with the BLAS thread variables unset or pinned to one."""
    from rcdiff import pipeline

    for key in pipeline.THREAD_ENV:
        monkeypatch.delenv(key, raising=False)
    if count == 2:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)


@pytest.mark.parametrize("env, seeds, thread, expected", [
    ({}, 3, False, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 3, False, 2),
    ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 3, False, 2),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 3, False, 1),
    ({"OPENBLAS_NUM_THREADS": ""}, 3, False, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 3, True, 1),
], ids=["unset", "pinned", "pinned-by-two", "one-unpinned", "empty", "one-seed", "threaded"])
def test_worker_count_rule(monkeypatch, env, seeds, thread, expected):
    import threading

    from rcdiff import pipeline

    _set_workers(monkeypatch, 1)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if thread:
        other.start()
    try:
        assert pipeline._worker_count(seeds) == expected
    finally:
        release.set()
        if thread:
            other.join(timeout=10)
    assert not other.is_alive()


@pytest.fixture()
def forked(monkeypatch):
    """The pids of the worker processes that runs fork during the test."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recorded)
    return pids


def _assert_reaped(pids):
    """No worker process outlives the run that forked it."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("variant", ["covering", "oracle"])
def test_two_workers_write_the_bytes_of_one(smoke_cfg, variant, monkeypatch, forked):
    from rcdiff.config import load_config
    from rcdiff.pipeline import run_pipeline

    cfg, out = smoke_cfg
    cfg.write_text(cfg.read_text().replace("sweep.seeds = 0", "sweep.seeds = 0, 1, 2")
                   + f"score.variant = {variant}\n")
    runs = {}
    for count in (1, 2):
        _set_workers(monkeypatch, count)
        logs = []
        run_pipeline(load_config(cfg), out / str(count), force=True, log=logs.append)
        _assert_reaped(forked)
        assert len(forked) == count - 1
        manifest = io.read_json(out / str(count) / "manifest.json")
        assert manifest["host"]["workers"] == count
        assert set(manifest["timings_s"]) == {
            f"seed{s}.{stage}" for s in range(3) for stage in
            ["world", "data", "ridge", "sample", "metrics.a0", "metrics.a2"]
            + (["pseudo", "train"] if variant == "covering" else [])}
        runs[count] = [{k: v for k, v in manifest.items() if k not in ("timings_s", "host")},
                       logs[:-1]]  # the last message names the output directory
    assert runs[1] == runs[2]
    for count in (1, 2):
        on_disk = {p.relative_to(out / str(count)).as_posix()
                   for p in (out / str(count)).rglob("*") if p.is_file()}
        assert on_disk == set(runs[1][0]["files"]) | {"manifest.json"}
        assert _hash_clean(out / str(count))


def test_failed_stage_of_a_workers_seed_is_reported_as_in_one_process(
        smoke_cfg, monkeypatch, forked, capsys):
    cfg, out = smoke_cfg
    cfg.write_text(cfg.read_text().replace("sweep.seeds = 0", "sweep.seeds = 0, 1")
                   + "score.variant = covering\n")
    (out / "seed_1" / "world.rctb").mkdir(parents=True)
    errs = []
    for count in (1, 2):
        _set_workers(monkeypatch, count)
        assert _pipeline(cfg) == EXIT_COMPUTE
        _assert_reaped(forked)
        assert len(forked) == count - 1
        errs.append(capsys.readouterr().err)
        manifest = io.read_json(out / "manifest.json")
        assert manifest["complete"] is False and set(manifest["training"]) == {"0"}
    assert "compute error in stage 'seed1.world': [Errno 21] Is a directory" in errs[0]
    assert errs[1] == errs[0]


def test_interrupt_in_a_workers_seed_keeps_the_finished_models(smoke_cfg, monkeypatch,
                                                               forked, capsys):
    from rcdiff import pipeline

    cfg, out = smoke_cfg
    cfg.write_text(cfg.read_text().replace("sweep.seeds = 0", "sweep.seeds = 0, 1, 2, 3")
                   + "score.variant = covering\n")
    _set_workers(monkeypatch, 2)
    train = pipeline.train

    def interrupted_at_seed_1(score, curated, config, schedule):
        if config.seed == 1:
            raise KeyboardInterrupt
        return train(score, curated, config, schedule)
    monkeypatch.setattr(pipeline, "train", interrupted_at_seed_1)
    with pytest.raises(KeyboardInterrupt):
        _pipeline(cfg)
    _assert_reaped(forked)
    assert len(forked) == 1
    # This process ran seeds 0 and 2; the worker stopped at seed 1, before 3.
    manifest = io.read_json(out / "manifest.json")
    assert manifest["complete"] is False and set(manifest["training"]) == {"0", "2"}
    monkeypatch.setattr(pipeline, "train", train)
    capsys.readouterr()
    assert _pipeline(cfg) == EXIT_OK
    log = capsys.readouterr().out
    assert [line[:15] for line in log.splitlines() if " a=" not in line][:4] == [
        "seed 0: reusing", "seed 1: trained", "seed 2: reusing", "seed 3: trained"]
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
        assert "seed0.pseudo" not in io.read_json(out / "manifest.json")["timings_s"]
        after = model.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
        _assert_same_run(out, out.parent / "fresh")
        # --force never reads the record: it retrains over a reusable model.
        assert _pipeline(cfg, "--force") == EXIT_OK
        assert "seed 0: trained" in capsys.readouterr().out

    def test_reuse_hashes_each_file_once(self, trained, monkeypatch, capsys):
        cfg, out = trained
        cfg.write_text(cfg.read_text().replace("sweep.a = 0, 2", "sweep.a = 0, 3"))
        hashed = []
        sha256_file = io.sha256_file

        def counted(path):
            hashed.append(os.path.relpath(path, out))
            return sha256_file(path)
        monkeypatch.setattr(io, "sha256_file", counted)
        assert _pipeline(cfg) == EXIT_OK
        assert "seed 0: reusing score_model.rctb" in capsys.readouterr().out
        assert sorted(hashed) == sorted(io.read_json(out / "manifest.json")["files"])

    def test_older_sampler_revision_resamples_and_reuses_the_model(self, trained, capsys):
        # As a finished run of the same config whose samples an earlier
        # sampler wrote: its manifest has no revision and other sample bytes.
        cfg, out = trained
        manifest = io.read_json(out / "manifest.json")
        del manifest["sampler_revision"]
        stale = out / "seed_0" / "samples_a0.bin"
        stale.write_bytes((out / "seed_0" / "samples_a2.bin").read_bytes())
        manifest["files"]["seed_0/samples_a0.bin"] = io.sha256_file(stale)
        io.write_json(out / "manifest.json", manifest)
        assert _pipeline(cfg) == EXIT_OK
        log = capsys.readouterr().out
        assert "seed 0: reusing score_model.rctb" in log and "up to date" not in log
        assert _pipeline(cfg) == EXIT_OK
        assert "up to date" in capsys.readouterr().out
        assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
        _assert_same_run(out, out.parent / "fresh")

    def test_eta_change_reuses_the_model(self, trained, capsys):
        # Training draws t on [t0, T]; the sampler's step does not reach it.
        cfg, out = trained
        cfg.write_text(cfg.read_text().replace("schedule.eta = 0.05", "schedule.eta = 0.025"))
        assert _pipeline(cfg) == EXIT_OK
        assert "seed 0: reusing score_model.rctb" in capsys.readouterr().out
        assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
        _assert_same_run(out, out.parent / "fresh")

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

    def test_model_that_fails_to_load_is_retrained(self, trained, variant, capsys):
        # As a covering model saved before ``SigmaInv`` was renamed ``sigma_inv_tril``,
        # with a training record that still matches it.
        cfg, out = trained
        model = out / "seed_0" / "score_model.rctb"
        meta, blocks = io.read_blocks(model)
        old = "sigma_inv_tril" if variant == "covering" else "V"
        blocks["SigmaInv"] = blocks.pop(old)
        io.write_blocks(model, meta, blocks)
        manifest = io.read_json(out / "manifest.json")
        manifest["training"]["0"]["sha256"] = io.sha256_file(model)
        manifest["files"]["seed_0/score_model.rctb"] = io.sha256_file(model)
        io.write_json(out / "manifest.json", manifest)
        cfg.write_text(cfg.read_text().replace("sweep.a = 0, 2", "sweep.a = 0, 3"))
        assert _pipeline(cfg) == EXIT_OK
        log = capsys.readouterr().out
        assert f"seed 0: retraining, {model}: missing key {old!r}" in log
        assert "seed 0: trained" in log and "reusing" not in log
        cfg.write_text(cfg.read_text().replace("sweep.a = 0, 3", "sweep.a = 3"))
        assert _pipeline(cfg) == EXIT_OK
        assert "seed 0: reusing score_model.rctb" in capsys.readouterr().out
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

    def test_interrupted_run_keeps_the_models_it_trained(self, smoke_cfg, variant,
                                                         monkeypatch, capsys):
        from rcdiff import pipeline

        cfg, out = smoke_cfg
        cfg.write_text(cfg.read_text().replace("sweep.seeds = 0", "sweep.seeds = 0, 1")
                       + f"score.variant = {variant}\n")
        train, calls = pipeline.train, []

        def interrupted_at_second_seed(*args, **kwargs):
            # Keyed on the seed, not on a count in this process: the seed
            # may run in a worker process.
            calls.append(args)
            if args[2].seed == 1:
                raise KeyboardInterrupt
            return train(*args, **kwargs)
        monkeypatch.setattr(pipeline, "train", interrupted_at_second_seed)
        with pytest.raises(KeyboardInterrupt):
            _pipeline(cfg)
        manifest = io.read_json(out / "manifest.json")
        assert manifest["complete"] is False and set(manifest["training"]) == {"0"}
        monkeypatch.setattr(pipeline, "train", train)
        capsys.readouterr()
        assert _pipeline(cfg) == EXIT_OK
        log = capsys.readouterr().out
        assert "seed 0: reusing score_model.rctb" in log and "seed 1: trained" in log
        assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
        _assert_same_run(out, out.parent / "fresh")

    def test_failed_run_keeps_the_records_of_seeds_it_never_reached(self, trained, capsys):
        cfg, out = trained
        cfg.write_text(cfg.read_text().replace("sweep.seeds = 0", "sweep.seeds = 0, 1"))
        assert _pipeline(cfg) == EXIT_OK
        cfg.write_text(cfg.read_text().replace("sweep.a = 0, 2", "sweep.a = 0, 3"))
        squatter = out / "seed_0" / "world.rctb"
        squatter.unlink()
        squatter.mkdir()
        assert _pipeline(cfg) == EXIT_COMPUTE
        squatter.rmdir()
        capsys.readouterr()
        assert _pipeline(cfg) == EXIT_OK
        log = capsys.readouterr().out
        assert "seed 0: reusing" in log and "seed 1: reusing" in log
        assert "trained" not in log
        assert _pipeline(cfg, "--force", "--out", str(out.parent / "fresh")) == EXIT_OK
        _assert_same_run(out, out.parent / "fresh")
