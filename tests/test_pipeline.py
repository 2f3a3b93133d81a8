import hashlib
import json
import os
import shutil

import pytest
from conftest import write_linear_file

from reachmon import cli, pipeline
from reachmon.config import ExperimentConfig, load_config
from reachmon.errors import ConfigError
from reachmon.nets import load_model


def _tree_digests(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


class TestConfigPrecedence:
    @pytest.mark.parametrize("flags, want", [([], [0.01, 0.2]),
                                             (["--eps", "0.1"], [0.1])])
    def test_eval_eps_from_config_unless_flagged(self, tmp_path, monkeypatch,
                                                 flags, want):
        conf = tmp_path / "exp.conf"
        conf.write_text("eps = 0.01, 0.2\n")
        seen = {}

        def fake_eval(cfg):
            seen["eps"] = list(cfg.eps)
            return {"accuracy": 1.0, "detection_rate": 1.0, "rejection_rate": 0.0,
                    "per_eps": {e: {"coverage": 1.0, "efficiency": 1.0}
                                for e in cfg.eps}}

        monkeypatch.setattr(pipeline, "cmd_eval", fake_eval)
        code = cli.main(["eval", "--bundle", str(tmp_path / "b"),
                         "--config", str(conf), *flags])
        assert code == cli.EXIT_OK
        assert seen["eps"] == want


class TestBundleModel:
    def test_lalo_bundle_runs_every_command(self, tmp_path):
        conf = tmp_path / "small.conf"
        conf.write_text("epochs_scale = 0.05\nk_folds = 2\npool = 100\n"
                        "n_se_points = 20\n")
        data, bundle = str(tmp_path / "data"), str(tmp_path / "bundle")
        common = ["--config", str(conf)]
        assert cli.main(["gen", "--model", "lalo", "--n", "400", "--seed", "3",
                         "--out", data, *common]) == cli.EXIT_OK
        assert cli.main(["train", "--data", data, "--out", bundle,
                         "--n-train", "200", "--n-calib", "120",
                         "--n-test", "80", *common]) == cli.EXIT_OK
        with open(tmp_path / "bundle" / "bundle.json") as fh:
            meta = json.load(fh)
        trained = load_config(str(conf))
        trained.model, trained.data, trained.out = "lalo", data, bundle
        trained.n_train, trained.n_calib, trained.n_test = 200, 120, 80
        assert (meta["model"], meta["config_hash"]) == ("lalo", trained.hash())
        assert cli.main(["compare-se", "--bundle", bundle, *common]) == cli.EXIT_OK
        assert cli.main(["active", "--bundle", bundle, *common]) == cli.EXIT_OK
        csv = (tmp_path / "bundle" / "reports" / "active.csv").read_text()
        rows = csv.splitlines()[1:]
        assert rows and all(r.startswith("lalo,") for r in rows)

    def test_linear_bundle_reloads_from_another_directory(self, tmp_path,
                                                           monkeypatch):
        made, other = tmp_path / "made", tmp_path / "other"
        made.mkdir()
        other.mkdir()
        monkeypatch.chdir(made)
        write_linear_file(made / "sys.txt")
        conf = made / "small.conf"
        conf.write_text("epochs_scale = 0.02\nk_folds = 2\n")
        common = ["--config", str(conf)]
        assert cli.main(["gen", "--model", "linear:sys.txt", "--n", "400",
                         "--out", "data", *common]) == cli.EXIT_OK
        assert cli.main(["train", "--data", "data", "--out", "bundle",
                         "--n-train", "200", "--n-calib", "120",
                         "--n-test", "80", *common]) == cli.EXIT_OK
        monkeypatch.chdir(other)
        assert cli.main(["anomaly", "--bundle", str(made / "bundle"),
                         *common]) == cli.EXIT_OK


class TestActiveCheckpoint:
    @pytest.mark.parametrize("flags", [[], ["--approach", "e2e"], ["--cold"]])
    def test_checkpoint_meta_records_last_retrain(self, tmp_path, flags):
        conf = tmp_path / "small.conf"
        conf.write_text("epochs_scale = 0.05\nk_folds = 2\npool = 100\n"
                        "iters = 2\n")
        data, bundle = str(tmp_path / "data"), tmp_path / "bundle"
        common = ["--config", str(conf)]
        train_flags = [f for f in flags if f != "--cold"]
        active_flags = [f for f in flags if f == "--cold"]
        assert cli.main(["gen", "--model", "lalo", "--n", "400", "--seed", "3",
                         "--out", data, *common]) == cli.EXIT_OK
        assert cli.main(["train", "--data", data, "--out", str(bundle),
                         "--n-train", "200", "--n-calib", "120",
                         "--n-test", "80", *train_flags, *common]) == cli.EXIT_OK
        assert cli.main(["active", "--bundle", str(bundle), *active_flags,
                         *common]) == cli.EXIT_OK
        with open(bundle / "reports" / "active.json") as fh:
            retrain = json.load(fh)["history"][-1]["retrain"]
        first = load_model(str(bundle / "checkpoint")).meta
        meta = load_model(str(bundle / "active" / "checkpoint")).meta
        assert {k: meta[k] for k in retrain} == retrain
        assert meta["loss_history"] != first["loss_history"]
        assert meta["approach"] == first["approach"]


class TestTrainPreconditions:
    def test_small_calibration_split_fails_before_training(self, tmp_path,
                                                           monkeypatch):
        data = str(tmp_path / "data")
        assert cli.main(["gen", "--model", "ip", "--n", "300",
                         "--out", data]) == cli.EXIT_OK
        def no_training(*args):
            raise AssertionError("train_monitor ran before the fold check")

        monkeypatch.setattr(pipeline, "train_monitor", no_training)
        # n_calib // k_folds = 80 // 5 = 16 < MIN_FOLD_SIZE
        assert cli.main(["train", "--data", data, "--out", str(tmp_path / "b"),
                         "--n-train", "200", "--n-calib", "80",
                         "--n-test", "20"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("k_folds", [0, 1])
    def test_fewer_than_two_folds_is_a_config_error(self, tmp_path, k_folds):
        with pytest.raises(ConfigError):
            ExperimentConfig(k_folds=k_folds).validate()
        conf = tmp_path / "folds.conf"
        conf.write_text(f"k_folds = {k_folds}\n")
        assert cli.main(["gen", "--model", "ip", "--n", "10", "--config",
                         str(conf), "--out", str(tmp_path / "d")]) == cli.EXIT_CONFIG


def _rerun_digests(tmp_path, gen_args, train_args=(),
                   compare_se_code=cli.EXIT_OK):
    """Runs the six commands twice into the same paths; returns the file
    digests of both runs."""
    conf = tmp_path / "small.conf"
    conf.write_text("epochs_scale = 0.07\nk_folds = 2\npool = 100\n"
                    "n_se_points = 10\n")
    out = tmp_path / "out"
    data, bundle = str(out / "data"), str(out / "bundle")
    common = ["--config", str(conf)]
    commands = [
        (["gen", *gen_args, "--seed", "3", "--out", data], cli.EXIT_OK),
        (["train", "--data", data, "--out", bundle, "--n-train", "200",
          "--n-calib", "120", "--n-test", "80", *train_args], cli.EXIT_OK),
        (["eval", "--bundle", bundle], cli.EXIT_OK),
        (["active", "--bundle", bundle], cli.EXIT_OK),
        (["anomaly", "--bundle", bundle], cli.EXIT_OK),
        (["compare-se", "--bundle", bundle], compare_se_code),
    ]
    runs = []
    for _ in range(2):
        shutil.rmtree(out, ignore_errors=True)
        for argv, code in commands:
            assert cli.main(argv + common) == code, argv
        runs.append(_tree_digests(out))
    return runs


class TestRerun:
    def test_rerun_is_byte_identical(self, tmp_path):
        runs = _rerun_digests(tmp_path, ["--model", "lalo", "--n", "400"])
        assert len(runs[0]) > 40 and runs[0] == runs[1]

    def test_sequential_hybrid_rerun_is_byte_identical(self, tmp_path):
        # sn resets its potential through the jump rule inside the UKF
        runs = _rerun_digests(tmp_path, ["--model", "sn", "--mode", "seq",
                                         "--windows", "10", "--n", "400"])
        assert "bundle/reports/compare_se.json" in runs[0]
        assert len(runs[0]) > 40 and runs[0] == runs[1]

    def test_end_to_end_rerun_is_byte_identical(self, tmp_path):
        # an end-to-end monitor has no estimator to compare with the UKF
        runs = _rerun_digests(tmp_path, ["--model", "lalo", "--n", "400"],
                              ["--approach", "e2e"],
                              compare_se_code=cli.EXIT_CONFIG)
        assert "bundle/reports/compare_se.json" not in runs[0]
        assert len(runs[0]) > 40 and runs[0] == runs[1]
