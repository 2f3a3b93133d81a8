import dataclasses
import hashlib
import json
import math
import os
import shutil

import numpy as np
import pytest
from conftest import write_linear_file

from reachmon import active, cli, errors, get_spec, pipeline
from reachmon.config import CHOICES, RANGES, ExperimentConfig, load_config
from reachmon.data import SEQUENCE_LEN, Scaler, gen_independent, load, save, scale
from reachmon.errors import ConfigError
from reachmon.evaluate import calibration_scores
from reachmon.monitor import monitor_predict
from reachmon.nets import layers, load_model
from reachmon.ukf import relative_error


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


def _error_classes(cls=errors.ReachmonError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


# the documented exit status and stderr prefix of each error class
EXIT = {errors.ConfigError: (2, "config error: "),
        errors.InsufficientData: (2, "config error: "),
        errors.ShapeError: (2, "config error: "),
        errors.MissingArtifact: (3, "missing artifact: "),
        errors.NumericalError: (4, "numeric failure: "),
        errors.IntegrationDiverged: (4, "numeric failure: "),
        errors.FilterDiverged: (4, "numeric failure: "),
        errors.GenerationFailed: (4, "numeric failure: "),
        errors.InvalidLikelihoods: (4, "numeric failure: "),
        errors.IntegrityError: (5, "integrity failure: ")}


class TestExitStatus:
    def test_every_error_class_states_its_status(self):
        classes = list(_error_classes())
        assert set(classes) == set(EXIT)
        for cls in classes:
            assert {"exit_status", "label"} <= cls.__dict__.keys(), cls
        assert (cli.EXIT_CONFIG, cli.EXIT_MISSING, cli.EXIT_NUMERIC,
                cli.EXIT_INTEGRITY) == (2, 3, 4, 5)

    @pytest.mark.parametrize("cls", list(_error_classes()),
                             ids=lambda cls: cls.__name__)
    def test_cli_exit_status_and_prefix(self, tmp_path, monkeypatch, capsys, cls):
        def failing(cfg):
            raise cls("boom")

        monkeypatch.setattr(pipeline, "cmd_eval", failing)
        status, prefix = EXIT[cls]
        assert cli.main(["eval", "--bundle", str(tmp_path)]) == status
        assert capsys.readouterr().err == f"{prefix}boom\n"


class TestHelpDefaults:
    @pytest.mark.parametrize("argv, text", [
        (["gen", "--help"], "ind|independent|seq|sequential (default sequential)"),
        (["train", "--help"], "desk|paper (default paper)"),
        (["active", "--help"], "default 1234"),
        (["anomaly", "--help"], "comma-separated list (default 0.2,0.3)")])
    def test_help_follows_the_config_defaults(self, monkeypatch, capsys, argv,
                                              text):
        changed = ExperimentConfig(mode="sequential", profile="paper", pool=1234,
                                   eps=[0.2, 0.3])
        monkeypatch.setattr(cli, "ExperimentConfig", lambda: changed)
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert text in capsys.readouterr().out


class TestBundleModel:
    @pytest.mark.parametrize("model, gen_flags", [
        ("ip", []), ("sn", ["--mode", "seq", "--windows", "10"]), ("cvdp", []),
        ("lalo", []), ("twt", [])], ids=["ip", "sn", "cvdp", "lalo", "twt"])
    def test_bundle_runs_every_command(self, tmp_path, model, gen_flags):
        conf = tmp_path / "small.conf"
        conf.write_text("epochs_scale = 0.05\nk_folds = 2\npool = 100\n"
                        "n_se_points = 20\n")
        data, bundle = str(tmp_path / "data"), str(tmp_path / "bundle")
        common = ["--config", str(conf)]
        assert cli.main(["gen", "--model", model, *gen_flags, "--n", "400",
                         "--seed", "3", "--out", data, *common]) == cli.EXIT_OK
        assert cli.main(["train", "--data", data, "--out", bundle,
                         "--n-train", "200", "--n-calib", "120",
                         "--n-test", "80", *common]) == cli.EXIT_OK
        with open(tmp_path / "bundle" / "bundle.json") as fh:
            meta = json.load(fh)
        trained = load_config(str(conf))
        trained.model, trained.data, trained.out = model, data, bundle
        trained.n_train, trained.n_calib, trained.n_test = 200, 120, 80
        assert (meta["model"], meta["config_hash"]) == (model, trained.hash())
        for command in ("eval", "anomaly", "compare-se", "active"):
            assert cli.main([command, "--bundle", bundle, *common]) == cli.EXIT_OK
        reports = tmp_path / "bundle" / "reports"
        for name in ("eval", "anomaly", "compare_se", "active"):
            assert (reports / f"{name}.json").is_file()
        rows = (reports / "active.csv").read_text().splitlines()[1:]
        assert rows and all(r.startswith(f"{model},") for r in rows)

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


class TestCalibrationMatchesReload:
    @pytest.mark.parametrize("approach", ["two-step", "e2e"])
    def test_reloaded_monitor_reproduces_stored_scores(self, tmp_path, approach):
        # eval, active, anomaly and the verdict path use the reloaded
        # monitor; its calibration scores are the ones train stored
        conf = tmp_path / "small.conf"
        conf.write_text("epochs_scale = 0.05\nk_folds = 2\n")
        data, bundle = str(tmp_path / "data"), str(tmp_path / "bundle")
        common = ["--config", str(conf)]
        assert cli.main(["gen", "--model", "lalo", "--n", "400", "--seed", "3",
                         "--out", data, *common]) == cli.EXIT_OK
        assert cli.main(["train", "--data", data, "--out", bundle,
                         "--n-train", "200", "--n-calib", "120", "--n-test", "80",
                         "--approach", approach, *common]) == cli.EXIT_OK
        b = pipeline.Bundle(bundle)
        scores = calibration_scores(b.monitor, scale(b.calib_ds, b.scaler)).scores
        assert np.array_equal(scores, b.calib.scores)


class TestMalformedLinearFile:
    @pytest.mark.parametrize("fields", [
        {"dt": -1}, {"hp": 0}, {"noise": (-0.1,)}, {"dt": "abc"},
        {"init": [(-1e308, 1e308)]}, {"obs": ()}],
        ids=["dt-negative", "hp-zero", "noise-negative", "dt-not-a-number",
             "init-too-wide", "obs-empty"])
    def test_gen_exits_with_config_error(self, tmp_path, fields):
        path = write_linear_file(tmp_path / "f.txt", **fields)
        code = cli.main(["gen", "--model", f"linear:{path}", "--n", "10",
                         "--out", str(tmp_path / "data")])
        assert code == cli.EXIT_CONFIG


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

    def test_empty_training_split_fails_before_training(self, tmp_path,
                                                         monkeypatch, capsys):
        data = str(tmp_path / "data")
        assert cli.main(["gen", "--model", "ip", "--n", "300",
                         "--out", data]) == cli.EXIT_OK
        def no_training(*args):
            raise AssertionError("train_monitor ran on an empty training split")

        monkeypatch.setattr(pipeline, "train_monitor", no_training)
        # 250 // 5 = 50 calibration points per fold pass the fold check
        assert cli.main(["train", "--data", data, "--out", str(tmp_path / "b"),
                         "--n-train", "0", "--n-calib", "250",
                         "--n-test", "50"]) == cli.EXIT_CONFIG
        assert "n_train = 0" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_one_row_two_step_split_fails_without_a_bundle(self, tmp_path,
                                                            capsys):
        # the fine-tuning guard slice takes the only row, leaving none to
        # train on
        data = str(tmp_path / "data")
        assert cli.main(["gen", "--model", "ip", "--n", "1000",
                         "--out", data]) == cli.EXIT_OK
        assert cli.main(["train", "--data", data, "--out", str(tmp_path / "b"),
                         "--approach", "two_step", "--n-train", "1",
                         "--n-calib", "500", "--n-test", "100"]) == cli.EXIT_CONFIG
        assert "guard slice" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("k_folds", [0, 1])
    def test_fewer_than_two_folds_is_a_config_error(self, tmp_path, k_folds):
        with pytest.raises(ConfigError):
            ExperimentConfig(k_folds=k_folds).validate()
        conf = tmp_path / "folds.conf"
        conf.write_text(f"k_folds = {k_folds}\n")
        assert cli.main(["gen", "--model", "ip", "--n", "10", "--config",
                         str(conf), "--out", str(tmp_path / "d")]) == cli.EXIT_CONFIG


class TestCountsBelowOne:
    @pytest.mark.parametrize("key", ["windows_per_traj", "pool", "n_se_points"])
    def test_validate_rejects_zero(self, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: 0}).validate()

    @pytest.mark.parametrize("argv, key", [
        (["gen", "--model", "ip", "--mode", "seq", "--windows", "0",
          "--n", "100"], "windows_per_traj"),
        (["active", "--pool", "0"], "pool"),
        (["compare-se", "--n-points", "0"], "n_se_points")],
        ids=["gen-windows", "active-pool", "compare-se-points"])
    def test_cli_exits_with_config_error(self, tmp_path, capsys, argv, key):
        # the bundle does not exist: the count must be refused first
        where = "--out" if argv[0] == "gen" else "--bundle"
        assert cli.main([*argv, where, str(tmp_path / "x")]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def _lalo_bundle(root, n_test):
    """A two-step lalo bundle under ``root`` trained with ``--n-test n_test``."""
    conf = root / "small.conf"
    conf.write_text("epochs_scale = 0.05\nk_folds = 2\n")
    data, bundle = str(root / "data"), str(root / "bundle")
    assert cli.main(["gen", "--model", "lalo", "--n", "400", "--seed", "3",
                     "--out", data, "--config", str(conf)]) == cli.EXIT_OK
    assert cli.main(["train", "--data", data, "--out", bundle,
                     "--n-train", "200", "--n-calib", "120", "--n-test", str(n_test),
                     "--config", str(conf)]) == cli.EXIT_OK
    return root / "bundle"


@pytest.fixture(scope="class")
def no_test_bundle(tmp_path_factory):
    return _lalo_bundle(tmp_path_factory.mktemp("no_test"), 0)


class TestEmptyTestSplit:
    @pytest.mark.parametrize("command, message", [
        ("eval", "no regions to score"),
        ("anomaly", "nonempty test split"),
        ("compare-se", "nonempty test split")])
    def test_exits_with_config_error(self, no_test_bundle, capsys, command,
                                     message):
        assert cli.main([command, "--bundle", str(no_test_bundle)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        report = f"{command.replace('-', '_')}.json"
        assert not (no_test_bundle / "reports" / report).exists()


@pytest.fixture(scope="class")
def sn_bundle(tmp_path_factory):
    """A sequential two-step sn bundle with a test split."""
    root = tmp_path_factory.mktemp("sn")
    conf = root / "small.conf"
    conf.write_text("epochs_scale = 0.05\nk_folds = 2\npool = 100\n")
    data, bundle = str(root / "data"), str(root / "bundle")
    assert cli.main(["gen", "--model", "sn", "--mode", "seq", "--windows", "10",
                     "--n", "400", "--seed", "3", "--out", data,
                     "--config", str(conf)]) == cli.EXIT_OK
    assert cli.main(["train", "--data", data, "--out", bundle,
                     "--n-train", "200", "--n-calib", "120", "--n-test", "80",
                     "--config", str(conf)]) == cli.EXIT_OK
    return root / "bundle"


def _csv_rows(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _formatted(row):
    return {k: pipeline._fmt(v) for k, v in row.items()}


class TestReportsFromJson:
    EPS = (0.1, 0.05)

    @staticmethod
    def _flat(det):
        """A full report read back from JSON, with the ``coverage@<eps>``
        and ``efficiency@<eps>`` keys of an active-learning record."""
        return {**det, **{f"{m}@{e}": per[m] for e, per in det["per_eps"].items()
                          for m in ("coverage", "efficiency")}}

    def _rows(self, meta, doc, setting, metrics, counts=None):
        """The formatted ``REPORT_COLUMNS`` rows of one setting."""
        fn, fp = ((f"{counts[k + '_detected']}/{counts[k + '_total']}"
                   for k in ("fn", "fp")) if counts else ("-", "-"))
        return [_formatted({
            "model": meta["model"], "approach": meta["approach"],
            "setting": setting, "seed": meta["seed"], "eps": eps,
            "accuracy": metrics["accuracy"],
            "detection": metrics["detection_rate"], "fn": fn, "fp": fp,
            "rejection": metrics["rejection_rate"],
            "coverage": metrics[f"coverage@{eps}"],
            "efficiency": metrics[f"efficiency@{eps}"],
            "config_hash": doc["config_hash"],
            "code_version": doc["code_version"]}) for eps in self.EPS]

    # every sn number is 1.0 or 0.0, so only lalo tells the columns apart
    @pytest.mark.parametrize("fixture", ["sn_bundle", "lalo_bundle"])
    def test_every_csv_row_is_its_json_value(self, request, fixture):
        bundle = request.getfixturevalue(fixture)
        conf = ["--config", str(bundle.parent / "small.conf")]
        eps = ["--eps", ",".join(map(str, self.EPS))]
        for argv in (["eval", *eps], ["active", *eps, "--pool", "100"],
                     ["anomaly", *eps], ["compare-se"]):
            assert cli.main([*argv, "--bundle", str(bundle), *conf]) == cli.EXIT_OK
        reports = bundle / "reports"
        meta = json.loads((bundle / "bundle.json").read_text())
        doc = {name: json.loads((reports / f"{name}.json").read_text())
               for name in ("eval", "active", "anomaly", "compare_se")}

        det = doc["eval"]["metrics"]
        assert _csv_rows(reports / "eval.csv") == self._rows(
            meta, doc["eval"], "initial", self._flat(det), det)
        assert _csv_rows(reports / "sweep.csv") == [
            _formatted({"eps": eps, **det["per_eps"][str(eps)]})
            for eps in self.EPS]
        assert _csv_rows(reports / "anomaly.csv") == [
            row for setting in ("clean", "anomaly")
            for row in self._rows(meta, doc["anomaly"], setting,
                                  self._flat(doc["anomaly"][setting]),
                                  doc["anomaly"][setting])]
        history = doc["active"]["history"]
        assert history
        assert _csv_rows(reports / "active.csv") == [
            row for rec in history for phase in ("before", "after")
            for row in self._rows(meta, doc["active"],
                                  f"active_it{rec['iteration']}_{phase}",
                                  rec[phase])]
        se = doc["compare_se"]
        assert _csv_rows(reports / "compare_se.csv") == [_formatted({
            "model": meta["model"], "estimator": name,
            "rel_err_mean": se[f"{name}_mean"], "rel_err_std": se[f"{name}_std"],
            "n": se["n_points"], "config_hash": se["config_hash"],
            "code_version": se["code_version"]}) for name in ("nse", "ukf")]


class TestNoiseScale:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_validate_rejects_non_finite(self, value):
        with pytest.raises(ConfigError, match="noise_scale"):
            ExperimentConfig(noise_scale=float(value)).validate()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_anomaly_exits_with_config_error(self, sn_bundle, capsys, value):
        # nan < 0 is false, so a range check alone lets nan through to a
        # report built from nan observations
        assert cli.main(["anomaly", "--bundle", str(sn_bundle),
                         "--noise-scale", value]) == cli.EXIT_CONFIG
        assert "noise_scale" in capsys.readouterr().err
        assert not (sn_bundle / "reports" / "anomaly.json").exists()
        assert not (sn_bundle / "reports" / "anomaly.csv").exists()


# fields checked by ``validate`` itself, outside the CHOICES and RANGES tables
FREE_FORM = {"model", "eps", "warm", "data", "bundle", "out"}


def _out_of_range(key):
    lo, hi = RANGES[key]
    return lo - 1 if math.isfinite(lo) else hi + 1


class TestFieldTable:
    def test_every_field_is_validated(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        tables = [set(CHOICES), set(RANGES), FREE_FORM]
        assert set.union(*tables) == names
        assert sum(map(len, tables)) == len(names)   # no field in two

    def test_choices_are_canonicalised(self):
        cfg = ExperimentConfig(mode="seq", approach="e2e").validate()
        assert (cfg.mode, cfg.approach) == ("sequential", "end_to_end")
        assert cfg.hash() == ExperimentConfig(
            mode="sequential", approach="end_to_end").hash()
        with pytest.raises(ConfigError, match="profile"):
            ExperimentConfig(profile="lab").validate()

    @pytest.mark.parametrize("key, value", [
        (key, value) for key in RANGES
        for value in ("nan", "inf", repr(_out_of_range(key)))])
    def test_config_file_value_exits_with_config_error(self, tmp_path, capsys,
                                                       key, value):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"{key} = {value}\n")
        data = tmp_path / "data"
        assert cli.main(["gen", "--model", "ip", "--n", "10", "--config",
                         str(conf), "--out", str(data)]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not data.exists()

    @pytest.mark.parametrize("argv", [["--seed", "-1"], ["--config", "seed.conf"]],
                             ids=["flag", "config"])
    def test_negative_seed_exits_with_config_error(self, tmp_path, monkeypatch,
                                                   capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "seed.conf").write_text("seed = -3\n")
        assert cli.main(["gen", "--model", "ip", "--n", "10", *argv,
                         "--out", "data"]) == cli.EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("argv", [["--eps", "0.05,0.1,0.05"],
                                      ["--config", "eps.conf"]],
                             ids=["flag", "config"])
    def test_repeated_eps_exits_with_config_error(self, sn_bundle, tmp_path,
                                                  monkeypatch, capsys, argv):
        # a repeated value printed, and wrote, every report row twice
        monkeypatch.chdir(tmp_path)
        (tmp_path / "eps.conf").write_text("eps = 0.05, 0.05\n")
        assert cli.main(["eval", "--bundle", str(sn_bundle),
                         *argv]) == cli.EXIT_CONFIG
        assert "eps" in capsys.readouterr().err
        assert not (sn_bundle / "reports").exists()


@pytest.fixture(scope="class")
def ip_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("ip") / "data"
    assert cli.main(["gen", "--model", "ip", "--n", "300",
                     "--out", str(data)]) == cli.EXIT_OK
    return data


class TestDefect8:
    # these values passed validate and ended the command in an uncaught
    # ValueError from int() of a nan or a negative epoch count
    @pytest.mark.parametrize("line", ["epochs_scale = nan", "epochs_scale = -1"])
    def test_train_exits_with_config_error(self, ip_data, tmp_path, capsys, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"k_folds = 2\n{line}\n")
        bundle = tmp_path / "b"
        assert cli.main(["train", "--data", str(ip_data), "--out", str(bundle),
                         "--n-train", "200", "--n-calib", "80", "--n-test", "20",
                         "--config", str(conf)]) == cli.EXIT_CONFIG
        assert "epochs_scale" in capsys.readouterr().err
        assert not bundle.exists()

    @pytest.mark.parametrize("line, key", [("split_fraction = nan", "split_fraction"),
                                           ("epochs_scale = nan", "epochs_scale")])
    def test_active_exits_with_config_error(self, sn_bundle, tmp_path, capsys,
                                            line, key):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"pool = 100\n{line}\n")
        assert cli.main(["active", "--bundle", str(sn_bundle),
                         "--config", str(conf)]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (sn_bundle / "active").exists()
        assert not (sn_bundle / "reports" / "active.json").exists()

    @pytest.mark.parametrize("argv", [["--eps", ","], ["--config", "eps.conf"]],
                             ids=["flag", "config"])
    def test_empty_eps_list_exits_with_config_error(self, sn_bundle, tmp_path,
                                                    monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "eps.conf").write_text("eps =\n")
        assert cli.main(["eval", "--bundle", str(sn_bundle),
                         *argv]) == cli.EXIT_CONFIG
        assert "eps" in capsys.readouterr().err
        for report in ("eval.csv", "sweep.csv", "eval.json"):
            assert not (sn_bundle / "reports" / report).exists()


class TestMalformedCheckpoint:
    def test_eval_exits_with_integrity_error(self, sn_bundle, tmp_path, capsys):
        # a checkpoint short of one array ended eval in an uncaught
        # ValueError from zip()
        bundle = tmp_path / "bundle"
        shutil.copytree(sn_bundle, bundle)
        meta_path = bundle / "checkpoint" / "meta.json"
        doc = json.loads(meta_path.read_text())
        del doc["arrays"][sorted(doc["arrays"])[-1]]
        meta_path.write_text(json.dumps(doc))
        assert cli.main(["eval", "--bundle", str(bundle)]) == cli.EXIT_INTEGRITY
        assert "do not match the netspecs" in capsys.readouterr().err
        assert not (bundle / "reports").exists()

    # each ended eval in an uncaught KeyError
    @pytest.mark.parametrize("key", ["netspecs", "monitor_kind", "train_meta"])
    def test_missing_meta_key(self, sn_bundle, tmp_path, capsys, key):
        bundle = tmp_path / "bundle"
        shutil.copytree(sn_bundle, bundle)
        meta_path = bundle / "checkpoint" / "meta.json"
        doc = json.loads(meta_path.read_text())
        del doc["meta"][key]
        meta_path.write_text(json.dumps(doc))
        assert cli.main(["eval", "--bundle", str(bundle)]) == cli.EXIT_INTEGRITY
        assert f"missing key {key!r}" in capsys.readouterr().err
        assert not (bundle / "reports").exists()


class TestMalformedDataset:
    # the checksum covers the array bytes, not their meta.json entries; each
    # of the first four edits ended train in an uncaught ValueError,
    # KeyError or IndexError
    @pytest.mark.parametrize("name, edit", [
        ("obs", lambda e: e.update(shape=[3, 2, 1])),
        ("obs", lambda e: e.update(dtype="float16")),
        ("labels", None),
        ("labels", lambda e: e.update(shape=[e["shape"][0], 2])),
        # the bytes fit, but N, then L, disagree with the other arrays
        ("obs", lambda e: e.update(shape=[e["shape"][0] * e["shape"][1], 1,
                                          e["shape"][2]])),
        ("states", lambda e: e.update(shape=[e["shape"][0],
                                             e["shape"][1] * e["shape"][2], 1])),
    ], ids=["obs-shape", "obs-dtype", "labels-deleted", "labels-shape",
            "obs-n", "states-l"])
    def test_train_exits_with_integrity_error(self, ip_data, tmp_path, capsys,
                                              name, edit):
        data = tmp_path / "data"
        shutil.copytree(ip_data, data)
        doc = json.loads((data / "meta.json").read_text())
        if edit is None:
            del doc["arrays"][name]
        else:
            edit(doc["arrays"][name])
        (data / "meta.json").write_text(json.dumps(doc))
        conf = tmp_path / "small.conf"
        conf.write_text("k_folds = 2\n")
        bundle = tmp_path / "b"
        assert cli.main(["train", "--data", str(data), "--out", str(bundle),
                         "--n-train", "180", "--n-calib", "100", "--n-test", "20",
                         "--config", str(conf)]) == cli.EXIT_INTEGRITY
        assert "integrity failure" in capsys.readouterr().err
        assert not bundle.exists()

    # each ended train in an uncaught UnicodeDecodeError or AttributeError
    @pytest.mark.parametrize("edit", [lambda text: b"\xff" + text,
                                      lambda text: b"[]"],
                             ids=["not-utf8", "not-an-object"])
    def test_meta_not_a_json_object(self, ip_data, tmp_path, capsys, edit):
        data = tmp_path / "data"
        shutil.copytree(ip_data, data)
        (data / "meta.json").write_bytes(edit((data / "meta.json").read_bytes()))
        conf = tmp_path / "small.conf"
        conf.write_text("k_folds = 2\n")
        bundle = tmp_path / "b"
        assert cli.main(["train", "--data", str(data), "--out", str(bundle),
                         "--n-train", "180", "--n-calib", "100", "--n-test", "20",
                         "--config", str(conf)]) == cli.EXIT_INTEGRITY
        assert "meta.json" in capsys.readouterr().err
        assert not bundle.exists()

    # defect 13: a bad seed or scaler ended train in an uncaught ValueError
    # or TypeError, a float seed was saved truncated, and a bad mode or model
    # name wrote a bundle that eval then rejected
    @pytest.mark.parametrize("key, value", [
        ("seed", "abc"), ("seed", None), ("seed", 1.5), ("scaler", {"foo": 1}),
        ("mode", "foo"), ("model_name", 5)],
        ids=["seed-str", "seed-null", "seed-float", "scaler", "mode", "model_name"])
    def test_bad_meta_value(self, ip_data, tmp_path, capsys, key, value):
        data = tmp_path / "data"
        shutil.copytree(ip_data, data)
        doc = json.loads((data / "meta.json").read_text())
        doc["meta"][key] = value
        (data / "meta.json").write_text(json.dumps(doc))
        assert self._train(data, tmp_path) == cli.EXIT_INTEGRITY
        assert "integrity failure" in capsys.readouterr().err

    def test_scaled_dataset_is_a_config_error(self, ip_data, tmp_path, capsys):
        # it ended train in an uncaught ``ValueError: dataset is already scaled``
        ds = load(ip_data)
        save(scale(ds, Scaler.fit(ds)), tmp_path / "data")
        assert self._train(tmp_path / "data", tmp_path) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @staticmethod
    def _train(data, tmp_path):
        """The exit status of a small ``train`` on ``data``, which must
        leave no bundle."""
        conf = tmp_path / "small.conf"
        conf.write_text("k_folds = 2\n")
        bundle = tmp_path / "b"
        status = cli.main(["train", "--data", str(data), "--out", str(bundle),
                           "--n-train", "180", "--n-calib", "100", "--n-test", "20",
                           "--config", str(conf)])
        assert not bundle.exists()
        return status

    # a meta.json key the container, dataset or checkpoint loader reads
    # ended the command in an uncaught KeyError
    @pytest.mark.parametrize("path, key", [
        (("arrays", "obs"), "sha256"), (("arrays", "obs"), "file"),
        (("meta",), "model_name"), ((), "arrays"), ((), "meta")],
        ids=["obs-sha256", "obs-file", "model_name", "arrays", "meta"])
    def test_missing_meta_key(self, ip_data, tmp_path, capsys, path, key):
        data = tmp_path / "data"
        shutil.copytree(ip_data, data)
        doc = json.loads((data / "meta.json").read_text())
        entry = doc
        for part in path:
            entry = entry[part]
        del entry[key]
        (data / "meta.json").write_text(json.dumps(doc))
        conf = tmp_path / "small.conf"
        conf.write_text("k_folds = 2\n")
        bundle = tmp_path / "b"
        assert cli.main(["train", "--data", str(data), "--out", str(bundle),
                         "--n-train", "180", "--n-calib", "100", "--n-test", "20",
                         "--config", str(conf)]) == cli.EXIT_INTEGRITY
        assert f"missing key {key!r}" in capsys.readouterr().err
        assert not bundle.exists()


class TestMalformedBundleJson:
    # a truncated bundle.json ended the command in an uncaught
    # JSONDecodeError, and a missing key in an uncaught KeyError
    @pytest.mark.parametrize("command", ["eval", "compare-se"])
    @pytest.mark.parametrize("key", [
        pytest.param(None, id="truncated"), "scaler", "rule", "model", "mode",
        "approach", "profile", "seed"])
    def test_exits_with_integrity_error(self, sn_bundle, tmp_path, capsys,
                                        command, key):
        bundle = tmp_path / "bundle"
        shutil.copytree(sn_bundle, bundle)
        meta_path = bundle / "bundle.json"
        text = meta_path.read_text()
        if key is None:
            meta_path.write_text(text[:len(text) // 2])
        else:
            doc = json.loads(text)
            del doc[key]
            meta_path.write_text(json.dumps(doc))
        assert cli.main([command, "--bundle", str(bundle)]) == cli.EXIT_INTEGRITY
        err = capsys.readouterr().err
        assert "bundle.json" in err
        assert key is None or f"missing key {key!r}" in err
        assert not (bundle / "reports").exists()

    # the first three ended eval in an uncaught TypeError, KeyError and
    # ValueError; the last three ran and exited 0
    @pytest.mark.parametrize("key, value", [
        ("scaler", {}), ("rule", {}), ("seed", "abc"), ("seed", "3"),
        ("mode", "diagonal"), ("model", 5)],
        ids=["scaler-empty", "rule-empty", "seed-abc", "seed-str", "mode",
             "model-number"])
    def test_bad_value_exits_with_integrity_error(self, sn_bundle, tmp_path,
                                                  capsys, key, value):
        bundle = tmp_path / "bundle"
        shutil.copytree(sn_bundle, bundle)
        meta_path = bundle / "bundle.json"
        doc = json.loads(meta_path.read_text())
        doc[key] = value
        meta_path.write_text(json.dumps(doc))
        assert cli.main(["eval", "--bundle", str(bundle)]) == cli.EXIT_INTEGRITY
        assert "bundle.json" in capsys.readouterr().err
        assert not (bundle / "reports").exists()


    # defect 11: eval ended the first two in an uncaught TypeError and
    # ValueError and the third in a config error (exit 2); compare-se ran
    # the fourth and reported a wrong nse_mean with exit 0
    @pytest.mark.parametrize("command", ["eval", "compare-se"])
    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(seed=3.5),
        lambda doc: doc["rule"].update(w=doc["rule"]["w"][:1]),
        lambda doc: doc["scaler"].update(obs_min=doc["scaler"]["obs_min"] + [0, 0]),
        lambda doc: doc["scaler"].update(state_min=doc["scaler"]["state_min"][:1])],
        ids=["seed-float", "rule-w-short", "obs_min-long", "state_min-short"])
    def test_bad_length_or_type_exits_with_integrity_error(
            self, sn_bundle, tmp_path, capsys, command, edit):
        bundle = tmp_path / "bundle"
        shutil.copytree(sn_bundle, bundle)
        meta_path = bundle / "bundle.json"
        doc = json.loads(meta_path.read_text())
        edit(doc)
        meta_path.write_text(json.dumps(doc))
        assert cli.main([command, "--bundle", str(bundle)]) == cli.EXIT_INTEGRITY
        assert "bundle.json" in capsys.readouterr().err
        assert not (bundle / "reports").exists()

    def test_end_to_end_state_length_checked(self, ip_data, tmp_path, capsys):
        # an end-to-end checkpoint has no state channels; the train split has
        bundle = tmp_path / "bundle"
        conf = tmp_path / "small.conf"
        conf.write_text("epochs_scale = 0.05\nk_folds = 2\n")
        assert cli.main(["train", "--data", str(ip_data), "--out", str(bundle),
                         "--n-train", "180", "--n-calib", "100", "--n-test", "20",
                         "--approach", "e2e", "--config", str(conf)]) == cli.EXIT_OK
        meta_path = bundle / "bundle.json"
        doc = json.loads(meta_path.read_text())
        doc["scaler"]["state_max"] = doc["scaler"]["state_max"][:1]
        meta_path.write_text(json.dumps(doc))
        assert cli.main(["eval", "--bundle", str(bundle)]) == cli.EXIT_INTEGRITY
        assert "state_max" in capsys.readouterr().err


class TestActivePool:
    """Defect 12: the pool is drawn at the seq_len of the bundle's data."""

    @staticmethod
    def _pool(tmp_path, monkeypatch, seq_len, edit=None):
        """The first pool ``active`` draws on an ip bundle whose data was
        generated at ``seq_len``; ``edit`` changes each split's meta."""
        conf = tmp_path / "small.conf"
        conf.write_text(f"epochs_scale = 0.05\nk_folds = 2\npool = 60\n"
                        f"seq_len = {seq_len}\n")
        data, bundle = str(tmp_path / "data"), tmp_path / "bundle"
        common = ["--config", str(conf)]
        assert cli.main(["gen", "--model", "ip", "--n", "300", "--out", data,
                         *common]) == cli.EXIT_OK
        assert cli.main(["train", "--data", data, "--out", str(bundle),
                         "--n-train", "180", "--n-calib", "100",
                         "--n-test", "20", *common]) == cli.EXIT_OK
        for split in ("train", "calib", "test") if edit else ():
            meta = bundle / "datasets" / split / "meta.json"
            doc = json.loads(meta.read_text())
            edit(doc["meta"])
            meta.write_text(json.dumps(doc))
        pools, real = [], pipeline.al_iteration

        def capture(state, pool, *args, **kwargs):
            pools.append(pool)
            return real(state, pool, *args, **kwargs)

        monkeypatch.setattr(pipeline, "al_iteration", capture)
        assert cli.main(["active", "--bundle", str(bundle), *common]) == cli.EXIT_OK
        seed = int(np.random.default_rng([0, 0x504F4F, 0]).integers(2 ** 31))
        return pools[0], seed

    def test_gen_records_seq_len(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("seq_len = 8\n")
        for name, flags in (("ind", []), ("seq", ["--mode", "seq", "--windows", "5"])):
            out = tmp_path / name
            assert cli.main(["gen", "--model", "ip", "--n", "10", *flags, "--out",
                             str(out), "--config", str(conf)]) == cli.EXIT_OK
            meta = json.loads((out / "meta.json").read_text())["meta"]
            assert {k: meta.get(k) for k in ("seq_len", "windows_per_traj", "retries")} \
                == {"seq_len": 8, "windows_per_traj": 5 if flags else None, "retries": 0}

    def test_pool_drawn_at_dataset_seq_len(self, tmp_path, monkeypatch):
        pool, seed = self._pool(tmp_path, monkeypatch, 8)
        want = gen_independent(get_spec("ip"), 60, seq_len=8, seed=seed)
        for key in ("obs", "states", "labels", "modes"):
            assert np.array_equal(getattr(pool, key), getattr(want, key)), key
        assert not np.array_equal(
            pool.states, gen_independent(get_spec("ip"), 60, seed=seed).states)

    def test_missing_seq_len_reads_as_32(self, tmp_path, monkeypatch):
        pool, seed = self._pool(tmp_path, monkeypatch, 8,
                                edit=lambda meta: meta.pop("seq_len"))
        want = gen_independent(get_spec("ip"), 60, seq_len=SEQUENCE_LEN, seed=seed)
        assert np.array_equal(pool.obs, want.obs)


class TestMalformedCalibration:
    # the first, second and last ended eval in an uncaught KeyError,
    # AttributeError and TypeError; the third ran and exited 0
    @pytest.mark.parametrize("edit", [
        lambda doc: doc["arrays"].pop("scores"),
        lambda doc: doc.update(arrays=[]),
        lambda doc: doc.update(meta=[]),
        lambda doc: doc["arrays"].update(scores=5)],
        ids=["scores-deleted", "arrays-list", "meta-list", "entry-number"])
    def test_eval_exits_with_integrity_error(self, sn_bundle, tmp_path, capsys,
                                             edit):
        bundle = tmp_path / "bundle"
        shutil.copytree(sn_bundle, bundle)
        meta_path = bundle / "calibration" / "meta.json"
        doc = json.loads(meta_path.read_text())
        edit(doc)
        meta_path.write_text(json.dumps(doc))
        assert cli.main(["eval", "--bundle", str(bundle)]) == cli.EXIT_INTEGRITY
        assert "calibration" in capsys.readouterr().err
        assert not (bundle / "reports").exists()


@pytest.fixture(scope="class")
def lalo_bundle(tmp_path_factory):
    return _lalo_bundle(tmp_path_factory.mktemp("lalo"), 80)


class TestCompareSE:
    def test_classifier_does_not_run(self, lalo_bundle, monkeypatch):
        # the estimator is all convolutions; only the classifier has dense
        # layers
        def no_dense(*args, **kwargs):
            raise AssertionError("compare-se ran a dense layer")

        monkeypatch.setattr(layers.Dense, "forward", no_dense)
        assert cli.main(["compare-se", "--bundle", str(lalo_bundle),
                         "--n-points", "30"]) == cli.EXIT_OK

    def test_nse_error_matches_monitor_predict(self, lalo_bundle):
        assert cli.main(["compare-se", "--bundle", str(lalo_bundle),
                         "--n-points", "30"]) == cli.EXIT_OK
        report = json.loads((lalo_bundle / "reports" / "compare_se.json").read_text())
        b = pipeline.Bundle(str(lalo_bundle))
        subset = b.test_ds.subset(np.arange(report["n_points"]))
        states_hat = monitor_predict(b.monitor, scale(subset, b.scaler))["states_hat"]
        err = relative_error(subset.states.astype(np.float64),
                             b.scaler.unscale_states(states_hat.transpose(0, 2, 1)),
                             b.scaler.state_ranges())
        assert report["n_points"] == 30
        assert (report["nse_mean"], report["nse_std"]) == (float(err.mean()),
                                                           float(err.std()))


class TestActiveReusesMetrics:
    def test_before_is_previous_after(self, tmp_path, monkeypatch):
        conf = tmp_path / "small.conf"
        conf.write_text("epochs_scale = 0.05\nk_folds = 2\npool = 100\n"
                        "iters = 2\n")
        data, made = str(tmp_path / "data"), tmp_path / "made"
        common = ["--config", str(conf)]
        assert cli.main(["gen", "--model", "lalo", "--n", "400", "--seed", "3",
                         "--out", data, *common]) == cli.EXIT_OK
        assert cli.main(["train", "--data", data, "--out", str(made),
                         "--n-train", "200", "--n-calib", "120",
                         "--n-test", "80", *common]) == cli.EXIT_OK
        calls = []
        real_report = active.full_report

        def counted(*args, **kwargs):
            calls.append(1)
            return real_report(*args, **kwargs)

        monkeypatch.setattr(active, "full_report", counted)
        real_iteration = pipeline.al_iteration

        def recomputing(state, *args, **kwargs):
            # an empty history makes the round score its monitor afresh
            done, state.history = state.history, []
            state = real_iteration(state, *args, **kwargs)
            state.history = done + state.history
            return state

        outputs = {}
        bundle = tmp_path / "bundle"   # one path: the report records it
        for name, iteration in (("reused", real_iteration),
                                ("recomputed", recomputing)):
            shutil.rmtree(bundle, ignore_errors=True)
            shutil.copytree(made, bundle)
            monkeypatch.setattr(pipeline, "al_iteration", iteration)
            calls.clear()
            assert cli.main(["active", "--bundle", str(bundle),
                             *common]) == cli.EXIT_OK
            outputs[name] = (len(calls),
                             (bundle / "reports" / "active.json").read_bytes())
        history = json.loads(outputs["reused"][1])["history"]
        assert len(history) == 2 and history[1]["n_selected"] > 0
        assert history[1]["before"] == history[0]["after"]
        assert (outputs["reused"][0], outputs["recomputed"][0]) == (3, 4)
        assert outputs["reused"][1] == outputs["recomputed"][1]


class TestGenSeqLen:
    def test_shorter_than_window_is_a_config_error(self, tmp_path, capsys):
        conf = tmp_path / "short.conf"
        conf.write_text("seq_len = 1\n")   # ip windows are 2 steps long
        data = tmp_path / "data"
        assert cli.main(["gen", "--model", "ip", "--n", "10", "--config",
                         str(conf), "--out", str(data)]) == cli.EXIT_CONFIG
        assert "seq_len" in capsys.readouterr().err
        assert not data.exists()


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
