import json

import pytest

from reachmon import cli, pipeline
from reachmon.config import load_config


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
