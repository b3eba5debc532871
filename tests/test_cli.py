import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import run_in_fresh_interpreter
from tcmnet.cli import main
from tcmnet.config import RunConfig, apply_override
from tcmnet.data import SPLITS, read_features, read_split, write_features
from tcmnet.experiments import VARIANTS, run_variant
from tcmnet.model import Model, ModelConfig
from tcmnet.tensor import ConfigError
from tcmnet.train import load_checkpoint


@pytest.fixture
def tiny_config(tmp_path):
    doc = {
        "corpus": {
            "n_train": 12, "n_dev": 6, "n_eval": 8, "feature_dim": 6,
            "t_min": 8, "t_max": 12, "band_width": 2, "seg_len": 4,
            "amplitude": 2.0, "seed": 5,
        },
        "model": {
            "dim": 8, "heads": 2, "blocks": 1, "conv_kernel": 3,
            "dropout": 0.0,
        },
        "train": {
            "lr": 1e-3, "batch_size": 4, "max_epochs": 2, "target_T": 10,
            "seed": 1,
        },
        "tdcf": {"c0": 0.0, "c1": 1.0, "c2": 1.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _dir_bytes(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


def test_importing_the_cli_does_not_load_scipy_signal():
    # a fresh interpreter: scipy.signal alone would add about 50 MB of
    # resident memory and half a second to every process start
    code = "import sys, tcmnet.cli, tcmnet.experiments; print('scipy.signal' in sys.modules)"
    assert run_in_fresh_interpreter(code) == "False\n"


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"corpus": {"n_trian": 3}}))
    with pytest.raises(ConfigError, match="n_trian"):
        RunConfig.load(path)
    path.write_text(json.dumps({"corpsu": {}}))
    with pytest.raises(ConfigError, match="corpsu"):
        RunConfig.load(path)
    path.write_text(json.dumps({"eval": {"mode": "fixed", "jobs": 4}}))
    with pytest.raises(ConfigError, match="jobs"):
        RunConfig.load(path)


def test_config_non_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(ConfigError) as info:
        RunConfig.load(path)
    assert str(path) in str(info.value)
    assert main(["params", "--config", str(path)]) == 1
    assert f"error: {path}: invalid JSON" in capsys.readouterr().err


def test_config_overrides():
    doc = {"train": {"seed": 1}}
    apply_override(doc, "train.seed=9")
    apply_override(doc, "model.toggles.use_tcm=false")
    assert doc["train"]["seed"] == 9
    assert doc["model"]["toggles"]["use_tcm"] is False
    with pytest.raises(ConfigError):
        apply_override(doc, "nonsense")
    with pytest.raises(ConfigError):
        apply_override(doc, "model.bogus=1")


@pytest.mark.parametrize("override", ["corpus.n_train=abc", "model.dim=8.0",
                                      "model.heads=true", "corpus.feature_dim=6.5"])
def test_a_value_of_the_wrong_type_names_its_key(tiny_config, capsys, override):
    key = override.split("=")[0]
    assert main(["params", "--config", str(tiny_config), "--set", override]) == 1
    assert f"error: config key {key} must be an integer, got" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=key):
        apply_override({}, override)


@pytest.mark.parametrize("command, override", [
    ("params", "model.conv_kernel=-1"), ("train", "model.dim=0"),
    ("train", "model.ffn_expansion=0"), ("train", "train.seed=-1"),
    ("gen-data", "corpus.seed=-2"), ("train", "train.weight_decay=-0.5"),
    ("eval", "tdcf.c0=NaN"), ("train", "train.lr=NaN"),
    ("train", "train.class_weights=[1, Infinity]"), ("gen-data", "corpus.pattern_seed=-1"),
    ("train", "eval.mode=bogus"), ("gen-data", "corpus.noise_scale=NaN"),
])
def test_an_out_of_range_value_names_its_field(trained, tmp_path, capsys, command,
                                               override):
    config, data_dir, run_dir = trained
    args = {"params": [], "gen-data": [], "train": ["--data-dir", str(data_dir)],
            "eval": ["--data-dir", str(data_dir), "--checkpoint",
                     str(run_dir / "final.ckpt")]}[command]
    if command != "params":
        args += ["--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert main([command, "--config", str(config), *args, "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert override.split("=")[0].split(".")[-1] in err
    assert "Traceback" not in err


def test_config_value_types():
    ok = {"train": {"lr": 1, "class_weights": [1, 2.5]},
          "model": {"dropout": 0, "toggles": {"use_tcm": False}},
          "corpus": {"amplitude": 2}, "eval": {"mode": "variable"}}
    RunConfig(ok)
    for section, key, value in [
        ("train", "class_weights", [1.0, True]), ("train", "class_weights", 2.0),
        ("train", "class_weights", "1,1"), ("train", "seed", False),
        ("train", "lr", "0.1"), ("model", "block_kind", 1), ("eval", "mode", None),
        ("tdcf", "c1", [1.0]),
    ]:
        with pytest.raises(ConfigError, match=f"config key {section}.{key} must be"):
            RunConfig({section: {key: value}})
    with pytest.raises(ConfigError, match="model.toggles.ht_in_mhsa must be true or false"):
        RunConfig({"model": {"toggles": {"ht_in_mhsa": 0}}})


def test_gen_data_deterministic_and_force(tiny_config, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["gen-data", "--config", str(tiny_config), "--out-dir", str(out1)]) == 0
    assert main(["gen-data", "--config", str(tiny_config), "--out-dir", str(out2)]) == 0
    assert _dir_bytes(out1) == _dir_bytes(out2)
    # refusal without --force, success with it
    assert main(["gen-data", "--config", str(tiny_config), "--out-dir", str(out1)]) == 1
    assert main(["gen-data", "--config", str(tiny_config), "--out-dir", str(out1),
                 "--force"]) == 0


def test_gen_data_invalid_count(tiny_config, tmp_path):
    out = tmp_path / "d"
    code = main(["gen-data", "--config", str(tiny_config), "--out-dir", str(out),
                 "--set", "corpus.n_train=0"])
    assert code == 1


def test_rerun_from_echo_reproduces(tiny_config, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    main(["gen-data", "--config", str(tiny_config), "--out-dir", str(out1)])
    echo = out1 / "resolved_config.json"
    main(["gen-data", "--config", str(echo), "--out-dir", str(out2)])
    assert _dir_bytes(out1) == _dir_bytes(out2)


def test_echo_without_model_section_holds_the_model_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": {"n_train": 2, "n_dev": 1, "n_eval": 1,
                                           "feature_dim": 4, "t_min": 3, "t_max": 3,
                                           "band_width": 2, "seg_len": 2}}))
    out = tmp_path / "d"
    assert main(["gen-data", "--config", str(path), "--out-dir", str(out)]) == 0
    echo = json.loads((out / "resolved_config.json").read_text())
    defaults = ModelConfig(feature_dim=4)
    for key in ("dim", "heads", "blocks"):
        assert echo["model"][key] == getattr(defaults, key), key
    assert "feature_dim" not in echo["model"]
    reloaded = RunConfig.load(out / "resolved_config.json")
    assert reloaded.model_config(4) == RunConfig.load(path).model_config(4)


@pytest.fixture
def trained(tiny_config, tmp_path):
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"
    assert main(["gen-data", "--config", str(tiny_config), "--out-dir",
                 str(data_dir)]) == 0
    assert main(["train", "--config", str(tiny_config), "--data-dir",
                 str(data_dir), "--out-dir", str(run_dir)]) == 0
    return tiny_config, data_dir, run_dir


def test_train_outputs(trained):
    _, _, run_dir = trained
    assert (run_dir / "final.ckpt").exists()
    epochs = sorted(run_dir.glob("epoch_*.ckpt"))
    assert len(epochs) == 2  # max_epochs=2, no early stop possible
    log = [json.loads(line) for line in
           (run_dir / "train_log.jsonl").read_text().splitlines()]
    assert [rec["epoch"] for rec in log] == [1, 2]
    for rec in log:
        assert set(rec) == {"epoch", "train_loss", "val_loss"}


def test_train_reproducible(trained, tmp_path):
    cfg, data_dir, run_dir = trained
    run2 = tmp_path / "run2"
    assert main(["train", "--config", str(cfg), "--data-dir", str(data_dir),
                 "--out-dir", str(run2)]) == 0
    a = load_checkpoint(run_dir / "final.ckpt")
    b = load_checkpoint(run2 / "final.ckpt")
    assert a.inventory == b.inventory
    assert a.flat.tobytes() == b.flat.tobytes()


def test_eval_command(trained, tmp_path, capsys):
    _, data_dir, run_dir = trained
    out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data-dir", str(data_dir), "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["eer"] <= 1.0
    assert report["min_tdcf"] is not None
    scored_ids = {line.split()[0] for line in
                  (out / "scores.txt").read_text().splitlines()}
    protocol_ids = {line.split()[0] for line in
                    (data_dir / "eval" / "protocol.txt").read_text().splitlines()}
    assert scored_ids == protocol_ids


def test_eval_variable_mode_covers_all_ids(trained, tmp_path):
    _, data_dir, run_dir = trained
    out = tmp_path / "eval_var"
    assert main(["eval", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data-dir", str(data_dir), "--out-dir", str(out),
                 "--mode", "variable"]) == 0
    assert len((out / "scores.txt").read_text().splitlines()) == 8


def test_eval_reproduces_logged_val_loss(trained, tmp_path):
    _, data_dir, run_dir = trained
    log = [json.loads(line) for line in
           (run_dir / "train_log.jsonl").read_text().splitlines()]
    last = log[-1]
    out = tmp_path / "eval_dev"
    assert main(["eval", "--checkpoint",
                 str(run_dir / f"epoch_{last['epoch']:03d}.ckpt"),
                 "--data-dir", str(data_dir), "--out-dir", str(out),
                 "--split", "dev", "--mode", "fixed"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mean_loss"] == pytest.approx(last["val_loss"], abs=1e-12)


def test_eval_with_the_training_config_reproduces_logged_val_loss(tiny_config, tmp_path):
    # five dev utterances cannot split evenly, so their inverse class
    # frequencies differ from the training weights the logged loss used
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    small_dev = ["--set", "corpus.n_dev=5"]
    assert main(["gen-data", "--config", str(tiny_config), "--out-dir", str(data_dir),
                 *small_dev]) == 0
    assert main(["train", "--config", str(tiny_config), "--data-dir", str(data_dir),
                 "--out-dir", str(run_dir), *small_dev]) == 0
    last = json.loads((run_dir / "train_log.jsonl").read_text().splitlines()[-1])
    for config in ([], ["--config", str(tiny_config), *small_dev]):
        out = tmp_path / f"eval_{len(config)}"
        assert main(["eval", *config, "--checkpoint",
                     str(run_dir / f"epoch_{last['epoch']:03d}.ckpt"),
                     "--data-dir", str(data_dir), "--out-dir", str(out),
                     "--split", "dev", "--mode", "fixed"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mean_loss"] == pytest.approx(last["val_loss"], abs=1e-12), config


@pytest.mark.parametrize("override, key", [("model.dim=16", "model.dim"),
                                           ("model.toggles.use_tcm=false",
                                            "model.toggles.use_tcm")])
def test_eval_refuses_a_model_key_that_contradicts_the_checkpoint(
        trained, tmp_path, capsys, override, key):
    config, data_dir, run_dir = trained
    out = tmp_path / "e"
    capsys.readouterr()
    assert main(["eval", "--config", str(config), "--checkpoint",
                 str(run_dir / "final.ckpt"), "--data-dir", str(data_dir),
                 "--out-dir", str(out), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key} ")
    assert not out.exists()


def test_eval_without_config_applies_every_set(trained, tmp_path):
    _, data_dir, run_dir = trained
    out = tmp_path / "e"
    assert main(["eval", "--checkpoint", str(run_dir / "final.ckpt"), "--data-dir",
                 str(data_dir), "--out-dir", str(out), "--set", "eval.mode=variable",
                 "--set", "train.target_T=5"]) == 0
    assert json.loads((out / "report.json").read_text())["mode"] == "variable"
    echo = json.loads((out / "resolved_config.json").read_text())
    assert echo["eval"]["mode"] == "variable" and echo["train"]["target_T"] == 5


@pytest.mark.parametrize("override, error", [
    ("bogus.key=1", "error: unknown config key 'bogus'"),
    ("model.dim=16", "error: config key model.dim is 16, but the checkpoint's model has 8"),
], ids=["bogus.key", "model.dim"])
def test_eval_without_config_refuses_a_bad_set(trained, tmp_path, capsys, override, error):
    _, data_dir, run_dir = trained
    out = tmp_path / "e"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run_dir / "final.ckpt"), "--data-dir",
                 str(data_dir), "--out-dir", str(out), "--set", override]) == 1
    assert capsys.readouterr().err.startswith(error)
    assert not out.exists()


@pytest.mark.parametrize("command, split", [("train", "dev"), ("ablate", "eval"),
                                            ("eval", "eval")])
def test_a_split_of_another_feature_dim_is_refused_before_any_run(
        trained, tmp_path, capsys, monkeypatch, command, split):
    config, data_dir, run_dir = trained
    other = tmp_path / "other"
    assert main(["gen-data", "--config", str(config), "--out-dir", str(other),
                 "--set", "corpus.feature_dim=4"]) == 0
    shutil.rmtree(data_dir / split)
    shutil.copytree(other / split, data_dir / split)
    source = {"eval": f"checkpoint {run_dir / 'final.ckpt'}"}.get(
        command, f"split directory {data_dir / 'train'}")
    args = {"eval": ["--checkpoint", str(run_dir / "final.ckpt")]}.get(
        command, ["--config", str(config)])
    forwards = []
    monkeypatch.setattr(Model, "forward_batch", lambda *a, **k: forwards.append(a))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, *args, "--data-dir", str(data_dir), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: split directory {data_dir / split} has "
                                       f"feature dim 4, but {source} has 6\n")
    assert forwards == [] and not out.exists()


@pytest.mark.parametrize("model_section", [True, False])
def test_eval_echo_describes_the_checkpoint_model(trained, tmp_path, model_section):
    config, data_dir, run_dir = trained
    doc = json.loads(config.read_text())
    if not model_section:  # the defaults would describe a dim-32, 2-block model
        del doc["model"]
    path = tmp_path / "eval_config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "e"
    assert main(["eval", "--config", str(path), "--checkpoint",
                 str(run_dir / "final.ckpt"), "--data-dir", str(data_dir),
                 "--out-dir", str(out)]) == 0
    echo = json.loads((out / "resolved_config.json").read_text())
    assert echo["model"] == load_checkpoint(run_dir / "final.ckpt").config_echo["model"]


def test_train_drops_an_earlier_runs_epoch_checkpoints(tiny_config, tmp_path):
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    assert main(["gen-data", "--config", str(tiny_config), "--out-dir",
                 str(data_dir)]) == 0
    for epochs in (3, 1):
        assert main(["train", "--config", str(tiny_config), "--data-dir", str(data_dir),
                     "--out-dir", str(run_dir), "--set", f"train.max_epochs={epochs}"]) == 0
    assert sorted(p.name for p in run_dir.glob("*.ckpt")) == ["epoch_001.ckpt", "final.ckpt"]
    assert len((run_dir / "train_log.jsonl").read_text().splitlines()) == 1


@pytest.mark.parametrize("mode", ["fixed", "variable"])
def test_eval_runs_the_model_once_per_utterance(trained, tmp_path, monkeypatch, mode):
    _, data_dir, run_dir = trained
    forward_batch, rows = Model.forward_batch, []

    def counting(self, features, *args, **kwargs):
        rows.append(len(features))
        return forward_batch(self, features, *args, **kwargs)

    monkeypatch.setattr(Model, "forward_batch", counting)
    assert main(["eval", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "e"),
                 "--mode", mode]) == 0
    assert sum(rows) == 8


def test_gen_data_force_drops_the_previous_corpus_files(trained, tmp_path):
    config, data_dir, run_dir = trained
    assert main(["gen-data", "--config", str(config), "--out-dir", str(data_dir),
                 "--force", "--set", "corpus.n_eval=5"]) == 0
    assert len(list((data_dir / "eval").glob("*.tcmf"))) == 5
    out = tmp_path / "e"
    assert main(["eval", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data-dir", str(data_dir), "--out-dir", str(out)]) == 0
    assert len((out / "scores.txt").read_text().splitlines()) == 5


def test_eval_rejects_empty_protocol(trained, tmp_path, capsys):
    _, data_dir, run_dir = trained
    (data_dir / "eval" / "protocol.txt").write_text("")
    code = main(["eval", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "e")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: split directory {data_dir / 'eval'} has no utterances\n" in err


def test_eval_missing_protocol_entry(trained, tmp_path, capsys):
    _, data_dir, run_dir = trained
    protocol = data_dir / "eval" / "protocol.txt"
    lines = protocol.read_text().splitlines()
    protocol.write_text("\n".join(lines[:-1]) + "\n")
    out = tmp_path / "eval_broken"
    code = main(["eval", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data-dir", str(data_dir), "--out-dir", str(out)])
    assert code == 1
    unlisted = data_dir / "eval" / f"{lines[-1].split()[0]}.tcmf"
    assert f"error: {unlisted}: feature file missing from protocol" in capsys.readouterr().err


@pytest.mark.parametrize("split", ["train", "dev"])
def test_train_rejects_a_feature_file_missing_from_the_protocol(tiny_config, tmp_path,
                                                                 capsys, split):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(tiny_config), "--out-dir",
                 str(data_dir)]) == 0
    protocol = data_dir / split / "protocol.txt"
    lines = protocol.read_text().splitlines()
    protocol.write_text("\n".join(lines[1:]) + "\n")
    run_dir = tmp_path / "run"
    code = main(["train", "--config", str(tiny_config), "--data-dir", str(data_dir),
                 "--out-dir", str(run_dir)])
    assert code == 1
    unlisted = data_dir / split / f"{lines[0].split()[0]}.tcmf"
    assert f"error: {unlisted}: feature file missing from protocol" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("mode", ["fixed", "variable"])
def test_eval_rejects_mixed_feature_dims(trained, tmp_path, capsys, mode):
    _, data_dir, run_dir = trained
    second = sorted((data_dir / "eval").glob("*.tcmf"))[1]
    utt = read_features(second)
    write_features(replace(utt, features=utt.features[:, :5]), second)
    code = main(["eval", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "e"),
                 "--mode", mode])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{second}: feature dim 5 differs from 6" in err


@pytest.mark.parametrize("mode", ["fixed", "variable"])
def test_eval_rejects_a_feature_file_with_no_frames(trained, tmp_path, capsys, mode):
    _, data_dir, run_dir = trained
    second = sorted((data_dir / "eval").glob("*.tcmf"))[1]
    utt = read_features(second)
    write_features(replace(utt, features=utt.features[:0]), second)
    code = main(["eval", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "e"),
                 "--mode", mode])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{second}: empty feature payload: dimensions 0 x 6 at offset" in err


@pytest.mark.parametrize("split", ["train", "dev"])
def test_train_rejects_an_empty_split(tiny_config, tmp_path, capsys, split):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(tiny_config), "--out-dir",
                 str(data_dir)]) == 0
    (data_dir / split / "protocol.txt").write_text("")
    run_dir = tmp_path / "run"
    code = main(["train", "--config", str(tiny_config), "--data-dir", str(data_dir),
                 "--out-dir", str(run_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: split directory {data_dir / split} has no utterances" in err
    assert not run_dir.exists()


@pytest.mark.parametrize("override", ["model.dim=0", "train.lr=NaN", "tdcf.c1=-1",
                                      "corpus.seed=-1", "eval.mode=bogus"])
def test_train_rejects_a_bad_config_before_making_its_run_directory(
        tiny_config, tmp_path, capsys, override):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(tiny_config), "--out-dir",
                 str(data_dir)]) == 0
    run_dir = tmp_path / "run"
    capsys.readouterr()
    code = main(["train", "--config", str(tiny_config), "--data-dir", str(data_dir),
                 "--out-dir", str(run_dir), "--set", override])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and override.split("=")[0].split(".")[-1] in err
    assert not run_dir.exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "ablate"])
def test_a_partial_tdcf_section_names_its_missing_keys(trained, tmp_path, capsys, command):
    config, data_dir, run_dir = trained
    doc = json.loads(config.read_text())
    del doc["tdcf"]
    no_tdcf = tmp_path / "no_tdcf.json"
    no_tdcf.write_text(json.dumps(doc))
    args = {"gen-data": [], "train": ["--data-dir", str(data_dir)],
            "ablate": ["--data-dir", str(data_dir)],
            "eval": ["--data-dir", str(data_dir), "--checkpoint",
                     str(run_dir / "final.ckpt")]}[command]
    capsys.readouterr()
    assert main([command, "--config", str(no_tdcf), *args, "--out-dir",
                 str(tmp_path / "out"), "--set", "tdcf.c1=1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "tdcf.c0" in err and "tdcf.c2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_train_reports_non_finite_loss(tiny_config, tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(tiny_config), "--out-dir",
                 str(data_dir)]) == 0
    first = sorted((data_dir / "train").glob("*.tcmf"))[0]
    utt = read_features(first)
    utt.features[0, 0] = float("nan")
    write_features(utt, first)
    code = main(["train", "--config", str(tiny_config), "--data-dir", str(data_dir),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 1
    assert "error: training loss is nan at epoch 1, batch" in capsys.readouterr().err


def test_params_command(tiny_config, capsys):
    assert main(["params", "--config", str(tiny_config),
                 "--set", "model.dim=144", "--set", "model.heads=4",
                 "--set", "model.blocks=4", "--set", "model.conv_kernel=15"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tcm_delta"] == 23616
    assert "L*(d*D + D + H*D)" in report["formula"]


def test_params_desk_config(tiny_config, capsys):
    assert main(["params", "--config", str(tiny_config),
                 "--set", "model.dim=32", "--set", "model.heads=4",
                 "--set", "model.blocks=2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tcm_delta"] == 2 * (8 * 32 + 32 + 4 * 32) == 832


def test_ablate_command(trained, tmp_path, capsys):
    cfg, data_dir, _ = trained
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(cfg), "--data-dir", str(data_dir),
                 "--out-dir", str(out), "--set", "train.max_epochs=1"]) == 0
    table = json.loads((out / "results.json").read_text())
    variants = [row["variant"] for row in table["rows"]]
    assert variants == [
        "baseline", "tcm", "no_ht_embedding", "no_ht_in_mhsa",
        "no_mean_ht_to_cls", "no_mean_tt_to_cls", "no_cls_enrichment",
    ]
    for row in table["rows"]:
        assert 0.0 <= row["eer"] <= 1.0


def test_ablate_rows_equal_run_variant(trained, tmp_path):
    # one runner: every ablate row is run_variant on the same split and configs
    cfg_path, data_dir, _ = trained
    overrides = ["model.dropout=0.2", "train.max_epochs=1"]
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(cfg_path), "--data-dir", str(data_dir),
                 "--out-dir", str(out), "--set", overrides[0],
                 "--set", overrides[1]]) == 0
    rows = json.loads((out / "results.json").read_text())["rows"]
    cfg = RunConfig.load(cfg_path, overrides)
    corpus = {s: read_split(data_dir / s) for s in SPLITS}
    base = cfg.model_config(corpus["train"][0].F)
    assert [r["variant"] for r in rows] == [name for name, _ in VARIANTS]
    for row, (name, toggles) in zip(rows, VARIANTS):
        want = run_variant(corpus, replace(base, toggles=toggles), cfg.train_config(),
                           costs=cfg.tdcf_costs())
        for key in ("eer", "min_tdcf", "threshold", "val_loss"):
            assert row[key] == want[key], (name, key)


def test_sweep_heads_command(trained, tmp_path, capsys):
    cfg, data_dir, _ = trained
    out = tmp_path / "sweep"
    assert main(["sweep-heads", "--config", str(cfg), "--data-dir",
                 str(data_dir), "--out-dir", str(out),
                 "--heads", "2", "3", "--set", "train.max_epochs=1"]) == 0
    table = json.loads((out / "results.json").read_text())
    rows = {(r["heads"], r["use_tcm"]): r for r in table["rows"]}
    assert "eer" in rows[(2, True)]
    assert "error" in rows[(3, True)]  # 8 % 3 != 0: error row, sweep continues


def test_sweep_heads_ignores_the_config_head_count(trained, tmp_path):
    # the swept counts decide: a config head count the dim does not divide
    # must not stop the sweep
    cfg, data_dir, _ = trained
    out = tmp_path / "sweep"
    assert main(["sweep-heads", "--config", str(cfg), "--data-dir", str(data_dir),
                 "--out-dir", str(out), "--heads", "2", "4",
                 "--set", "model.heads=3", "--set", "train.max_epochs=1"]) == 0
    rows = json.loads((out / "results.json").read_text())["rows"]
    assert [(r["heads"], r["use_tcm"]) for r in rows] == [
        (2, False), (2, True), (4, False), (4, True)]
    assert all("eer" in r for r in rows)


def test_sweep_heads_stops_on_a_training_error(trained, tmp_path, capsys):
    cfg, data_dir, _ = trained
    out = tmp_path / "sweep"
    code = main(["sweep-heads", "--config", str(cfg), "--data-dir", str(data_dir),
                 "--out-dir", str(out), "--heads", "2", "--set", "train.batch_size=0"])
    assert code == 1
    assert "batch_size must be >= 1" in capsys.readouterr().err
    assert not (out / "results.json").exists()
