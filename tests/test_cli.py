import argparse
import csv
import dataclasses
import json

import numpy as np
import pytest

from conftest import build_cohort, run_without_scipy
from promptsurv.cli import build_parser, main
from promptsurv.data import read_matrix, write_cohort, write_matrix
from promptsurv.pipeline import TrainConfig


@pytest.fixture
def cohort_dir(tmp_path):
    records, prompts, _ = build_cohort(n_patients=20, seed=13)
    write_cohort(records, prompts, tmp_path / "cohort")
    return tmp_path / "cohort"


def run(args):
    return main([str(a) for a in args])


class TestSynth:
    def test_writes_manifest_with_defaults(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_patients": 4, "n_regions": 3, "patches_per_region": 2,
            "d": 12, "n_prompts_patch": 3, "n_prompts_region": 3, "seed": 5,
        }))
        code = run(["synth", "--spec", spec_path, "--out", tmp_path / "c"])
        assert code == 0
        assert (tmp_path / "c" / "manifest.json").is_file()
        assert "4 patients" in capsys.readouterr().out

    def test_bad_spec_field_maps_to_config_exit_code(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"bogus": 1}))
        assert run(["synth", "--spec", spec_path, "--out", tmp_path / "c"]) == 2

    @pytest.mark.parametrize("field, value", [
        ("n_patients", "5"), ("n_patients", 2.5), ("seed", True),
    ])
    def test_spec_field_of_wrong_type_exit_code(self, tmp_path, capsys, field, value):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({field: value}))
        assert run(["synth", "--spec", spec_path, "--out", tmp_path / "c"]) == 2
        assert f"SynthSpec field {field} in {spec_path} " in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        assert run(["synth", "--seed", -1, "--out", tmp_path / "c"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


class TestTrainAndCv:
    def test_train_single_split(self, cohort_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["train", "--manifest", cohort_dir / "manifest.json",
                    "--out", out, "--epochs", 1, "--n-bins", 3, "--seed", 3])
        assert code == 0
        assert (out / "metadata.json").is_file()
        assert "holdout CI" in capsys.readouterr().out
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["mode"] == "train"
        assert meta["config"]["epochs"] == 1

    def test_cv_runs_and_reports(self, cohort_dir, tmp_path):
        out = tmp_path / "cv"
        code = run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", out, "--folds", 3, "--epochs", 1, "--n-bins", 3])
        assert code == 0
        for name in ("summary.csv", "risks.csv", "km.csv", "loss_trace.csv",
                     "selections.csv", "metadata.json"):
            assert (out / name).is_file()

    def test_cv_byte_identical_across_runs(self, cohort_dir, tmp_path):
        args = ["cv", "--manifest", cohort_dir / "manifest.json",
                "--folds", 3, "--epochs", 1, "--n-bins", 3, "--seed", 9]
        assert run(args + ["--out", tmp_path / "a"]) == 0
        assert run(args + ["--out", tmp_path / "b"]) == 0
        for name in ("summary.csv", "risks.csv", "km.csv", "loss_trace.csv",
                     "selections.csv", "metadata.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_config_file_with_flag_override(self, cohort_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "n_bins": 3, "lam": 0.5,
                                        "seed": 4}))
        out = tmp_path / "out"
        code = run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", out, "--folds", 3, "--config", cfg_path,
                    "--lam", 0.25])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["lambda"] == 0.25  # flag wins
        assert meta["config"]["epochs"] == 1     # file value kept

    @pytest.mark.parametrize("name, value", [
        ("batch_size", 1), ("batch_size", 2),
        ("reset_queues_per_epoch", False), ("reset_queues_per_epoch", True),
    ])
    def test_fixed_setting_in_config_file_exit_code(self, cohort_dir, tmp_path,
                                                    capsys, name, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, name: value}))
        out = tmp_path / "out"
        assert run(["cv", "--manifest", cohort_dir / "manifest.json", "--out", out,
                    "--config", cfg_path]) == 2
        assert f"unknown config fields in {cfg_path}: ['{name}']" in capsys.readouterr().err
        assert not out.exists()
        flag = f"--{name.replace('_', '-')}"
        with pytest.raises(SystemExit) as exc:
            run(["cv", "--manifest", cohort_dir / "manifest.json", "--out", out, flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_switch_override_flag(self, cohort_dir, tmp_path):
        out = tmp_path / "out"
        code = run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", out, "--folds", 3, "--epochs", 1, "--n-bins", 3,
                    "--variant", "F", "--switch", "use_contrast=true"])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["switches"]["use_contrast"] is True

    def test_cv_metadata_keeps_per_fold_records(self, cohort_dir, tmp_path):
        out = tmp_path / "out"
        code = run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", out, "--folds", 3, "--epochs", 1, "--n-bins", 3,
                    "--sinkhorn-max-iters", 1])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["mode"] == "cv"
        assert [fold["fold"] for fold in meta["folds"]] == [0, 1, 2]
        for fold in meta["folds"]:
            assert any(flag.startswith("selections from non-converged Sinkhorn solves")
                       for flag in fold["flags"])

    def test_zero_temperature_exit_code(self, cohort_dir, tmp_path):
        assert run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", tmp_path / "o", "--temperature", 0]) == 2

    @pytest.mark.parametrize("field, value", [
        ("lr", "fast"), ("epochs", 1.5), ("epochs", True), ("lam", False),
        ("variant", 7), ("attention_dim", 2.0), ("switch_overrides", [1]),
    ])
    def test_config_file_field_of_wrong_type_exit_code(self, cohort_dir, tmp_path,
                                                        capsys, field, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({field: value}))
        assert run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", tmp_path / "o", "--config", cfg_path]) == 2
        assert f"config field {field} " in capsys.readouterr().err

    def test_config_file_int_beyond_float_range_exit_code(self, cohort_dir, tmp_path,
                                                          capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"lr": 1' + "0" * 400 + "}")
        assert run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", tmp_path / "o", "--config", cfg_path]) == 2
        assert "config field lr " in capsys.readouterr().err

    def test_config_file_int_for_float_field(self, cohort_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "n_bins": 3, "lam": 1,
                                        "attention_dim": None}))
        out = tmp_path / "out"
        code = run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", out, "--folds", 3, "--config", cfg_path])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["lambda"] == 1.0
        assert isinstance(meta["config"]["lambda"], float)

    @pytest.mark.parametrize("flags, field", [
        (["--variant", "A", "--attention-dim", -3], "attention_dim"),
        (["--variant", "A", "--attention-dim", 0], "attention_dim"),
        (["--seed", -1], "seed"),
    ])
    def test_numeric_edge_exit_code(self, cohort_dir, tmp_path, capsys, flags, field):
        assert run(["cv", "--manifest", cohort_dir / "manifest.json", "--out", tmp_path / "o",
                    "--folds", 3, "--epochs", 1, "--n-bins", 3, *flags]) == 2
        assert f"{field} must be " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_switch_override_must_be_boolean(self, cohort_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"variant": "G",
                                        "switch_overrides": {"use_gate": "false"}}))
        assert run(["cv", "--manifest", cohort_dir / "manifest.json", "--out", tmp_path / "o",
                    "--folds", 3, "--epochs", 1, "--n-bins", 3, "--config", cfg_path]) == 2
        assert "switch override use_gate " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_manifest_exit_code(self, tmp_path):
        assert run(["cv", "--manifest", tmp_path / "nope.json",
                    "--out", tmp_path / "o"]) == 3

    def test_parent_index_beyond_int64_exit_code(self, cohort_dir, tmp_path, capsys):
        parents = cohort_dir / "p0003_parents.txt"
        parents.write_bytes(b"1" * 20 + parents.read_bytes()[1:])
        assert run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", tmp_path / "o"]) == 3
        assert str(parents) in capsys.readouterr().err

    def test_negative_matrix_header_exit_code(self, cohort_dir, tmp_path, capsys):
        patch = cohort_dir / "p0003_patch.mat"
        patch.write_bytes(b"-2 -4\n" + bytes(64))
        assert run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", tmp_path / "o"]) == 3
        assert f"bad header in {patch}" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["G", "A"])
    def test_matrices_without_columns_exit_code(self, cohort_dir, tmp_path, capsys, variant):
        for path in cohort_dir.glob("*.mat"):
            write_matrix(path, np.zeros((read_matrix(path).shape[0], 0)))
        assert run(["cv", "--manifest", cohort_dir / "manifest.json", "--variant", variant,
                    "--out", tmp_path / "o"]) == 3
        assert f"matrix in {cohort_dir / 'prompts_patch.mat'}" in capsys.readouterr().err

    def test_matrix_header_outside_the_parent_map_grammar_exit_code(self, cohort_dir,
                                                                   tmp_path, capsys):
        patch = cohort_dir / "p0003_patch.mat"
        patch.write_bytes(b"1_0 +1\n" + bytes(80))
        assert run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", tmp_path / "o"]) == 3
        assert f"bad header in {patch}" in capsys.readouterr().err

    def test_bad_switch_value_exit_code(self, cohort_dir, tmp_path):
        assert run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", tmp_path / "o", "--switch", "use_contrast=perhaps"]) == 2

    @pytest.mark.parametrize("variant, switch, rule", [
        ("B", "use_transport=true", "use_transport needs multi_prompt"),
        ("E", "use_contrast=true", "use_contrast needs use_gate"),
        ("G", "use_gate=false", "use_contrast needs use_gate"),
    ])
    def test_switches_that_repeat_another_model_exit_code(self, cohort_dir, tmp_path,
                                                          capsys, variant, switch, rule):
        assert run(["cv", "--manifest", cohort_dir / "manifest.json",
                    "--out", tmp_path / "o", "--folds", 3, "--epochs", 1, "--n-bins", 3,
                    "--variant", variant, "--switch", switch]) == 2
        assert rule in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_manifest_list_exit_code(self, cohort_dir, tmp_path, capsys):
        manifest = cohort_dir / "manifest.json"
        manifest.write_text(json.dumps(json.loads(manifest.read_text())["patients"]))
        assert run(["cv", "--manifest", manifest, "--out", tmp_path / "o"]) == 3
        assert f"manifest in {manifest} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("time", "abc"), ("time", None), ("censor", "x"), ("censor", True),
        ("id", 5), ("time_bin", "2"),
    ])
    def test_manifest_entry_of_wrong_type_exit_code(self, cohort_dir, tmp_path, capsys,
                                                    key, value):
        manifest = cohort_dir / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["patients"][3][key] = value
        manifest.write_text(json.dumps(raw))
        assert run(["cv", "--manifest", manifest, "--out", tmp_path / "o",
                    "--folds", 3, "--epochs", 1, "--n-bins", 3]) == 3
        assert f"patient field {key} in entry 3 of {manifest} " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestAblate:
    def test_two_variant_ladder(self, cohort_dir, tmp_path, capsys):
        out = tmp_path / "ab"
        code = run(["ablate", "--manifest", cohort_dir / "manifest.json",
                    "--out", out, "--folds", 3, "--epochs", 1, "--n-bins", 3,
                    "--variants", "AB"])
        assert code == 0
        with open(out / "ablation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == ["A", "B"]
        stdout = capsys.readouterr().out
        assert "variant A" in stdout and "variant B" in stdout

    @pytest.mark.parametrize("flags, message", [
        (["--variants", ""], "no variants"),
        (["--variants", "G", "--variant", "A"], "--variant"),
        (["--variants", "G", "--switch", "use_gate=false"], "use_gate"),
        (["--variants", "BB"], "variants ['B'] repeated in 'BB'"),
    ])
    def test_settings_the_ladder_would_drop_exit_code(self, cohort_dir, tmp_path, capsys,
                                                      flags, message):
        assert run(["ablate", "--manifest", cohort_dir / "manifest.json",
                    "--out", tmp_path / "ab", "--folds", 3, "--epochs", 1,
                    "--n-bins", 3, *flags]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ab").exists()


class TestKmExport:
    def test_recompute_from_risk_csv(self, cohort_dir, tmp_path):
        out = tmp_path / "cv"
        run(["cv", "--manifest", cohort_dir / "manifest.json", "--out", out,
             "--folds", 3, "--epochs", 1, "--n-bins", 3])
        km_out = tmp_path / "km"
        code = run(["km-export", "--risks", out / "risks.csv", "--out", km_out])
        assert code == 0
        stats = json.loads((km_out / "logrank.json").read_text())
        assert stats["chi_square"] >= 0.0
        assert 0.0 <= stats["p_value"] <= 1.0
        with open(km_out / "km.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["stratum"] for r in rows} <= {"low", "high"}

    def test_same_km_rows_as_train(self, cohort_dir, tmp_path):
        out = tmp_path / "train"
        assert run(["train", "--manifest", cohort_dir / "manifest.json", "--out", out,
                    "--epochs", 1, "--n-bins", 3]) == 0
        assert run(["km-export", "--risks", out / "risks.csv", "--out", tmp_path / "km"]) == 0
        with open(out / "km.csv") as fh:
            train_rows = [row[1:] for row in csv.reader(fh)]
        with open(tmp_path / "km" / "km.csv") as fh:
            export_rows = list(csv.reader(fh))
        assert len(export_rows) > 1
        assert train_rows == export_rows

    def test_malformed_csv_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run(["km-export", "--risks", bad, "--out", tmp_path / "o"]) == 3

    @pytest.mark.parametrize("row", ["high,10.0,0", "0.5,10.0,", "nan,10.0,0",
                                     "0.5,inf,1", "0.5,10.0", "0.5,0.0,0"])
    def test_malformed_row_exit_code_names_line(self, tmp_path, capsys, row):
        bad = tmp_path / "risks.csv"
        bad.write_text("risk,time,censor\n0.1,5.0,0\n" + row + "\n0.2,7.0,1\n")
        assert run(["km-export", "--risks", bad, "--out", tmp_path / "o"]) == 3
        assert f"{bad} line 3: " in capsys.readouterr().err

    def test_non_utf8_risk_csv_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "risks.csv"
        bad.write_bytes(b"risk,time,censor\n0.1,5.0,0\n\xff,6.0,0\n")
        assert run(["km-export", "--risks", bad, "--out", tmp_path / "o"]) == 3
        assert f"{bad} is not UTF-8" in capsys.readouterr().err


class TestConfigFlags:
    FIELDS = [f.name for f in dataclasses.fields(TrainConfig)
              if f.name != "switch_overrides"]

    @staticmethod
    def subparser(command):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        return sub.choices[command]

    @pytest.mark.parametrize("command", ["train", "cv", "ablate"])
    def test_one_flag_per_config_field(self, command):
        actions = [action for action in self.subparser(command)._actions
                   if action.dest in self.FIELDS]
        assert sorted(action.dest for action in actions) == sorted(self.FIELDS)
        assert {opt for action in actions for opt in action.option_strings} == \
            {f"--{name.replace('_', '-')}" for name in self.FIELDS}
        assert all(len(action.option_strings) == 1 for action in actions)
        assert not any(action.dest == "switch_overrides"
                       for action in self.subparser(command)._actions)

    def test_each_flag_parses_to_its_field_type(self):
        values = {"epochs": "3", "lr": "1e-3", "r": "0.5", "queue_length": "5",
                  "lam": "0.5", "n_bins": "3", "epsilon": "0.2",
                  "sinkhorn_tol": "1e-7", "sinkhorn_max_iters": "50", "seed": "4",
                  "variant": "F", "attention_dim": "6", "temperature": "0.5"}
        argv = ["cv", "--manifest", "m.json", "--out", "o"]
        for name, value in values.items():
            argv += [f"--{name.replace('_', '-')}", value]
        args = build_parser().parse_args(argv)
        assert set(values) == set(self.FIELDS)
        for f in dataclasses.fields(TrainConfig):
            if f.name in values:
                expected = {"int": int, "int | None": int, "float": float,
                            "str": str}[f.type](values[f.name])
                assert getattr(args, f.name) == expected
                assert type(getattr(args, f.name)) is type(expected)


class TestNumpyOnly:
    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps({
            "n_patients": 20, "n_regions": 3, "patches_per_region": 4, "d": 8,
            "n_prompts_patch": 3, "n_prompts_region": 3, "seed": 5,
        }))
        cohort = "'--manifest', 'cohort/manifest.json', '--epochs', '1', '--n-bins', '3'"
        script = (
            "from promptsurv.cli import main\n"
            "codes = [main(['synth', '--spec', 'spec.json', '--out', 'cohort']),\n"
            f"         main(['cv', {cohort}, '--out', 'cv', '--folds', '3']),\n"
            "         main(['km-export', '--risks', 'cv/risks.csv', '--out', 'km']),\n"
            f"         main(['train', {cohort}, '--out', 'train']),\n"
            f"         main(['ablate', {cohort}, '--out', 'ablate', '--folds', '3',\n"
            "               '--variants', 'AG'])]\n"
            "print(codes)\n")
        done = run_without_scipy(script, tmp_path)
        assert (done.returncode, done.stdout.splitlines()[-1:]) == (0, ["[0, 0, 0, 0, 0]"]), \
            done.stderr
        assert (tmp_path / "km" / "logrank.json").is_file()
        assert (tmp_path / "train" / "risks.csv").is_file()
        assert (tmp_path / "ablate" / "ablation.csv").is_file()
