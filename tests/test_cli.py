import csv
import json
import os
import re
import string
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.cli import main
from fedrec.config import ConfigError, cfg_bool, cfg_int, cfg_int_list, parse_config_text
from fedrec.experiment import ExperimentConfig

BASE_CFG = """
# small synthetic world for CLI smoke tests
synth.n_users = 24
synth.n_items = 20
synth.user_attrs = 3,2
synth.item_attrs = 4
synth.interactions_per_user = 30
group.attrs = ua0
arch.embed_dim = 4
arch.mlp_hidden = 6
arch.gate_hidden = 3
pretrain.epochs = 2
pretrain.batch = 32
fed.rounds = 2
fed.batch = 8
seed = 1
"""


def write_cfg(tmp_path, extra="", name="exp.cfg"):
    path = tmp_path / name
    path.write_text(BASE_CFG + extra)
    return str(path)


def run(*argv):
    return main(list(argv))


class TestConfigParser:
    def test_comments_and_blanks(self):
        cfg = parse_config_text("# header\n\na.b = 1  # trailing\n")
        assert cfg == {"a.b": "1"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words\n")

    def test_typed_accessors(self):
        cfg = parse_config_text("n = 7\nflag = yes\nxs = 1, 2,3\n")
        assert cfg_int(cfg, "n") == 7
        assert cfg_bool(cfg, "flag") is True
        assert cfg_int_list(cfg, "xs") == [1, 2, 3]
        assert cfg_int(cfg, "missing", 5) == 5
        with pytest.raises(ConfigError):
            cfg_int(cfg, "missing", required=True)
        with pytest.raises(ConfigError):
            cfg_int(cfg, "flag")


CONFIG_KEY = st.from_regex(r"[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)?", fullmatch=True)
# anything but a comment mark or a line break; '=' may recur in a value
CONFIG_VALUE = st.text(alphabet=string.ascii_letters + string.digits + " \t,.=-_/:", max_size=12)


class TestConfigRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.dictionaries(CONFIG_KEY, CONFIG_VALUE, max_size=8),
        layout=st.lists(st.sampled_from(["plain", "spaced", "comment", "blank_before"]), min_size=8),
    )
    def test_rendered_file_parses_back(self, entries, layout):
        lines = []
        for (key, value), style in zip(entries.items(), layout):
            if style == "blank_before":
                lines += ["", "# a comment line"]
            sep = " = " if style == "spaced" else "="
            lines.append(f"{key}{sep}{value}" + ("  # note" if style == "comment" else ""))
        parsed = parse_config_text("\n".join(lines) + "\n")
        assert parsed == {k: v.strip() for k, v in entries.items()}
        assert list(parsed) == list(entries)
        # and once more through its own rendering
        assert parse_config_text("".join(f"{k} = {v}\n" for k, v in parsed.items())) == parsed


class TestConfigKeys:
    def test_unknown_key_rejected_with_suggestion(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "fed.round = 7\n")
        assert run("federate", "--config", cfg, "--quiet") == 1
        err = capsys.readouterr().err
        assert "unknown config key 'fed.round'" in err and "did you mean 'fed.rounds'" in err

    def test_ldp_intensity_needs_ldp_enabled(self):
        with pytest.raises(ConfigError, match="ldp.enabled = false"):
            ExperimentConfig.from_dict({"ldp.intensity": "0.2"})
        cfg = ExperimentConfig.from_dict({"ldp.intensity": "0.2", "ldp.enabled": "true"})
        assert cfg.noise_config().intensity == 0.2


class TestSynth:
    def test_writes_csvs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert run("synth", "--config", cfg, "--out", out, "--quiet") == 0
        with open(os.path.join(out, "users.csv")) as fh:
            assert sum(1 for _ in fh) == 25  # header + 24 users
        with open(os.path.join(out, "items.csv")) as fh:
            assert sum(1 for _ in fh) == 21

    def test_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run("synth", "--config", cfg, "--out", a, "--quiet")
        run("synth", "--config", cfg, "--out", b, "--quiet")
        for f in ("users.csv", "items.csv", "interactions.csv"):
            assert open(os.path.join(a, f), "rb").read() == open(os.path.join(b, f), "rb").read()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run("synth", "--config", cfg, "--out", a, "--quiet")
        run("synth", "--config", cfg, "--out", b, "--seed", "2", "--quiet")
        same = open(os.path.join(a, "interactions.csv")).read() == \
            open(os.path.join(b, "interactions.csv")).read()
        assert not same


class TestPretrain:
    def test_checkpoint_and_loss_csv(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert run("pretrain", "--config", cfg, "--out", out, "--quiet") == 0
        assert os.path.exists(os.path.join(out, "pretrained.npz"))
        with open(os.path.join(out, "pretrain_loss.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss"]
        assert len(rows) == 3  # header + 2 epochs
        assert float(rows[2][1]) < float(rows[1][1])

    def test_zero_epochs(self, tmp_path):
        cfg = write_cfg(tmp_path, "extra.pad = 0\n")
        cfg2 = tmp_path / "zero.cfg"
        cfg2.write_text(BASE_CFG.replace("pretrain.epochs = 2", "pretrain.epochs = 0"))
        out = str(tmp_path / "out")
        assert run("pretrain", "--config", str(cfg2), "--out", out, "--quiet") == 0
        with open(os.path.join(out, "pretrain_loss.csv")) as fh:
            assert sum(1 for _ in fh) == 1


class TestFederate:
    def test_outputs_and_round_log(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert run("federate", "--config", cfg, "--out", out, "--quiet") == 0
        with open(os.path.join(out, "rounds.jsonl")) as fh:
            recs = [json.loads(line) for line in fh]
        assert len(recs) == 2
        assert [r["round"] for r in recs] == [0, 1]
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["arm"] == "fedpa" and summary["rounds"] == 2
        assert 0.0 <= summary["test_auc"] <= 1.0
        assert summary["test_auc_1e2"] == pytest.approx(summary["test_auc"] * 100, abs=1e-3)
        assert os.path.exists(os.path.join(out, "server.npz"))

    def test_rerun_identical_modulo_seconds(self, tmp_path):
        cfg = write_cfg(tmp_path)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run("federate", "--config", cfg, "--out", a, "--quiet")
        run("federate", "--config", cfg, "--out", b, "--quiet")

        def stripped(path):
            out = []
            with open(os.path.join(path, "rounds.jsonl")) as fh:
                for line in fh:
                    rec = json.loads(line)
                    rec.pop("seconds")
                    out.append(json.dumps(rec, sort_keys=True))
            return out

        assert stripped(a) == stripped(b)
        assert json.load(open(os.path.join(a, "summary.json"))) == \
            json.load(open(os.path.join(b, "summary.json")))

    def test_init_checkpoint_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path)
        pre = str(tmp_path / "pre")
        run("pretrain", "--config", cfg, "--out", pre, "--quiet")
        cfg2 = tmp_path / "warm.cfg"
        cfg2.write_text(BASE_CFG + f"fed.init = {os.path.join(pre, 'pretrained.npz')}\n")
        out = str(tmp_path / "out")
        assert run("federate", "--config", str(cfg2), "--out", out, "--quiet") == 0

    def test_unknown_arm_fails(self, tmp_path, capsys):
        cfg2 = tmp_path / "bad.cfg"
        cfg2.write_text(BASE_CFG + "fed.arm = bogus\n")
        assert run("federate", "--config", str(cfg2), "--quiet") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_fails_naming_round(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "fed.lr = 1e6\n")
        out = str(tmp_path / "out")
        assert run("federate", "--config", cfg, "--out", out, "--quiet") == 1
        assert re.search(r"error: round \d+: training diverged", capsys.readouterr().err)
        assert not os.path.exists(os.path.join(out, "summary.json"))


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_first_diverged_private_adapter(self, tmp_path, capsys):
        # A9's world at a diverging learning rate, evaluated every third
        # round: round 1's local training leaves private adapters non-finite,
        # and the run stops there, naming the first of those clients
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "synth.n_users = 24\nsynth.n_items = 20\nsynth.user_attrs = 3,2\n"
            "synth.item_attrs = 4\nsynth.interactions_per_user = 30\n"
            "group.attrs = ua0\narch.embed_dim = 4\narch.mlp_hidden = 6\n"
            "arch.gate_hidden = 3\npretrain.epochs = 2\nfed.rounds = 6\n"
            "fed.batch = 8\nseed = 1\nfed.lr = 1e6\nfed.eval_every = 3\n"
        )
        assert run("federate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet") == 1
        err = capsys.readouterr().err
        assert "error: round 1: training diverged; first client with a non-finite private adapter: 3" in err

    def test_divergence_error_comes_without_numpy_warnings(self, tmp_path):
        # A9's config at a diverging learning rate, in a fresh interpreter so
        # that numpy's warnings reach stderr as they would for a user
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "synth.n_users = 24\nsynth.n_items = 20\nsynth.user_attrs = 3,2\n"
            "synth.item_attrs = 4\nsynth.interactions_per_user = 30\n"
            "group.attrs = ua0\narch.embed_dim = 4\narch.mlp_hidden = 6\n"
            "arch.gate_hidden = 3\npretrain.epochs = 2\nfed.rounds = 3\n"
            "fed.batch = 8\nseed = 1\nfed.lr = 1e6\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fedrec.cli", "federate", "--config", str(cfg),
             "--out", str(tmp_path / "out"), "--quiet"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1
        assert "error: round 1: training diverged" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestDistill:
    def test_student_checkpoint(self, tmp_path):
        extra = "distill.embed_dim = 2\ndistill.mlp_hidden = 4\ndistill.epochs = 2\n"
        cfg = write_cfg(tmp_path, extra)
        out = str(tmp_path / "out")
        assert run("distill", "--config", cfg, "--out", out, "--quiet") == 0
        assert os.path.exists(os.path.join(out, "student.npz"))
        with open(os.path.join(out, "distill_loss.csv")) as fh:
            assert sum(1 for _ in fh) == 3

    def test_missing_required_key_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert run("distill", "--config", cfg, "--quiet") == 1
        assert "distill.embed_dim" in capsys.readouterr().err


class TestAblate:
    def test_single_arm_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, "ablate.arms = no_adapter\n")
        out = str(tmp_path / "out")
        assert run("ablate", "--config", cfg, "--out", out, "--quiet") == 0
        with open(os.path.join(out, "ablation.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["arm", "auc", "precision", "trainable_params",
                           "uploaded_scalars_per_round"]
        assert len(rows) == 2 and rows[1][0] == "no_adapter"
        assert 0.0 <= float(rows[1][1]) <= 1.0

    def test_unknown_arm_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "ablate.arms = nope\n")
        assert run("ablate", "--config", cfg, "--quiet") == 1
        assert "nope" in capsys.readouterr().err


class TestEval:
    def test_prints_metrics_json(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        pre = str(tmp_path / "pre")
        run("pretrain", "--config", cfg, "--out", pre, "--quiet")
        capsys.readouterr()
        cfg2 = tmp_path / "eval.cfg"
        cfg2.write_text(BASE_CFG + f"eval.checkpoint = {os.path.join(pre, 'pretrained.npz')}\n")
        assert run("eval", "--config", str(cfg2), "--quiet") == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["auc_1e2"] <= 100.0


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run("synth", "--config", str(tmp_path / "nope.cfg"), "--quiet") == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no equals sign here\n")
        assert run("synth", "--config", str(bad), "--quiet") == 1
        assert "error:" in capsys.readouterr().err
