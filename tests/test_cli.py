import csv
import fnmatch
import json
import math
import os
import re
import string
import subprocess
import sys
from dataclasses import fields, replace
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec import cli, experiment, federation
from fedrec.cli import main
from fedrec.config import ConfigError, parse_config_text, parse_value
from fedrec.experiment import ARMS, KEYS, ExperimentConfig, build_arch, prepare_dataset
from fedrec.federation import pretrain_examples
from fedrec.metrics import auc
from fedrec.model import FROZEN, ParamSet, ShapeError, forward_batch, init_params, load_params, save_params
from helpers import forward_one_shot, lift, randomized_params

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


def write_files_cfg(tmp_path, users, items, interactions):
    """The test config reading its dataset from these three CSV texts, written
    to u.csv, i.csv and x.csv."""
    paths = ""
    for key, name, text in (("users", "u.csv", users), ("items", "i.csv", items), ("interactions", "x.csv", interactions)):
        (tmp_path / name).write_text(text)
        paths += f"data.{key} = {tmp_path / name}\n"
    return write_cfg(tmp_path, "data.source = files\n" + paths)


def write_cfg_setting(tmp_path, key, value):
    """The test config with `key` set to `value`, in place of its own line
    if it has one."""
    kept = [line for line in BASE_CFG.splitlines() if line.split("=", 1)[0].strip() != key]
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
    return str(path)


def run(*argv):
    return main(list(argv))


def run_fresh(*argv):
    """`fedrec` run in a fresh interpreter, as a user runs it: the finished
    process with its text output."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "fedrec.cli", *argv], capture_output=True, text=True, env=env, timeout=300
    )


def assert_one_error_line(proc, *parts):
    """The process exited 1 with one `error:` line holding each of `parts`."""
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert all(part in proc.stderr for part in parts), proc.stderr


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
        assert parse_value("n", cfg["n"], int) == 7
        assert parse_value("flag", cfg["flag"], bool) is True
        assert parse_value("xs", cfg["xs"], (int,)) == (1, 2, 3)
        assert ExperimentConfig.from_dict({}).rounds == 20  # a missing key takes its field default
        with pytest.raises(ConfigError, match="missing required config key 'eval.checkpoint'"):
            ExperimentConfig.from_dict({}).require("eval.checkpoint")
        with pytest.raises(ConfigError, match="config key 'flag': 'yes' is not an integer"):
            parse_value("flag", cfg["flag"], int)


# a config line: a known key with a value that may not fit its kind or
# bound, or any text at all
KEY_LINE = st.tuples(
    st.sampled_from(sorted(KEYS)),
    st.one_of(
        st.text(max_size=10),
        st.sampled_from(["0", "-1", "1", "2", "0.5", "1e3", "nan", "inf", "1_0", "yes", "off", "", ",", "1,2",
                         "1,,2", "99999999999999999999", "synth", "files", "fedpa", "all", "hidden", "ua0"]),
    ),
).map(lambda kv: f"{kv[0]} = {kv[1]}")
ANY_LINE = st.one_of(KEY_LINE, st.text(max_size=20)).map(lambda line: line.replace("\n", " "))


class TestConfigProperties:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(lines=st.lists(ANY_LINE, max_size=6), newline=st.sampled_from(["\n", "\r\n"]))
    def test_any_text_gives_a_config_or_an_error_naming_its_key_or_line(self, lines, newline):
        text = newline.join(lines)
        try:
            raw = parse_config_text(text)
        except ConfigError as exc:
            at = re.match(r"line (\d+): ", str(exc))
            assert at and 1 <= int(at[1]) <= len(lines), str(exc)
            bad = lines[int(at[1]) - 1].split("#", 1)[0]
            # the line has no '=', no key, or a key an earlier line has
            key = bad.split("=", 1)[0].strip()
            assert "=" not in bad or not key or any(
                line.split("#", 1)[0].split("=", 1)[0].strip() == key for line in lines[: int(at[1]) - 1]
            ), (str(exc), lines)
            return
        try:
            cfg = ExperimentConfig.from_dict(raw)
        except ConfigError as exc:
            named = re.search(r"config key '([^']*)'", str(exc))
            assert named and named[1] in raw, str(exc)
            return
        for key, text_value in raw.items():  # each key set to its value read as its kind
            path, kind, _ = KEYS[key]
            got = attrgetter(path)(cfg)
            assert got == parse_value(key, text_value, kind), key

    @pytest.mark.parametrize("brk", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"])
    def test_line_break_characters_other_than_newline_stay_in_their_line(self, brk):
        # str.splitlines ends a line at these too: a form feed in a comment
        # made its rest a line of its own, "line 2: expected key=value"
        assert parse_config_text(f"# page{brk}two\nseed = 3\n") == {"seed": "3"}
        with pytest.raises(ConfigError, match="^line 3: expected key=value"):
            parse_config_text(f"seed = 3{brk}\n\nno value here\n")


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
        assert (cfg.ldp_enabled, cfg.ldp_intensity) == (True, 0.2)


def bound_ends(bound):
    """(lo, hi, lo closed?, hi closed?) of an interval written like "(0, 1]"."""
    lo, hi = (float(x) for x in bound[1:-1].split(","))
    return lo, hi, bound[0] == "[", bound[-1] == "]"


def inside(kind, bound):
    """A value of one element of `kind` that lies in `bound`."""
    if isinstance(bound, tuple):
        return st.sampled_from(bound)
    lo, hi, lo_closed, hi_closed = bound_ends(bound)
    if kind is int:
        return st.integers(int(lo) + (not lo_closed), 2**63 - 1 if hi == math.inf else int(hi) - (not hi_closed))
    return st.floats(lo, hi, exclude_min=not lo_closed, exclude_max=not hi_closed, allow_nan=False,
                     allow_infinity=False)


def outside(kind, bound):
    """A value of one element of `kind` just outside `bound`: past an
    interval end (NaN for a float), not one of the listed values, or an int
    past int64."""
    if isinstance(bound, tuple):
        return st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8).filter(lambda x: x not in bound)
    lo, hi, lo_closed, hi_closed = bound_ends(bound)
    if kind is int:
        ends = [st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63) - 1)]
        if lo > -math.inf:
            ends.append(st.integers(-(2**63), int(lo) - lo_closed))
        if hi < math.inf:
            ends.append(st.integers(int(hi) + hi_closed, 2**63 - 1))
        return st.one_of(ends)
    ends = [st.just(math.nan)]
    ends.append(st.floats(max_value=lo, exclude_max=lo_closed) if lo > -math.inf else st.just(-math.inf))
    ends.append(st.floats(min_value=hi, exclude_min=hi_closed) if hi < math.inf else st.just(math.inf))
    return st.one_of(ends)


def as_text(value):
    """A config file's text for `value`, a list's elements comma-joined."""
    return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)


BOUNDED = sorted(key for key, (_, _, bound) in KEYS.items() if bound is not None)


class TestBoundsWhereverBuilt:
    @pytest.mark.parametrize("key", BOUNDED)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_value_outside_the_bound_fails_naming_the_key(self, key, data):
        # the dataclass that owns the key refuses the value when it is built
        # directly, by dataclasses.replace or from a config file, with one
        # message; an in-bound value passes all three ways
        path, kind, bound = KEYS[key]
        section, _, name = path.rpartition(".")
        experiment = ExperimentConfig(ldp_enabled=True)  # so that a positive ldp.intensity is in bound
        owner = getattr(experiment, section) if section else experiment
        if isinstance(kind, tuple):  # one element outside, among elements inside
            good = data.draw(st.lists(inside(kind[0], bound), min_size=1, max_size=3), label="good")
            at = data.draw(st.integers(0, len(good)), label="at")
            bad = tuple(good[:at]) + (data.draw(outside(kind[0], bound), label="bad"),) + tuple(good[at:])
            good = tuple(good)
        else:
            good, bad = data.draw(inside(kind, bound), label="good"), data.draw(outside(kind, bound), label="bad")

        def builds(value):
            given = {f.name: getattr(owner, f.name) for f in fields(owner)}
            yield lambda: type(owner)(**{**given, name: value})
            yield lambda: replace(owner, **{name: value})
            yield lambda: ExperimentConfig.from_dict({"ldp.enabled": "true", key: as_text(value)})

        messages = []
        for build in builds(bad):
            with pytest.raises(ConfigError) as caught:
                build()
            messages.append(str(caught.value))
        assert messages[0].startswith(f"config key {key!r}: ") and len(set(messages)) == 1, messages
        for build in builds(good):
            built = build()
            assert attrgetter(path if isinstance(built, ExperimentConfig) else name)(built) == good


class TestTrainingKeyBounds:
    # a batch holds at least one row and evaluation comes every k >= 1
    # rounds; zero epochs are valid (test_zero_epochs). A width, dimension or
    # count is at least 1, a learning rate positive and finite, and NaN lies
    # in no interval
    @pytest.mark.parametrize("key, value", [
        ("pretrain.batch", "0"), ("pretrain.batch", "-3"), ("pretrain.epochs", "-2"),
        ("fed.batch", "0"), ("fed.local_epochs", "-1"), ("fed.eval_every", "0"),
        ("synth.n_users", "0"), ("synth.n_items", "0"), ("synth.interactions_per_user", "-1"),
        ("synth.user_attrs", "0"), ("synth.item_attrs", "0"), ("synth.beta", "1.5"),
        ("synth.beta", "-0.1"), ("synth.pref_spread", "-0.5"), ("synth.base", "nan"),
        ("arch.embed_dim", "0"), ("arch.adapter_rank", "0"), ("arch.gate_hidden", "0"),
        ("arch.mlp_hidden", "0"),
        ("pretrain.lr", "0.0"), ("pretrain.lr", "nan"), ("pretrain.lr", "inf"),
        ("fed.lr", "-0.5"), ("fed.lr", "nan"), ("fed.lr", "inf"),
        ("distill.lr", "0.0"), ("distill.lr", "nan"), ("distill.lr", "inf"),
        ("distill.embed_dim", "0"), ("distill.mlp_hidden", "0"), ("distill.epochs", "-1"),
        ("distill.batch", "0"), ("distill.alpha", "1.5"), ("ldp.intensity", "inf"),
        ("seed", "-1"),
    ])
    def test_config_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"config key {key!r}: {value} is outside")):
            ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value", [
        ("synth.n_users", "9223372036854775808"), ("arch.embed_dim", "99999999999999999999"),
        ("synth.user_attrs", "3, 99999999999999999999"), ("seed", "18446744073709551616"),
    ])
    def test_int_keys_are_int64(self, key, value):
        # beyond int64 numpy failed later, naming no key ("high is out of
        # bounds for int64", "Maximum allowed dimension exceeded")
        message = f"config key {key!r}: {value.split(', ')[-1]} is outside the int64 range"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_dict({key: value})
        assert ExperimentConfig.from_dict({"seed": str(2**63 - 1)}).seed == 2**63 - 1

    def test_each_list_element_is_checked(self):
        with pytest.raises(ConfigError, match=re.escape("config key 'arch.mlp_hidden': 0 is outside [1, inf)")):
            ExperimentConfig.from_dict({"arch.mlp_hidden": "8, 0"})

    def test_least_values_accepted(self):
        least = {
            "pretrain.batch": ("1", 1), "pretrain.epochs": ("0", 0), "fed.batch": ("1", 1),
            "fed.local_epochs": ("0", 0), "synth.n_users": ("2", 2), "synth.n_items": ("1", 1),
            "synth.interactions_per_user": ("1", 1), "synth.user_attrs": ("1", (1,)),
            "synth.item_attrs": ("1", (1,)), "synth.beta": ("0", 0.0), "synth.pref_spread": ("0", 0.0),
            "arch.embed_dim": ("1", 1), "arch.adapter_rank": ("1", 1), "arch.gate_hidden": ("1", 1),
            "arch.mlp_hidden": ("1", (1,)), "pretrain.lr": ("5e-324", 5e-324), "fed.lr": ("5e-324", 5e-324),
            "distill.lr": ("5e-324", 5e-324), "distill.embed_dim": ("1", 1), "distill.mlp_hidden": ("1", (1,)),
            "distill.epochs": ("0", 0), "distill.batch": ("1", 1), "distill.alpha": ("0", 0.0), "seed": ("0", 0),
        }
        cfg = ExperimentConfig.from_dict({key: text for key, (text, _) in least.items()})
        got = {key: attrgetter(KEYS[key][0])(cfg) for key in least}
        assert got == {key: value for key, (_, value) in least.items()}
        # the closed upper ends too
        cfg = ExperimentConfig.from_dict({"synth.beta": "1", "distill.alpha": "1", "fed.fraction": "1"})
        assert (cfg.synth.beta, cfg.distill.alpha, cfg.client_fraction) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("line", ["pretrain.batch = -3", "pretrain.epochs = -2"])
    def test_pretrain_exits_1_without_a_checkpoint(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        key = line.split(" = ")[0]
        cfg.write_text("\n".join(l for l in BASE_CFG.splitlines() if not l.startswith(key)) + f"\n{line}\n")
        out = tmp_path / "out"
        assert run("pretrain", "--config", str(cfg), "--out", str(out), "--quiet") == 1
        assert repr(key) in capsys.readouterr().err
        assert not (out / "pretrained.npz").exists()

    # each of these once ran on: a negative round count or ratio, a fraction
    # past 1 or a negative noise scale failed only after pretraining, if at
    # all; a negative interaction count or spread failed inside numpy, a NaN
    # or negative learning rate as a training divergence, and a zero width
    # trained a constant model
    @pytest.mark.parametrize("line", [
        "fed.fraction = 1.5", "fed.rounds = -1", "neg.ratio = -1", "ldp.intensity = -0.5",
        "split.pretrain_fraction = 1", "synth.interactions_per_user = -1", "synth.pref_spread = -1",
        "fed.lr = -0.5", "fed.lr = nan", "arch.mlp_hidden = 0",
    ])
    def test_federate_exits_1_naming_an_out_of_range_key(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(l for l in BASE_CFG.splitlines() if not l.startswith(key)) + f"\n{line}\n")
        out = tmp_path / "out"
        assert run("federate", "--config", str(cfg), "--out", str(out), "--quiet") == 1
        err = capsys.readouterr().err
        assert f"config key {key!r}: {line.split(' = ')[1]}" in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["synth.user_attrs", "synth.item_attrs"])
    def test_empty_attribute_list_exits_1(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(l for l in BASE_CFG.splitlines() if not l.startswith(key)) + f"\n{key} =\n")
        assert run("federate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet") == 1
        err = capsys.readouterr().err
        assert key in err and len(err.splitlines()) == 1 and err.startswith("error: ")

    # a closed set is checked when the config loads, before any data is
    # prepared
    @pytest.mark.parametrize("command, line, valid", [
        ("federate", "fed.arm = bogus", ARMS),
        ("ablate", "ablate.arms = fedpa,bogus", ARMS),
        ("federate", "arch.adapter_layers = bogus", ("all", "hidden")),
        ("synth", "data.source = bogus", ("synth", "files")),
    ])
    def test_closed_set_key_fails_at_load(self, tmp_path, capsys, monkeypatch, command, line, valid):
        def refuse(cfg):
            pytest.fail("data prepared before the config was checked")

        monkeypatch.setattr(cli, "prepare_dataset", refuse)
        monkeypatch.setattr(cli, "build_raw_dataset", refuse)
        key = line.split(" = ")[0]
        assert run(command, "--config", write_cfg(tmp_path, line + "\n"), "--out", str(tmp_path / "out"),
                   "--quiet") == 1
        err = capsys.readouterr().err
        assert err == f"error: config key {key!r}: 'bogus' is not one of {', '.join(valid)}\n"

    @pytest.mark.parametrize("kwargs, message", [
        ({"arm": "bogus"}, "config key 'fed.arm': 'bogus' is not one of fedpa, "),
        ({"ablate_arms": ("fedpa", "bogus")}, "config key 'ablate.arms': 'bogus' is not one of fedpa, "),
        ({"adapter_layers": "bogus"}, "config key 'arch.adapter_layers': 'bogus' is not one of all, hidden"),
        ({"source": "bogus"}, "config key 'data.source': 'bogus' is not one of synth, files"),
        ({"fed_lr": -1.0}, r"config key 'fed.lr': -1.0 is outside \(0, inf\)"),
        ({"mlp_hidden": (8, 0)}, r"config key 'arch.mlp_hidden': 0 is outside \[1, inf\)"),
    ])
    def test_bounds_checked_on_a_config_built_in_code(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**kwargs)

    def test_one_user_cannot_be_split(self, tmp_path, capsys):
        # the pretrain and federated pools each need a user: a synthetic
        # world fails at load, and a file world when it is split
        cfg = tmp_path / "one.cfg"
        cfg.write_text(BASE_CFG.replace("synth.n_users = 24", "synth.n_users = 1"))
        assert run("federate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet") == 1
        assert capsys.readouterr().err == "error: config key 'synth.n_users': 1 is outside [2, 100000]\n"
        files = write_files_cfg(
            tmp_path, "user_id,ua0\n0,0\n", "item_id,ia0\n0,0\n1,1\n", "user_id,item_id,timestamp\n0,0,1\n0,1,2\n"
        )
        assert run("federate", "--config", files, "--out", str(tmp_path / "out"), "--quiet") == 1
        err = capsys.readouterr().err
        assert err == "error: the pretrain/federated user split needs at least two users; the dataset has 1\n"

    @pytest.mark.parametrize("attrs,why", [
        ("ua0,ua9", "unknown attribute 'ua9'; valid: ua0, ua1"),
        ("ua0, ua0", "duplicate attribute 'ua0'"),
    ], ids=["unknown", "duplicate"])
    def test_bad_group_attribute_names_the_key(self, tmp_path, capsys, attrs, why):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE_CFG.replace("group.attrs = ua0", f"group.attrs = {attrs}"))
        assert run("federate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet") == 1
        err = capsys.readouterr().err
        assert err == f"error: config key 'group.attrs': {why}\n"

    def test_no_federated_client_names_the_minimum(self, tmp_path, capsys, monkeypatch):
        # 3 interactions per user: the 6:2:2 split drops every federated user.
        # The clients are built before the base model is pretrained, so the
        # run fails without entering pretraining.
        def no_pretrain(*args, **kwargs):
            raise AssertionError("pretraining entered")

        monkeypatch.setattr(experiment, "pretrain", no_pretrain)
        monkeypatch.setattr(federation, "pretrain", no_pretrain)
        cfg = write_cfg_setting(tmp_path, "synth.interactions_per_user", 3)
        assert run("federate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 1
        err = capsys.readouterr().err
        assert err == "error: no federated user has at least 5 interactions\n"

    def test_seed_flag_is_checked_like_the_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run("federate", "--config", cfg, "--seed", "-1", "--out", str(out), "--quiet") == 1
        assert "error: config key 'seed': -1 is outside [0, inf)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["distill.batch = 0", "distill.epochs = -1"])
    def test_distill_exits_1(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, f"distill.embed_dim = 2\ndistill.mlp_hidden = 4\n{line}\n")
        out = tmp_path / "out"
        assert run("distill", "--config", cfg, "--out", str(out), "--quiet") == 1
        assert repr(line.split(" = ")[0]) in capsys.readouterr().err
        assert not (out / "student.npz").exists()


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

    def test_init_under_an_arm_without_warm_start_fails(self, tmp_path, capsys):
        # no_warm starts from a fresh init: a fed.init it would drop is refused
        pre = tmp_path / "pre"
        assert run("pretrain", "--config", write_cfg(tmp_path), "--out", str(pre), "--quiet") == 0
        cfg = write_cfg(tmp_path, f"fed.init = {pre / 'pretrained.npz'}\nfed.arm = no_warm\n")
        out = tmp_path / "out"
        assert run("federate", "--config", cfg, "--out", str(out), "--quiet") == 1
        err = capsys.readouterr().err
        assert err == "error: config key 'fed.init': no arm of fed.arm = no_warm warm-starts\n"
        assert not (out / "summary.json").exists()

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
        proc = run_fresh("federate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
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


class TestFiles:
    def test_missing_path_is_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "data.source = files\ndata.users = u.csv\ndata.interactions = x.csv\n")
        assert run("federate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 1
        assert "error: missing required config key 'data.items'" in capsys.readouterr().err


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

    def test_warm_arms_start_from_fed_init(self, tmp_path, monkeypatch):
        # with fed.init set, ablate pretrains nothing, and its fedpa row is
        # federate's run from the same checkpoint
        pre = tmp_path / "pre"
        assert run("pretrain", "--config", write_cfg(tmp_path), "--out", str(pre), "--quiet") == 0

        def no_pretrain(*args, **kwargs):
            raise AssertionError("pretraining entered")

        monkeypatch.setattr(experiment, "pretrain", no_pretrain)
        monkeypatch.setattr(federation, "pretrain", no_pretrain)
        cfg = write_cfg(tmp_path, f"fed.init = {pre / 'pretrained.npz'}\nablate.arms = fedpa, no_adapter\n")
        assert run("ablate", "--config", cfg, "--out", str(tmp_path / "abl"), "--quiet") == 0
        assert run("federate", "--config", cfg, "--out", str(tmp_path / "fed"), "--quiet") == 0
        with open(tmp_path / "abl" / "ablation.csv") as fh:
            rows = {row["arm"]: row for row in csv.DictReader(fh)}
        summary = json.load(open(tmp_path / "fed" / "summary.json"))
        assert rows["fedpa"] == {
            "arm": "fedpa", "auc": f"{summary['test_auc']:.6f}",
            "precision": "" if summary["test_precision"] is None else f"{summary['test_precision']:.6f}",
            "trainable_params": str(summary["trainable_params"]),
            "uploaded_scalars_per_round": str(summary["uploaded_scalars_per_client"]),
        }
        assert list(rows) == ["fedpa", "no_adapter"]

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


    def test_scores_a_federated_checkpoint(self, tmp_path, capsys):
        # the server's group adapters serve the pretrain rows of each
        # group's users
        cfg = write_cfg(tmp_path)
        fed = tmp_path / "fed"
        assert run("federate", "--config", cfg, "--out", str(fed), "--quiet") == 0
        cfg2 = tmp_path / "eval.cfg"
        cfg2.write_text(BASE_CFG + f"eval.checkpoint = {fed / 'server.npz'}\n")
        assert run("eval", "--config", str(cfg2), "--quiet") == 0
        out = json.loads(capsys.readouterr().out)
        # each row scored on its own with its user's group
        ps = load_params(str(fed / "server.npz"))
        exp = ExperimentConfig.from_dict(parse_config_text(BASE_CFG))
        UA, VA, y = pretrain_examples(prepare_dataset(exp)[0], exp.seed, exp.neg_ratio)
        probs = [
            forward_batch(lift(ps, {"ua0": int(u[0])}), [[u]], [[v]])[0][0, 0] for u, v in zip(UA.tolist(), VA.tolist())
        ]
        assert out["auc_1e2"] == round(auc(np.array(probs), y) * 100.0, 4)


    @pytest.mark.parametrize("frozen", ["adapter/group/*", "adapter/group/ua0/0/*"])
    def test_scores_a_checkpoint_whose_group_adapters_are_frozen_or_mixed(self, tmp_path, capsys, frozen):
        # no cohort trains such group adapters (Layout.cohort refuses them),
        # but scoring reads no tag: eval, and forward_batch of the checkpoint
        # re-tagged all shared, give the scores of the named-group plan they
        # replaced (helpers.single_plan), bit for bit
        exp = ExperimentConfig.from_dict(parse_config_text(BASE_CFG))
        ds = prepare_dataset(exp)[0]
        ps = randomized_params(init_params(build_arch(exp, ds, "fedpa"), 1), 2, scale=0.5)
        ps = ParamSet(ps.arch, ps.tensors, {n: FROZEN if fnmatch.fnmatch(n, frozen) else t for n, t in ps.tags.items()})
        with pytest.raises(ShapeError, match="partition tags"):
            ps.layout.cohort
        save_params(ps, str(tmp_path / "ckpt.npz"))
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(BASE_CFG + f"eval.checkpoint = {tmp_path / 'ckpt.npz'}\n")
        assert run("eval", "--config", str(cfg), "--quiet") == 0
        out = json.loads(capsys.readouterr().out)
        UA, VA, y = pretrain_examples(ds, exp.seed, exp.neg_ratio)
        probs = np.empty(len(y))
        for g in np.unique(UA[:, 0]):  # each group's rows in one pass, as eval scored them
            rows = UA[:, 0] == g
            probs[rows] = forward_one_shot(ps, UA[rows], VA[rows], {"ua0": int(g)})
        assert out["auc_1e2"] == round(auc(probs, y) * 100.0, 4)
        shared = ParamSet(ps.arch, ps.tensors)  # as eval re-tags the checkpoint
        for u, v in zip(UA[:20].tolist(), VA[:20].tolist()):
            want = forward_one_shot(ps, np.array([u]), np.array([v]), {"ua0": u[0]})[0]
            assert forward_batch(lift(shared, {"ua0": u[0]}), [[u]], [[v]])[0][0, 0] == want


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run("synth", "--config", str(tmp_path / "nope.cfg"), "--quiet") == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no equals sign here\n")
        assert run("synth", "--config", str(bad), "--quiet") == 1
        assert "error:" in capsys.readouterr().err

    def test_federate_on_a_timestamp_outside_int64_exits_1(self, tmp_path):
        cfg = write_files_cfg(
            tmp_path, "user_id,ua0\n0,0\n1,1\n", "item_id,ia0\n0,0\n1,1\n",
            "user_id,item_id,timestamp\n0,0,1\n1,1,99999999999999999999999\n",
        )
        proc = run_fresh("federate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet")
        assert_one_error_line(proc, f"{tmp_path / 'x.csv'}:3: field outside the int64 range")

    def test_synth_on_an_attribute_cardinality_outside_int64_exits_1(self, tmp_path):
        # numpy used to fail with "high is out of bounds for int64", naming no key
        cfg = write_cfg_setting(tmp_path, "synth.item_attrs", "4, 99999999999999999999")
        proc = run_fresh("synth", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet")
        assert_one_error_line(proc, "config key 'synth.item_attrs': 99999999999999999999 is outside the int64 range")

    @pytest.mark.parametrize("key", ["synth.n_users", "synth.n_items"])
    def test_synth_on_a_world_beyond_the_size_bound_exits_1(self, key, tmp_path):
        # 10^12 users or items lie inside int64; synth then built its users
        # and items one dict entry at a time until memory ran out
        cfg = write_cfg_setting(tmp_path, key, "1000000000000")
        proc = run_fresh("synth", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet")
        assert_one_error_line(proc, f"config key {key!r}: 1000000000000 is outside [")
        assert not (tmp_path / "out").exists()

    def test_pretrain_on_a_model_too_large_to_allocate_exits_1(self, tmp_path):
        # a MemoryError used to end the run with a traceback; 3 x 10^15
        # float64s exceed any address space, so no memory is taken
        cfg = write_cfg_setting(tmp_path, "arch.embed_dim", "1000000000000000")
        proc = run_fresh("pretrain", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet")
        assert_one_error_line(proc, "error: out of memory: Unable to allocate")

    def test_distill_from_a_teacher_that_is_no_checkpoint_exits_1(self, tmp_path):
        teacher = tmp_path / "teacher.npz"
        teacher.write_bytes(b"PK\x03\x04\x14\x00")
        cfg = write_cfg(tmp_path, f"distill.teacher = {teacher}\ndistill.embed_dim = 2\ndistill.mlp_hidden = 4\n")
        proc = run_fresh("distill", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet")
        assert_one_error_line(proc, f"{teacher}: not a readable checkpoint")

    @pytest.mark.parametrize("command, key", [
        ("eval", "eval.checkpoint"), ("distill", "distill.teacher"), ("federate", "fed.init"),
    ])
    def test_a_checkpoint_of_another_schema_exits_1(self, tmp_path, command, key):
        # a checkpoint trained with synth.user_attrs = 3, 4, used on the
        # test config's 3, 2 world, used to fail deep in scoring or warm
        # start, naming neither the key nor the file
        pre = tmp_path / "pre"
        assert run("pretrain", "--config", write_cfg_setting(tmp_path, "synth.user_attrs", "3, 4"),
                   "--out", str(pre), "--quiet") == 0
        ckpt = pre / "pretrained.npz"
        cfg = write_cfg(tmp_path, f"{key} = {ckpt}\ndistill.embed_dim = 2\ndistill.mlp_hidden = 4\n")
        proc = run_fresh(command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet")
        assert_one_error_line(
            proc, f"error: config key {key!r}: checkpoint {ckpt} has user attributes ua0=3, ua1=4; "
            "item attributes ia0=4, but the dataset has user attributes ua0=3, ua1=2; item attributes ia0=4",
        )

    def test_ablate_on_a_users_file_that_is_not_utf8_exits_1(self, tmp_path):
        cfg = write_files_cfg(tmp_path, "", "item_id,ia0\n0,0\n1,1\n", "user_id,item_id,timestamp\n0,0,1\n")
        (tmp_path / "u.csv").write_bytes(b"user_id,ua0\n0,0\n1,\xff\n")
        proc = run_fresh("ablate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet")
        assert_one_error_line(proc, f"{tmp_path / 'u.csv'}:3: not UTF-8 (byte 0xff)")

    @pytest.mark.parametrize("blob", [b"user_id,age\n0,1\n", b"PK\x03\x04\x14\x00"])
    def test_eval_on_a_file_that_is_no_checkpoint_exits_1(self, tmp_path, blob):
        ckpt = tmp_path / "ckpt.npz"
        ckpt.write_bytes(blob)
        cfg = write_cfg(tmp_path, f"eval.checkpoint = {ckpt}\n")
        proc = run_fresh("eval", "--config", cfg, "--quiet")
        assert_one_error_line(proc, f"{ckpt}: not a readable checkpoint")
