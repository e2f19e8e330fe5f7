"""Exit-code contract of config loading, probed with mutated valid configs.

Each example takes a valid run config or synth spec, mutates one key
(dropped, given a value of another JSON type, or given an out-of-range
number) and loads it the way the CLI does. Loading either succeeds or
reports a ConfigError (exit 2); it never escapes as another exception and
never writes a file.
"""

import copy
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framewatch.cli import build_parser, main
from framewatch.config import from_dict
from framewatch.errors import ConfigError
from framewatch.pipeline import RunConfig
from framewatch.synth import SynthSpec

VALID_RUN = RunConfig().to_dict()
VALID_SYNTH = asdict(SynthSpec())

# Every settable value of the run config, as a dotted key.  Adding or
# removing an option edits this set.
RUN_CONFIG_KEYS = {
    "seed",
    "autoencoder.epochs", "autoencoder.batch_size", "autoencoder.lr",
    "autoencoder.latent_dim",
    "flow.epochs", "flow.batch_size", "flow.lr", "flow.num_layers",
    "flow.scale_clamp", "flow.hidden",
    "score_mode", "score_alpha", "eval_quantile",
    "monitor_window", "monitor_consecutive",
}


# Every subcommand's flags.  Adding or removing a flag edits this table.
COMMAND_FLAGS = {
    "gen-synth": {"--config", "--out", "--seed"},
    "train": {"--config", "--scenario", "--out", "--seed"},
    "eval": {"--config", "--checkpoint", "--scenario", "--out"},
    "simulate": {"--config", "--checkpoint", "--scenario", "--out", "--realtime"},
    "print-config": {"--config", "--seed"},
}


def _key_paths(data, prefix=()):
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


OTHER_JSON = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))
NUMBERS = st.one_of(
    st.sampled_from([0, -1, 1, 2, 64, 65, -1.5, 1.5, 1e308, -1e308, 10 ** 30]),
    st.integers(-10 ** 20, 10 ** 20),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def mutated(draw, valid):
    data = copy.deepcopy(valid)
    path = draw(st.sampled_from(list(_key_paths(valid))))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    kind = draw(st.sampled_from(["drop", "other_type", "number"]))
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(OTHER_JSON if kind == "other_type" else NUMBERS)
    return data


@settings(max_examples=150, derandomize=True, deadline=None)
@given(mutated(VALID_RUN))
def test_mutated_run_config_exits_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.json"
        cfg.write_text(json.dumps(data))
        assert main(["print-config", "--config", str(cfg)]) in (0, 2)
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["run.json"]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(mutated(VALID_SYNTH))
def test_mutated_synth_spec_loads_or_raises_config_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(data))
        try:
            from_dict(SynthSpec, json.loads(spec.read_text()), "synth spec")
        except ConfigError:
            # Rejected at load, so gen-synth exits 2 before writing anything.
            out = Path(tmp) / "out"
            assert main(["gen-synth", "--config", str(spec), "--out", str(out)]) == 2
            assert not out.exists()
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["spec.json"]


def test_run_config_keys_are_pinned():
    def leaves(data, prefix=""):
        for key, value in data.items():
            if isinstance(value, dict):
                yield from leaves(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    assert set(leaves(VALID_RUN)) == RUN_CONFIG_KEYS
    assert len(RUN_CONFIG_KEYS) == 16


def test_command_flags_are_pinned():
    subcommands = next(action for action in build_parser()._actions
                       if action.dest == "command").choices
    assert {name: {flag for action in parser._actions for flag in action.option_strings
                   if flag not in ("-h", "--help")}
            for name, parser in subcommands.items()} == COMMAND_FLAGS


@pytest.mark.parametrize("key", ["out", "scenario"] + [
    f"{section}.{name}" for section in ("autoencoder", "flow")
    for name in ("beta1", "beta2", "epsilon")])
def test_removed_key_is_unknown(key):
    """Paths come from flags and Adam's constants are fixed, so a config
    that sets one of them names an unknown key."""
    section, _, name = key.rpartition(".")
    data = {section: {name: 0.5}} if section else {name: "x"}
    label = f"{section} keys" if section else "run config keys"
    with pytest.raises(ConfigError, match=f"unknown {label}: \\['{name}'\\]"):
        RunConfig.from_dict(data)
