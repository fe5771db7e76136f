"""Config schema, parsing strictness, and round-trip determinism."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from parl import cli
from parl.config import (
    ExperimentConfig,
    OUTPUT_ROOT_ENV,
    parse_config,
    read_config,
    render_config,
    write_config,
)
from parl.errors import ConfigurationError

# Every field but output_dir drawn valid; output_dir is any text, so the
# round-trip tests cover each value ExperimentConfig accepts.
config_fields = st.fixed_dictionaries(
    {
        "robots": st.integers(min_value=1, max_value=8),
        "samples_per_task": st.integers(min_value=2, max_value=64),
        "fan_out": st.integers(min_value=1, max_value=6),
        "tau": st.floats(min_value=0.0, max_value=1.0),
        "beta": st.floats(min_value=0.0, max_value=1.0),
        "ridge_lambda": st.floats(min_value=0.0, max_value=10.0),
        "fail_threshold": st.floats(min_value=1e-6, max_value=1.0),
        "holdout_fraction": st.floats(min_value=0.01, max_value=0.99),
        "world_seed": st.integers(min_value=0, max_value=2**31),
        "augment_seed": st.integers(min_value=0, max_value=2**31),
        "protocol_seed": st.integers(min_value=0, max_value=2**31),
        "output_dir": st.text(),
    }
)


def _config_or_none(fields):
    """The config, or None where ExperimentConfig rejects the drawn output_dir."""
    try:
        return ExperimentConfig(**fields)
    except ConfigurationError:
        return None


@given(fields=config_fields)
def test_render_parse_round_trip(fields):
    config = _config_or_none(fields)
    if config is not None:
        assert parse_config(render_config(config)) == config


@given(fields=config_fields)
def test_render_is_stable(fields):
    config = _config_or_none(fields)
    if config is not None:
        text = render_config(config)
        assert render_config(parse_config(text)) == text


def test_defaults_are_valid_and_documented():
    config = ExperimentConfig()
    text = render_config(config)
    for f in dataclasses.fields(ExperimentConfig):
        assert f"{f.name} = " in text
    assert OUTPUT_ROOT_ENV == "PARL_OUTPUT_ROOT"


def test_file_round_trip(tmp_path):
    path = tmp_path / "config.txt"
    config = ExperimentConfig(robots=2, tau=0.25, output_dir="alt")
    write_config(path, config)
    assert read_config(path) == config


def test_comments_and_blank_lines_are_ignored():
    text = "# header\n\nrobots = 2  # trailing comment\n\n  \ntau = 0.75\n"
    config = parse_config(text)
    assert config.robots == 2
    assert config.tau == 0.75


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config("robot_count = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config("robots = 2\nrobots = 3\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigurationError, match="key = value"):
        parse_config("robots 3\n")


def test_bad_int_rejected():
    with pytest.raises(ConfigurationError, match="bad value for robots"):
        parse_config("robots = three\n")


def test_bad_float_rejected():
    with pytest.raises(ConfigurationError, match="bad value for tau"):
        parse_config("tau = half\n")


@pytest.mark.parametrize(
    "field,value",
    [
        ("robots", 0),
        ("samples_per_task", 0),
        ("samples_per_task", 1),
        ("fan_out", 0),
        ("tau", 1.5),
        ("beta", -0.1),
        ("ridge_lambda", -1e-9),
        ("ridge_lambda", float("nan")),
        ("ridge_lambda", float("inf")),
        ("fail_threshold", 0.0),
        ("fail_threshold", float("nan")),
        ("fail_threshold", float("inf")),
        ("holdout_fraction", 0.0),
        ("holdout_fraction", 1.0),
        ("world_seed", -1),
        ("output_dir", ""),
        ("output_dir", "runs/#1"),
        ("output_dir", " lead"),
        ("output_dir", "trail\t"),
        ("output_dir", "a\nb"),
        ("output_dir", "a\rb"),
        ("output_dir", "a\u2028b"),
        ("output_dir", "a\0b"),
    ],
)
def test_field_validation(field, value):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{field: value})


def test_parse_applies_same_validation():
    with pytest.raises(ConfigurationError):
        parse_config("holdout_fraction = 1.0\n")


@pytest.mark.parametrize("field", ["ridge_lambda", "fail_threshold"])
@pytest.mark.parametrize("text", ["nan", "inf"])
def test_parse_rejects_non_finite_floats(field, text):
    with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
        parse_config(f"{field} = {text}\n")


@pytest.mark.parametrize("flag", ["--ridge-lambda", "--fail-threshold"])
@pytest.mark.parametrize("text", ["nan", "inf"])
def test_cli_rejects_non_finite_floats(tmp_path, capsys, flag, text):
    argv = ["run", "--robots", "2", "--samples-per-task", "3", flag, text]
    assert cli.main([*argv, "--output-dir", str(tmp_path / "run")]) == 3
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("output_dir", ["runs/#1", " lead", "a\nb"])
def test_run_rejects_an_output_dir_config_txt_cannot_carry(
    tmp_path, monkeypatch, capsys, output_dir
):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    argv = ["run", "--robots", "2", "--samples-per-task", "3"]
    assert cli.main([*argv, "--output-dir", output_dir]) == 3
    assert "output_dir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_rejects_a_config_file_output_dir_with_a_nul(tmp_path, monkeypatch, capsys):
    # A process's argv cannot hold a NUL, so only a config file brings one in.
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    path = tmp_path / "c.txt"
    path.write_text("robots = 2\nsamples_per_task = 3\noutput_dir = a\0b\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 3
    assert "output_dir" in capsys.readouterr().err
    assert not (tmp_path / "root").exists()
