"""CLI exit codes of `parl run` and `parl eval --verify`, byte-identical reruns of `parl run`,
`parl gen` writing the same inputs as `parl run`, a runtime that needs no scipy or numpy.ma,
`parl eval` and `parl report` that load no OpenSSL, and `main` parsing a command with that
command's parser alone."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import parl
from parl import cli, codec, harness
from parl.config import OUTPUT_ROOT_ENV, ExperimentConfig

RUN_FLAGS = ["--robots", "2", "--samples-per-task", "3"]


def _run(monkeypatch, root):
    """`parl run` into root/parl-out; the relative output dir keeps it out of the bytes."""
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(root))
    assert cli.main(["run", *RUN_FLAGS, "--output-dir", "parl-out"]) == 0
    return root / "parl-out"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _run(monkeypatch, tmp_path_factory.mktemp("first"))


def _tree(path):
    return {
        p.relative_to(path).as_posix(): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def test_eval_verify_passes_on_fresh_run(run_dir, capsys):
    assert cli.main(["eval", str(run_dir), "--verify"]) == 0
    assert "VERIFY PASS" in capsys.readouterr().out


def test_eval_verify_fails_after_report_edit(run_dir, tmp_path, capsys):
    edited = tmp_path / "edited"
    shutil.copytree(run_dir, edited)
    report_path = edited / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["arms"]["local"]["robot-1"]["overall_error"] += 0.01
    report_path.write_text(json.dumps(report), encoding="utf-8")
    assert cli.main(["eval", str(edited), "--verify"]) == 2
    out = capsys.readouterr().out
    assert "VERIFY FAIL: local/robot-1" in out
    assert out.count("VERIFY FAIL") == 1


@pytest.mark.parametrize(
    "model_file,unverified",
    [
        (harness.ARM_MODEL_FILES[harness.ARM_LOCAL].format(key="robot-0"), ["local/robot-0"]),
        (harness.CENTRALIZED_MODEL_FILE, ["centralized/robot-0", "centralized/robot-1"]),
    ],
)
def test_eval_verify_fails_for_each_reported_score_without_its_model(
    run_dir, tmp_path, capsys, model_file, unverified
):
    broken = tmp_path / "broken"
    shutil.copytree(run_dir, broken)
    (broken / model_file).unlink()
    assert cli.main(["eval", str(broken), "--verify"]) == 2
    fails = [line for line in capsys.readouterr().out.splitlines() if "VERIFY FAIL" in line]
    assert fails == [
        f"VERIFY FAIL: {name}: no saved model to recompute it from" for name in unverified
    ]


def _with_report(run_dir, tmp_path, edit):
    """A copy of the run whose report.json text is edit(text)."""
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    report_path = copy / "report.json"
    report_path.write_text(edit(report_path.read_text(encoding="utf-8")), encoding="utf-8")
    return copy


def test_unreadable_report_is_a_configuration_error(run_dir, tmp_path, capsys):
    copy = _with_report(run_dir, tmp_path, lambda text: text[: len(text) // 2])
    assert cli.main(["eval", str(copy), "--verify"]) == 3
    assert "is not readable JSON" in capsys.readouterr().err
    assert cli.main(["report", str(copy)]) == 3
    assert "is not readable JSON" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["overall_error", "overall_failure_rate"])
def test_report_entry_without_a_score_fails_verify(run_dir, tmp_path, capsys, field):
    def drop(text):
        doc = json.loads(text)
        del doc["arms"]["local"]["robot-0"][field]
        return json.dumps(doc)

    copy = _with_report(run_dir, tmp_path, drop)
    assert cli.main(["eval", str(copy), "--verify"]) == 2
    fails = [line for line in capsys.readouterr().out.splitlines() if "VERIFY FAIL" in line]
    assert fails == [f"VERIFY FAIL: local/robot-0: report.json entry has no numeric {field}"]
    assert cli.main(["report", str(copy)]) == 3
    assert f"is not a run report: KeyError('{field}')" in capsys.readouterr().err


def test_nan_report_score_fails_verify(run_dir, tmp_path, capsys):
    def poison(text):
        doc = json.loads(text)
        doc["arms"]["parl"]["robot-1"]["overall_failure_rate"] = float("nan")
        return json.dumps(doc)

    copy = _with_report(run_dir, tmp_path, poison)
    assert cli.main(["eval", str(copy), "--verify"]) == 2
    assert "VERIFY FAIL: parl/robot-1: recomputed" in capsys.readouterr().out


def test_verify_names_each_field_that_differs(run_dir, tmp_path, capsys):
    saved = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))["arms"]
    rate = saved["parl"]["robot-1"]["overall_failure_rate"]
    straight_rate = saved["parl"]["robot-1"]["per_task_failure_rate"]["straight"]
    local = saved["local"]["robot-0"]
    error, local_rate = local["overall_error"], local["overall_failure_rate"]
    turn_error, turn_count = local["per_task_error"]["turn"], local["per_task_count"]["turn"]
    threshold = local["fail_threshold"]

    def edit(text):
        doc = json.loads(text)
        doc["arms"]["parl"]["robot-1"]["overall_failure_rate"] = rate + 0.5
        doc["arms"]["parl"]["robot-1"]["per_task_failure_rate"]["straight"] = straight_rate + 0.5
        entry = doc["arms"]["local"]["robot-0"]
        entry["overall_error"] = error + 0.25
        entry["overall_failure_rate"] = local_rate + 0.5
        entry["per_task_error"]["turn"] = 0.999
        entry["per_task_count"]["turn"] = 77
        entry["fail_threshold"] = 0.5
        return json.dumps(doc)

    copy = _with_report(run_dir, tmp_path, edit)
    assert cli.main(["eval", str(copy), "--verify"]) == 2
    fails = [line for line in capsys.readouterr().out.splitlines() if "VERIFY FAIL" in line]
    assert fails == [
        f"VERIFY FAIL: local/robot-0: recomputed per_task_error.turn {turn_error!r} vs saved "
        f"0.999, per_task_count.turn {turn_count!r} vs saved 77, overall_error {error!r} vs "
        f"saved {error + 0.25!r}, overall_failure_rate {local_rate!r} vs saved "
        f"{local_rate + 0.5!r}, fail_threshold {threshold!r} vs saved 0.5",
        f"VERIFY FAIL: parl/robot-1: recomputed per_task_failure_rate.straight "
        f"{straight_rate!r} vs saved {straight_rate + 0.5!r}, overall_failure_rate {rate!r} "
        f"vs saved {rate + 0.5!r}",
    ]


def _set(path, value):
    """An edit of a report.json entry: the field at path, a tuple of keys, set to value."""

    def edit(entry):
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value

    return edit


def _rename_turn(entry):
    entry["per_task_error"]["left"] = entry["per_task_error"].pop("turn")


@pytest.mark.parametrize(
    "edit,why",
    [
        (_set(("per_task_error", "turn"), 0.999), "recomputed per_task_error.turn "),
        (_set(("per_task_count", "turn"), 77), "recomputed per_task_count.turn "),
        (_set(("per_task_count", "turn"), 1.0), "recomputed per_task_count.turn 1 vs saved 1.0"),
        (_set(("fail_threshold",), 0.5), "recomputed fail_threshold 0.05 vs saved 0.5"),
        (
            _rename_turn,
            "report.json entry has no numeric per_task_error.turn, "
            "unexpected per_task_error.left",
        ),
        (
            _set(("per_task_count",), [1, 1, 1]),
            "report.json entry has no numeric per_task_count.avoid-cars, no numeric "
            "per_task_count.straight, no numeric per_task_count.turn, unexpected per_task_count",
        ),
        (
            _set(("per_task_failure_rate", "turn"), {"rate": 0.0}),
            "report.json entry has no numeric per_task_failure_rate.turn, "
            "unexpected per_task_failure_rate.turn.rate",
        ),
        (_set(("fail_threshold",), None), "report.json entry has no numeric fail_threshold"),
        # A dotted key is not the nested field it spells.
        (
            _set(("per_task_error.turn",), 0.1),
            "report.json entry has unexpected per_task_error.turn",
        ),
    ],
    ids=[
        "task-error", "task-count", "float-task-count", "threshold", "renamed-task",
        "task-map-not-an-object", "task-rate-not-a-number", "no-threshold", "dotted-key",
    ],
)
def test_verify_compares_every_field_of_an_entry(run_dir, tmp_path, capsys, edit, why):
    def edit_entry(text):
        doc = json.loads(text)
        edit(doc["arms"]["local"]["robot-0"])
        return json.dumps(doc)

    copy = _with_report(run_dir, tmp_path, edit_entry)
    assert cli.main(["eval", str(copy), "--verify"]) == 2
    [fail] = [line for line in capsys.readouterr().out.splitlines() if "VERIFY FAIL" in line]
    assert fail.startswith(f"VERIFY FAIL: local/robot-0: {why}")


def test_verify_allows_floats_within_1e_9(run_dir, tmp_path, capsys):
    def nudge(text):
        doc = json.loads(text)
        doc["arms"]["local"]["robot-0"]["per_task_error"]["turn"] += 1e-12
        return json.dumps(doc)

    copy = _with_report(run_dir, tmp_path, nudge)
    assert cli.main(["eval", str(copy), "--verify"]) == 0
    assert "VERIFY PASS" in capsys.readouterr().out


def test_rescore_equals_the_arms_the_run_scored(tmp_path):
    """`parl eval` and `parl run` score through one function, so their tables are equal."""
    config = ExperimentConfig(robots=3, samples_per_task=3, output_dir=str(tmp_path))
    report = harness.run_experiment(config)
    assert harness.rescore(tmp_path) == report["arms"]


# Bench size (perfbench's paper3 at seed 0) and the default config at seed
# offset 1; both runs have acceptance problems.
@pytest.mark.parametrize(
    "flags",
    [
        ["--robots", "3", "--samples-per-task", "3", "--world-seed", "31", "--augment-seed", "11"],
        ["--world-seed", "32", "--augment-seed", "12"],
    ],
    ids=["bench", "seed-offset-1"],
)
def test_run_check_is_the_verdict_of_the_saved_report(tmp_path, monkeypatch, capsys, flags):
    """`parl run` returns, prints and checks the document report.json holds."""
    returned = []

    def recording(config):
        returned.append(harness.run_experiment(config))
        return returned[-1]

    monkeypatch.setattr(cli, "run_experiment", recording)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert cli.main(["run", "--check", *flags, "--output-dir", "parl-out"]) == 2
    out = capsys.readouterr().out.splitlines()
    saved = json.loads((tmp_path / "parl-out" / "report.json").read_text(encoding="utf-8"))
    assert returned == [saved]
    problems = harness.check_acceptance(saved)
    assert problems
    assert [line for line in out if line.startswith("CHECK")] == [
        f"CHECK FAIL: {problem}" for problem in problems
    ]
    summary = []
    for arm in sorted(saved["arms"]):
        err, rate = harness.overall(saved["arms"][arm])
        summary.append(f"{arm:14s} error={err:.4f} failure_rate={rate:.4f}")
    assert out[: len(summary)] == summary


def test_boolean_report_scores_fail_verify(run_dir, tmp_path, capsys):
    # JSON false and true equal 0 and 1 in Python, so saved as booleans these
    # failure rates would still match their recomputed values.
    replaced = []

    def to_bool(text):
        doc = json.loads(text)
        for arm, entries in doc["arms"].items():
            for key, entry in entries.items():
                if entry["overall_failure_rate"] in (0.0, 1.0):
                    entry["overall_failure_rate"] = bool(entry["overall_failure_rate"])
                    replaced.append((arm, key))
        return json.dumps(doc)

    copy = _with_report(run_dir, tmp_path, to_bool)
    assert replaced
    assert cli.main(["eval", str(copy), "--verify"]) == 2
    fails = [line for line in capsys.readouterr().out.splitlines() if "VERIFY FAIL" in line]
    assert fails == [
        f"VERIFY FAIL: {arm}/{key}: report.json entry has no numeric overall_failure_rate"
        for arm, key in sorted(replaced)
    ]


def test_report_without_arms_is_a_configuration_error(run_dir, tmp_path, capsys):
    copy = _with_report(run_dir, tmp_path, lambda text: "[]")
    assert cli.main(["eval", str(copy), "--verify"]) == 3
    assert "has no table of arms" in capsys.readouterr().err
    assert cli.main(["report", str(copy)]) == 3


@pytest.mark.parametrize("command", [["report"], ["eval", "--verify"]])
def test_report_json_that_is_a_directory_is_a_configuration_error(
    run_dir, tmp_path, capsys, command
):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    (copy / "report.json").unlink()
    (copy / "report.json").mkdir()
    assert cli.main([command[0], str(copy), *command[1:]]) == 3
    assert f"cannot read {copy / 'report.json'}" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["missing/report.md", "."], ids=["missing-dir", "a-directory"])
def test_report_out_that_cannot_be_written_is_a_configuration_error(
    run_dir, tmp_path, capsys, out
):
    path = tmp_path / out
    assert cli.main(["report", str(run_dir), "--out", str(path)]) == 3
    assert f"cannot write {path}" in capsys.readouterr().err


def test_missing_config_file_is_a_configuration_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.txt"
    assert cli.main(["run", "--config", str(missing)]) == 3
    assert f"cannot read config file {missing}" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_a_configuration_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"robots = 2\xff\n")
    assert cli.main(["run", "--config", str(path)]) == 3
    assert "can't decode byte 0xff" in capsys.readouterr().err


def test_eval_without_a_split_file_is_a_configuration_error(run_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(run_dir, broken)
    (broken / "robot-1_holdout.ds1").unlink()
    assert cli.main(["eval", str(broken), "--verify"]) == 3
    assert f"cannot read split file {broken / 'robot-1_holdout.ds1'}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, size, error",
    [
        ("robot-0_holdout.ds1", 1_000, "truncated dataset"),
        ("models/local_robot-0.dm1", 100, "truncated model container"),
    ],
)
def test_eval_with_a_truncated_run_file_is_a_configuration_error(
    run_dir, tmp_path, capsys, name, size, error
):
    broken = tmp_path / "broken"
    shutil.copytree(run_dir, broken)
    path = broken / name
    path.write_bytes(path.read_bytes()[:size])
    assert cli.main(["eval", str(broken), "--verify"]) == 3
    err = capsys.readouterr().err
    assert f"cannot decode {'model' if name.startswith('models/') else 'split'} file {path}" in err
    assert error in err


# What a model file may hold instead of its one policy, made from a run
# directory's other files.
_OTHER_RECORDS = {
    "styles": lambda run: codec.read_models(run / "models" / "styles.dm1"),
    "one-style": lambda run: codec.read_models(run / "models" / "styles.dm1")[:1],
    "predictors": lambda run: codec.read_models(run / "models" / "predictors.dm1"),
    "two-policies": lambda run: codec.read_models(run / "models" / "local_robot-1.dm1") * 2,
    "no-record": lambda run: [],
}


@pytest.mark.parametrize("records", sorted(_OTHER_RECORDS))
@pytest.mark.parametrize("name", ["models/local_robot-0.dm1", "models/centralized.dm1"])
def test_a_model_file_without_one_policy_is_a_configuration_error(
    run_dir, tmp_path, capsys, name, records
):
    """Such files once ended eval in a ValueError or AttributeError traceback, exit 1."""
    broken = tmp_path / "broken"
    shutil.copytree(run_dir, broken)
    codec.write_models(broken / name, _OTHER_RECORDS[records](run_dir))
    assert cli.main(["eval", str(broken), "--verify"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"model file {broken / name} holds" in err
    assert "not one PolicyModel" in err


@pytest.mark.parametrize("command", ["run", "gen"])
def test_output_dir_that_is_a_file_is_a_configuration_error(tmp_path, capsys, command):
    path = tmp_path / "a-file"
    path.write_text("not a directory\n", encoding="utf-8")
    assert cli.main([command, *RUN_FLAGS, "--output-dir", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"output directory {path} is unusable" in err
    assert path.read_text(encoding="utf-8") == "not a directory\n"


def test_eval_without_config_is_a_configuration_error(tmp_path, capsys):
    assert cli.main(["eval", str(tmp_path), "--verify"]) == 3
    assert "no config.txt" in capsys.readouterr().err


def test_eval_verify_without_report_is_a_configuration_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert cli.main(["gen", *RUN_FLAGS, "--output-dir", "parl-gen"]) == 0
    assert cli.main(["eval", str(tmp_path / "parl-gen"), "--verify"]) == 3
    assert "no report.json" in capsys.readouterr().err


def test_rerun_gives_byte_identical_artifacts(run_dir, tmp_path, monkeypatch):
    again = _run(monkeypatch, tmp_path)
    first, second = _tree(run_dir), _tree(again)
    assert sorted(first) == sorted(second)
    assert "report.json" in first and "models/parl_shared.dm1" in first
    assert [k for k in first if first[k] != second[k]] == []


def test_stage_failure_exits_1_with_json_diagnostic(tmp_path, capsys):
    # One robot uploads too few layouts for the cloud to fit its scorer.
    argv = ["run", "--robots", "1", "--samples-per-task", "3", "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    failure = json.loads(capsys.readouterr().err)
    assert failure["error"] == "stage-failure"
    assert (failure["stage"], failure["node"]) == ("parl-round", "cloud-0")
    # config.txt is written last, so the failed run is not a run to eval.
    assert not (tmp_path / "config.txt").exists()
    assert cli.main(["eval", str(tmp_path)]) == 3


def test_gen_writes_the_inputs_run_writes(run_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert cli.main(["gen", *RUN_FLAGS, "--output-dir", "parl-gen"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:2]] == ["robot-0", "robot-1"]
    gen, run = _tree(tmp_path / "parl-gen"), _tree(run_dir)
    inputs = [k for k in sorted(run) if k.endswith(".ds1")] + ["models/styles.dm1"]
    assert len(inputs) == 5  # two robots' train and holdout splits, and their styles
    assert sorted(gen) == sorted(inputs + ["config.txt"])
    assert [k for k in inputs if gen[k] != run[k]] == []
    # report.json records each split file's sha256.
    split_hashes = json.loads(run["report.json"])["split_hashes"]
    assert {
        f"{robot}_{split}.ds1": digest
        for robot, digests in split_hashes.items()
        for split, digest in digests.items()
    } == {k: hashlib.sha256(run[k]).hexdigest() for k in inputs if k.endswith(".ds1")}
    gen_config = gen["config.txt"].decode().splitlines()
    run_config = run["config.txt"].decode().splitlines()
    assert len(gen_config) == len(run_config)
    assert [(a, b) for a, b in zip(gen_config, run_config) if a != b] == [
        ("output_dir = parl-gen", "output_dir = parl-out")
    ]


def _fresh_python(code, *args, cwd, env_extra=()):
    """Run code in a new interpreter that imports parl from this checkout."""
    env = dict(os.environ, **dict(env_extra))
    src = str(Path(parl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, check=False,
    )


# Modules a command has no use for, each costing import time and memory:
# scipy and numpy.ma in every command, and OpenSSL's _hashlib (about 3.5 MB)
# outside the commands that write a run's inputs and hash its splits.
_UNUSED_MODULES = "('scipy', 'numpy.ma', '_hashlib')"


def test_importing_the_cli_loads_no_scipy(tmp_path):
    proc = _fresh_python(
        f"import sys, parl.cli; print([m for m in {_UNUSED_MODULES} if m in sys.modules])",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs the CLI with the given arguments, then prints which unused modules
# it loaded on the last line.
_CLI_THEN_MODULES = (
    "import sys, parl.cli; code = parl.cli.main(sys.argv[1:]); "
    f"print([m for m in {_UNUSED_MODULES} if m in sys.modules]); sys.exit(code)"
)


def test_run_check_and_eval_verify_load_no_scipy_or_numpy_ma(tmp_path):
    # The benchmark's paper3 size: three robots, three samples per task.
    env = {OUTPUT_ROOT_ENV: str(tmp_path)}
    run = _fresh_python(
        _CLI_THEN_MODULES, "run", "--check", "--robots", "3", "--samples-per-task", "3",
        "--output-dir", "parl-out", cwd=tmp_path, env_extra=env,
    )
    assert run.returncode in (0, 2), run.stderr  # 2: an acceptance check is a result
    # The run hashes its splits (its numpy.random import loads _hashlib as well).
    assert run.stdout.splitlines()[-1] == "['_hashlib']"
    verify = _fresh_python(_CLI_THEN_MODULES, "eval", "parl-out", "--verify", cwd=tmp_path)
    assert verify.returncode == 0, verify.stdout + verify.stderr
    assert "VERIFY PASS" in verify.stdout
    assert verify.stdout.splitlines()[-1] == "[]"
    report = _fresh_python(_CLI_THEN_MODULES, "report", "parl-out", cwd=tmp_path)
    assert report.returncode == 0, report.stdout + report.stderr
    *markdown, modules = report.stdout.splitlines(keepends=True)
    assert "".join(markdown) == (tmp_path / "parl-out" / "report.md").read_text(encoding="utf-8")
    assert modules == "[]\n"


# Blocks `import scipy` (a None entry in sys.modules raises ImportError), then
# runs the CLI with the given arguments.
_NO_SCIPY_CLI = (
    "import sys; sys.modules['scipy'] = None; import parl.cli; "
    "sys.exit(parl.cli.main(sys.argv[1:]))"
)


def test_run_check_and_eval_verify_run_without_scipy(run_dir, tmp_path):
    env = {OUTPUT_ROOT_ENV: str(tmp_path)}
    run = _fresh_python(
        _NO_SCIPY_CLI, "run", "--check", *RUN_FLAGS, "--output-dir", "parl-out",
        cwd=tmp_path, env_extra=env,
    )
    assert run.returncode in (0, 2), run.stderr  # 2: an acceptance check is a result
    assert "CHECK " in run.stdout
    blocked = tmp_path / "parl-out"
    verify = _fresh_python(_NO_SCIPY_CLI, "eval", str(blocked), "--verify", cwd=tmp_path)
    assert verify.returncode == 0, verify.stdout + verify.stderr
    assert "VERIFY PASS" in verify.stdout
    first, second = _tree(run_dir), _tree(blocked)
    assert sorted(first) == sorted(second)
    assert [k for k in first if first[k] != second[k]] == []


COMMANDS = ["gen", "run", "eval", "report"]


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code


def _subparser_help(command):
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command].format_help()


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_is_the_full_parsers_subparser_help(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_code([command, "--help"]) == 0
    assert capsys.readouterr().out == _subparser_help(command)


@pytest.mark.parametrize(
    "argv", [["run", "--robots", "x"], ["gen", "--no-such-flag"], ["eval", "a", "b"]]
)
def test_a_usage_error_after_a_command_exits_3_naming_the_command(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_code(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"usage: parl {argv[0]} ")
    assert f"\nparl {argv[0]}: error: " in err


@pytest.mark.parametrize("argv, code", [([], 3), (["--help"], 0), (["bogus"], 3)])
def test_no_command_prints_the_top_level_usage(argv, code, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_code(argv) == code
    printed = capsys.readouterr()
    assert (printed.err if code else printed.out).startswith(cli.build_parser().format_usage())


def test_main_without_arguments_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["parl", "report", "--help"])
    assert _exit_code(None) == 0
    assert capsys.readouterr().out == _subparser_help("report")


def test_eval_verify_builds_only_the_eval_parser(run_dir, monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert cli.main(["eval", str(run_dir), "--verify"]) == 0
    assert "VERIFY PASS" in capsys.readouterr().out
    assert built == ["parl eval"]
