"""Command-line entry point.

Subcommands:

- gen: generate the per-robot worlds and write a run's inputs (styles and
  datasets) without running it
- run: execute the full comparison experiment (optionally with --check)
- eval: re-score models saved by a previous run against its holdout sets
- report: re-render a saved report.json as a markdown table

Every ExperimentConfig field is exposed as a flag; --config loads a key/value
file first and flags override it. Exit codes: 0 on success, 2 when --check
finds an acceptance problem or eval --verify finds a mismatch, 3 on any
configuration error (bad flag, bad file, unknown key, an output directory
that cannot be created, a run file that is missing or does not decode, a
model file that holds anything but one policy).

`main` builds only the named command's parser, `parl <command>`, with the
same arguments and help as that command's subparser in `build_parser()`.
It builds the full four-command parser only for no argument, -h/--help or
an unknown command, to print `parl`'s usage.

The harness writes a run directory's inputs and models and scores them
(`write_inputs`, `run_experiment`, `rescore`); this module names none of
the split or model files. A run's results are the report document that
report.json holds: `run` prints and checks the one `run_experiment`
returns, `eval` compares its rescored entries with the saved ones, and
`report` renders the saved one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

from .config import ExperimentConfig, read_config, write_config
from .errors import ConfigurationError, ParlError
from .harness import (
    StageFailure,
    check_acceptance,
    overall,
    render_markdown,
    rescore,
    resolve_output_dir,
    robot_key,
    run_experiment,
    write_inputs,
)

_FLAG_HELP = {
    "robots": "number of robot agents",
    "samples_per_task": "scenarios per robot per task",
    "fan_out": "augmented variants requested per input sample",
    "tau": "plausibility threshold for accepting augmented layouts",
    "beta": "fine-tune mixing weight toward the shared model",
    "ridge_lambda": "ridge regularization strength",
    "fail_threshold": "torque error above this counts as a failure",
    "holdout_fraction": "fraction of each task's samples held out",
    "world_seed": "seed for world generation and styles",
    "augment_seed": "seed for the augmentation pipeline",
    "protocol_seed": "recorded in config.txt only; nothing reads it (ROADMAP item 8 deletes it)",
    "output_dir": "artifact directory (relative paths resolve under PARL_OUTPUT_ROOT)",
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the config-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="config file; flags override its values")
    for field in dataclasses.fields(ExperimentConfig):
        flag = "--" + field.name.replace("_", "-")
        help_text = _FLAG_HELP[field.name]
        if field.type == "int":
            parser.add_argument(flag, dest=field.name, default=None, type=int, help=help_text)
        elif field.type == "float":
            parser.add_argument(flag, dest=field.name, default=None, type=float, help=help_text)
        else:
            parser.add_argument(flag, dest=field.name, default=None, help=help_text)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base = read_config(args.config) if args.config else ExperimentConfig()
    overrides = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(ExperimentConfig)
        if getattr(args, field.name) is not None
    }
    return dataclasses.replace(base, **overrides)


def _run_dir(args: argparse.Namespace) -> Path:
    if args.dir is not None:
        return Path(args.dir)
    return resolve_output_dir(ExperimentConfig())


def cmd_gen(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out = resolve_output_dir(config)
    train, holdout, _ = write_inputs(config, out)
    write_config(out / "config.txt", config)
    for robot in range(config.robots):
        print(f"{robot_key(robot)}: {len(train[robot])} train / {len(holdout[robot])} holdout")
    print(f"worlds written to {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = run_experiment(config)
    out = resolve_output_dir(config)
    for arm in sorted(report["arms"]):
        err, rate = overall(report["arms"][arm])
        print(f"{arm:14s} error={err:.4f} failure_rate={rate:.4f}")
    print(f"artifacts written to {out}")
    if args.check:
        problems = check_acceptance(report)
        for problem in problems:
            print(f"CHECK FAIL: {problem}")
        if problems:
            return 2
        print("CHECK PASS")
    return 0


def _read_report(path: Path) -> dict:
    """report.json's document.

    A file that cannot be read, is not JSON or has no table of arms is a
    configuration error naming it.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{path} is not readable JSON: {exc}") from exc
    arms = doc.get("arms") if isinstance(doc, dict) else None
    if not (isinstance(arms, dict) and all(isinstance(v, dict) for v in arms.values())):
        raise ConfigurationError(f"{path} has no table of arms")
    return doc


def _leaves(doc: dict, prefix: tuple = ()) -> dict:
    """A JSON object's leaves by key path: {"a": {"b": 1}} gives {("a", "b"): 1}."""
    out = {}
    for key, value in doc.items():
        path = (*prefix, key)
        out.update(_leaves(value, path) if isinstance(value, dict) else {path: value})
    return out


def _verify_mismatch(got: dict, want) -> Optional[str]:
    """Why a recomputed report.json entry (`evaluate`) disagrees with the saved one, or None.

    Every field is compared, a per-task map task by task: the entry must
    name the same tasks, floats must agree within 1e-9, and task counts and
    fail_threshold must be equal.
    """
    if not isinstance(want, dict):
        return "report.json entry is not an object"
    fields, saved = _leaves(got), _leaves(want)
    name = ".".join
    # Exact types: a JSON true or false decodes to a bool, which isinstance counts as an int.
    malformed = [f"no numeric {name(p)}" for p in fields if type(saved.get(p)) not in (int, float)]
    malformed += [f"unexpected {name(p)}" for p in saved if p not in fields]
    if malformed:
        return "report.json entry has " + ", ".join(malformed)

    def agrees(path: tuple, value) -> bool:
        if path[0] in ("fail_threshold", "per_task_count"):
            return type(saved[path]) is type(value) and saved[path] == value
        # Written so that a NaN in report.json is a mismatch.
        return abs(value - saved[path]) <= 1e-9

    differing = [
        f"{name(path)} {value!r} vs saved {saved[path]!r}"
        for path, value in fields.items()
        if not agrees(path, value)
    ]
    return "recomputed " + ", ".join(differing) if differing else None


def cmd_eval(args: argparse.Namespace) -> int:
    run_dir = _run_dir(args)
    if not (run_dir / "config.txt").exists():
        raise ConfigurationError(f"no config.txt under {run_dir}")
    saved = None
    if args.verify:
        if not (run_dir / "report.json").exists():
            raise ConfigurationError(f"no report.json under {run_dir} to verify against")
        saved = _read_report(run_dir / "report.json")["arms"]
    arms = rescore(run_dir)
    for arm in sorted(arms):
        for key in sorted(arms[arm]):
            entry = arms[arm][key]
            print(
                f"{arm:14s} {key}: error={entry['overall_error']:.6f} "
                f"failure_rate={entry['overall_failure_rate']:.6f}"
            )
    if saved is not None:
        # Every evaluation either side holds, recomputed or reported.
        pairs = {(arm, key) for side in (arms, saved) for arm in side for key in side[arm]}
        mismatches = []
        for arm, key in sorted(pairs):
            got, want = arms.get(arm, {}).get(key), saved.get(arm, {}).get(key)
            if want is None:
                mismatches.append(f"{arm}/{key}: missing from report.json")
            elif got is None:
                mismatches.append(f"{arm}/{key}: no saved model to recompute it from")
            elif (why := _verify_mismatch(got, want)) is not None:
                mismatches.append(f"{arm}/{key}: {why}")
        for mismatch in mismatches:
            print(f"VERIFY FAIL: {mismatch}")
        if mismatches:
            return 2
        print("VERIFY PASS: recomputed scores match report.json")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = _run_dir(args)
    path = run_dir / "report.json"
    if not path.exists():
        raise ConfigurationError(f"no report.json under {run_dir}")
    try:
        text = render_markdown(_read_report(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path} is not a run report: {exc!r}") from exc
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot write {args.out}: {exc.strerror}") from exc
        print(f"markdown written to {args.out}")
    else:
        print(text, end="")
    return 0


def _run_arguments(parser: argparse.ArgumentParser) -> None:
    _add_config_flags(parser)
    parser.add_argument(
        "--check", action="store_true",
        help="evaluate acceptance checks; exit 2 if any fail",
    )


def _eval_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dir", nargs="?", default=None, help="run directory (default: output dir)")
    parser.add_argument(
        "--verify", action="store_true",
        help="compare recomputed scores against report.json; exit 2 on mismatch",
    )


def _report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dir", nargs="?", default=None, help="run directory (default: output dir)")
    parser.add_argument("--out", metavar="PATH", help="write markdown here instead of stdout")


# Each command: its one-line help, the function that adds its arguments, and its handler.
_COMMANDS = {
    "gen": ("generate worlds and write datasets", _add_config_flags, cmd_gen),
    "run": ("run the full comparison experiment", _run_arguments, cmd_run),
    "eval": ("re-score saved models from a run directory", _eval_arguments, cmd_eval),
    "report": ("render a saved report.json as markdown", _report_arguments, cmd_report),
}


def _command_parser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """The parser, given command `name`'s arguments and its handler as `func`."""
    _, add_arguments, func = _COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: `parl` and every command as a subparser."""
    parser = _Parser(prog="parl", description="Peer-assisted robotic learning testbed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_text), name)
    return parser


def parse_args(argv: list) -> argparse.Namespace:
    """argv parsed as `main` parses it: by the named command's parser alone, else the full one."""
    if argv and argv[0] in _COMMANDS:
        return _command_parser(_Parser(prog=f"parl {argv[0]}"), argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except StageFailure as exc:
        failure = {"error": "stage-failure", "stage": exc.stage, "node": exc.node,
                   "cause": str(exc.cause)}
        print(json.dumps(failure), file=sys.stderr)
        return 1
    except ParlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
