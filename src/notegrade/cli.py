"""Command-line interface.

Subcommands: score (one sample), batch (a manifest), validate (format
legality), project (canonical streams). Exit codes: 0 on success, 1 for
usage and configuration problems, 2 when benchmark data itself (ground
truth, manifest, external scores) is unusable.

The NOTEGRADE_CONFIG environment variable may name a JSON file of
defaults (weights, lambda, grid, tuning, workers, cnc_lenient,
ast_length_cap); command-line flags override it.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .errors import (ConfigError, NotegradeError, ParseError, SchemaError,
                     json_object, read_input)
from .harness import (
    EvalConfig,
    SampleRecord,
    json_text,
    load_external_scores,
    load_manifest,
    run_batch,
    score_text,
    write_report,
)
from .metrics import MetricWeights, parse_numbers
from .pitch import STANDARD_TUNING, KeySignature, PitchError, Tuning
from .projection import (DEFAULT_GRID, project, project_ground_truth,
                         sequence_to_json_dict)
from .parsers import load_ground_truth, parse_document, validate_format
from .score import NotationFormat, TimeSignature
from .tasks import CapabilityWeights, Task

ENV_CONFIG_VAR = "NOTEGRADE_CONFIG"

_ENV_KEYS = {"weights", "lambda", "grid", "tuning", "workers",
             "cnc_lenient", "ast_length_cap"}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1."""

    def error(self, message):
        raise ConfigError(message)


def _load_env_config() -> dict:
    path = os.environ.get(ENV_CONFIG_VAR)
    if not path:
        return {}
    what = f"{ENV_CONFIG_VAR} file"
    return json_object(read_input(path, what, ConfigError), what, ConfigError,
                       known=_ENV_KEYS, decode=True)


def _parse_grid(text: str) -> Fraction:
    [grid] = parse_numbers(text, 1, "grid")
    return EvalConfig(grid=grid).grid  # EvalConfig holds the grid > 0 check


def _layered(env: dict, key: str, flag: str | None, parse, default):
    """The flag's value over the file's over ``default``; the file's
    value is parsed, so checked, even when the flag overrides it."""
    value = parse(str(env[key])) if key in env else default
    return value if flag is None else parse(flag)


def _build_config(env: dict, weights_flag: str | None = None,
                  lambda_flag: str | None = None,
                  grid_flag: str | None = None) -> EvalConfig:
    weights = _layered(env, "weights", weights_flag, MetricWeights.parse,
                       MetricWeights())
    task_weights = _layered(env, "lambda", lambda_flag,
                            CapabilityWeights.parse, CapabilityWeights())
    grid = _layered(env, "grid", grid_flag, _parse_grid, DEFAULT_GRID)
    tuning = STANDARD_TUNING
    if "tuning" in env:
        try:
            tuning = Tuning.from_json(env["tuning"])
        except PitchError as exc:
            raise ConfigError(str(exc)) from None
    return EvalConfig(weights=weights, task_weights=task_weights, grid=grid,
                      tuning=tuning, cnc_lenient=env.get("cnc_lenient", False),
                      ast_length_cap=env.get("ast_length_cap"))


def _load_smg_declaration(path: str) -> tuple[KeySignature, TimeSignature]:
    obj = json_object(read_input(path, path, SchemaError), path, SchemaError,
                      required={"key", "meter"}, decode=True)
    if not isinstance(obj["key"], str) or not isinstance(obj["meter"], str):
        raise SchemaError(f"{path}: 'key' and 'meter' must be strings")
    try:
        return KeySignature.parse(obj["key"]), TimeSignature.parse(obj["meter"])
    except ParseError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _print_json(obj: dict) -> None:
    print(json_text(obj))


def _cmd_score(args: argparse.Namespace, env: dict) -> int:
    config = _build_config(env, weights_flag=args.weights, grid_flag=args.grid)
    task = Task.parse(args.task)
    fmt = NotationFormat.parse(args.format)
    prediction = read_input(args.pred, args.pred, ConfigError, model=True)
    sample_id = Path(args.pred).stem
    gt = answer = key = meter = None
    if task is Task.VSU:
        answer = read_input(args.gt, args.gt, SchemaError)
        if not answer:
            raise SchemaError(f"vsu answer {args.gt} is empty")
    elif task is Task.SMG:
        key, meter = _load_smg_declaration(args.gt)
    else:
        gt = load_ground_truth(args.gt)
        sample_id = gt.id
    record = SampleRecord(id=sample_id, task=task, format=fmt,
                          pred_path=Path(args.pred), answer=answer,
                          declared_key=key, declared_meter=meter)
    _print_json(score_text(record, config, gt, prediction).to_json_dict())
    return 0


def _cmd_batch(args: argparse.Namespace, env: dict) -> int:
    config = _build_config(env, lambda_flag=args.lambda_)
    workers = env.get("workers", 1) if args.workers is None else args.workers
    records = load_manifest(args.manifest)
    external = None
    if args.external_scores is not None:
        external = load_external_scores(args.external_scores)
    report = run_batch(records, config, workers=workers,
                       external_scores=external)
    write_report(report, args.out, args.csv)
    print(f"scored {len(records)} samples; "
          f"capability {float(report.capability()):.4f}; wrote {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace, env: dict) -> int:
    config = _build_config(env)
    fmt = NotationFormat.parse(args.format)
    text = read_input(args.input, args.input, ConfigError, model=True)
    verdict = validate_format(fmt, text, config.tuning)
    _print_json(verdict.to_json_dict())
    return 0


def _cmd_project(args: argparse.Namespace, env: dict) -> int:
    config = _build_config(env)
    if args.key is not None and args.format != "jianpu":
        raise ConfigError("--key only applies to jianpu input")
    if args.format == "gt":
        gt = load_ground_truth(args.input)
        out = {"format": gt.format.value, "key": gt.key.name,
               "meter": gt.meter.text}
        out.update(sequence_to_json_dict(project_ground_truth(gt)))
        _print_json(out)
        return 0
    fmt = NotationFormat.parse(args.format)
    text = read_input(args.input, args.input, ConfigError, model=True)
    try:
        if fmt is NotationFormat.JIANPU and args.key is not None:
            from .parsers.jianpu import parse_jianpu
            doc = parse_jianpu(text, key_override=KeySignature.parse(args.key))
        else:
            doc = parse_document(fmt, text, config.tuning)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = {"format": doc.format.value, "key": doc.key.name,
           "meter": doc.meter.text}
    out.update(sequence_to_json_dict(project(doc)))
    _print_json(out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="notegrade",
                     description="Deterministic scoring for symbolic music "
                                 "notation benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="score a single prediction")
    score.add_argument("--task", required=True,
                       choices=[t.value for t in Task])
    score.add_argument("--format", required=True,
                       choices=[f.value for f in NotationFormat])
    score.add_argument("--gt", required=True,
                       help="ground truth JSON (cnc/ast), reference answer "
                            "text (vsu), or key/meter declaration JSON (smg)")
    score.add_argument("--pred", required=True, help="model output file")
    score.add_argument("--weights", help="pitch,duration,format e.g. 0.5,0.3,0.2")
    score.add_argument("--grid", help="duration quantization grid, e.g. 1/4")

    batch = sub.add_parser("batch", help="score a JSONL manifest")
    batch.add_argument("--manifest", required=True)
    batch.add_argument("--workers", type=int)
    batch.add_argument("--out", required=True, help="report JSON path")
    batch.add_argument("--csv", help="optional task-by-format CSV path")
    batch.add_argument("--lambda", dest="lambda_",
                       help="task weights vsu,cnc,ast,smg e.g. 0.25,0.25,0.25,0.25")
    batch.add_argument("--external-scores",
                       help="JSON of judge scores keyed by sample id")

    validate = sub.add_parser("validate", help="check format legality")
    validate.add_argument("--format", required=True,
                          choices=[f.value for f in NotationFormat])
    validate.add_argument("--input", required=True)

    project_cmd = sub.add_parser(
        "project", help="print canonical pitch and duration streams")
    project_cmd.add_argument("--format", required=True,
                             choices=[f.value for f in NotationFormat] + ["gt"])
    project_cmd.add_argument("--input", required=True)
    project_cmd.add_argument("--key", help="key override for jianpu input")
    return parser


_COMMANDS = {
    "score": _cmd_score,
    "batch": _cmd_batch,
    "validate": _cmd_validate,
    "project": _cmd_project,
}


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        env = _load_env_config()
        return _COMMANDS[args.command](args, env)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotegradeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
