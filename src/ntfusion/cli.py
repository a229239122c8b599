"""Command-line entry point.

Subcommands: train, fuse, prune, eval, distill, experiment. `fuse` and
`distill` read members from disk as they need them, so averaging, pairwise NT
and distillation hold a few at a time, not all k; joint NT holds all k.
`experiment` writes report.csv, report.json, timings.json and, when a report
has a fine-tune series, report.svg into its output directory.
Exit codes: 0 success, 1 usage error (synopsis on stderr), 2 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import experiments, reporting
from .checkpoint import CheckpointSequence, load_checkpoint, save_checkpoint
from .errors import BadSpec, NTError, UsageError
from .experiments import _TRAIN, _get, _train_config, build_arch, build_dataset
from .fusion import EnsembleBundle, FusionPlan, fuse
from .network import init_network
from .pruning import KeepPolicy, magnitude_prune
from .tensor import RngStream
from .training import KdConfig, TrainConfig, distill, ensemble_logits, evaluate, train

_METHODS = {"nt": "nt", "nt-iter": "nt_iterative", "nt-rec": "nt_recursive",
            "avg": "avg", "align": "align"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="ntfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON spec")
    p.add_argument("--spec", required=True, help="JSON file: dataset, arch, train, seed")
    p.add_argument("--out", required=True, help="output checkpoint path")

    p = sub.add_parser("fuse", help="fuse two or more checkpoints")
    p.add_argument("--method", required=True, choices=sorted(_METHODS))
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--sparsity", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("prune", help="structured magnitude pruning of a checkpoint")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--keep-counts", type=_int_list, default=None,
                   help="comma-separated per-layer keeps")
    p.add_argument("--sparsity", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--data", required=True, help="dataset descriptor (JSON file or literal)")
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("distill", help="distill teachers into a student checkpoint")
    p.add_argument("--student", required=True)
    p.add_argument("--teachers", nargs="+", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--temperature", type=float, default=KdConfig.temperature)
    p.add_argument("--soft-weight", type=float, default=KdConfig.soft_weight)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("experiment", help="run a declarative experiment spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _parse_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise BadSpec(f"{what} is not JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise BadSpec(f"{what} must be a JSON object")
    return doc


def _read_json(path) -> dict:
    return _parse_json(Path(path).read_text(encoding="utf-8"), str(path))


def _load_descriptor(text: str) -> dict:
    candidate = Path(text)
    if candidate.exists():
        return _read_json(candidate)
    text = text.strip()
    if text.startswith("{"):
        return _parse_json(text, "--data")
    raise UsageError(f"--data expects a JSON file or literal, got {text!r}")


def _cmd_train(args) -> int:
    doc = _read_json(args.spec)
    train_ds, test_ds = build_dataset(doc.get("dataset"))
    cfg = _train_config(_get(doc, "train", dict, {}), _TRAIN)
    seed = _get(doc, "seed", int, 0)
    net = init_network(build_arch(doc.get("arch")), RngStream(seed, "init"))
    net, history = train(net, train_ds, test_ds, cfg.reseeded(seed))
    metrics = {"test_accuracy": history.records[-1].test_accuracy} if history.records else {}
    save_checkpoint(net, args.out, {"seed": seed, "epoch": cfg.epochs, "metrics": metrics})
    if history.records:
        print(f"trained {cfg.epochs} epochs, test accuracy "
              f"{history.records[-1].test_accuracy:.4f}")
    return 0


def _cmd_fuse(args) -> int:
    if len(args.inputs) < 2:
        raise UsageError("fuse needs at least two input checkpoints (k >= 2)")
    plan = FusionPlan(method=_METHODS[args.method], sparsity=args.sparsity)
    members = CheckpointSequence(args.inputs)  # each method loads a member as it reads it
    fused = fuse(EnsembleBundle(members), plan)
    save_checkpoint(fused, args.out, {"fused_from": list(args.inputs), "method": args.method})
    print(f"fused {len(members)} checkpoints with {args.method} -> {args.out}")
    return 0


def _cmd_prune(args) -> int:
    if (args.keep_counts is None) == (args.sparsity is None):
        raise UsageError("prune needs exactly one of --keep-counts or --sparsity")
    net, _ = load_checkpoint(args.input)
    if args.keep_counts is not None:
        policy = KeepPolicy.keep_counts(args.keep_counts)
    else:
        policy = KeepPolicy.sparsity(args.sparsity)
    save_checkpoint(magnitude_prune(net, policy), args.out, {"pruned_from": args.input})
    print(f"pruned {args.input} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    net, _ = load_checkpoint(args.input)
    train_ds, test_ds = build_dataset(_load_descriptor(args.data))
    ds = test_ds if args.split == "test" else train_ds
    metrics = evaluate(net, ds)
    print(json.dumps({"accuracy": metrics["accuracy"], "mean_loss": metrics["mean_loss"]}))
    return 0


def _cmd_distill(args) -> int:
    student, _ = load_checkpoint(args.student)
    teachers = EnsembleBundle(CheckpointSequence(args.teachers))  # each loads as it is read
    train_ds, test_ds = build_dataset(_load_descriptor(args.data))
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr).reseeded(args.seed)
    kd = KdConfig(temperature=args.temperature, soft_weight=args.soft_weight)
    student, history = distill(student, ensemble_logits(teachers.members, train_ds), train_ds,
                               test_ds, cfg, kd)
    save_checkpoint(student, args.out, {"distilled_from": list(args.teachers)})
    if history.records:
        print(f"distilled {args.epochs} epochs, test accuracy "
              f"{history.records[-1].test_accuracy:.4f}")
    return 0


def _cmd_experiment(args) -> int:
    reports = experiments.run_spec(_read_json(args.spec))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reporting.write_csv(reports, out / "report.csv")
    reporting.write_json(reports, out / "report.json")
    reporting.write_timings(reports, out / "timings.json")
    reporting.write_svg(reports, out / "report.svg")
    print(f"wrote {len(reports)} report(s) to {args.out}")
    return 0


_HANDLERS = {
    "train": _cmd_train,
    "fuse": _cmd_fuse,
    "prune": _cmd_prune,
    "eval": _cmd_eval,
    "distill": _cmd_distill,
    "experiment": _cmd_experiment,
}


def cli_dispatch(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
