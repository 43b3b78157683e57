"""Command-line front end.

Subcommands mirror the pipeline functions one to one:

    generate   sweep a model over a control-parameter grid
    train      fit a detector on a dataset
    scan       score a dataset with a trained detector
    stability  retrain over several windows and compare score curves
    kl         divergence of each spectrum from the origin spectrum
    towers     rescaled conformal-tower table at one control value

Exit codes: 0 success, 2 bad configuration or arguments, a missing or
malformed input file or a missing output directory, 3 training did not
converge, 4 a ground-state solve failed.  When ``--out`` is omitted,
outputs land in $ESGAN_DATA_DIR (default: the working directory).
"""

import argparse
import dataclasses
import sys

from . import pipeline
from .gan import ConfigError, TrainConfig
from .pipeline import ConvergenceError, SolverError, SweepConfig


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esgan",
        description="entanglement-spectrum anomaly detection for 1d lattice models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sweep a model over a control grid")
    p.add_argument("model", choices=sorted(pipeline.DEFAULT_GRIDS))
    p.add_argument("-L", "--length", type=int, required=True)
    p.add_argument("--min", type=float, dest="control_min")
    p.add_argument("--max", type=float, dest="control_max")
    p.add_argument("--step", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--chi-max", type=int)
    p.add_argument("--svd-cutoff", type=float)
    p.add_argument("--max-sweeps", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="fit a detector on a dataset")
    p.add_argument("dataset")
    p.add_argument("--train-window", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--val-window", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs-max", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--no-adversarial", dest="adversarial", action="store_false",
                   default=None, help="plain reconstruction training, same schedule")
    p.add_argument("--log")

    p = sub.add_parser("scan", help="score a dataset with a detector")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("--kl", action="store_true",
                   help="append the divergence baseline column")

    p = sub.add_parser("stability", help="retrain across several windows")
    p.add_argument("dataset")
    p.add_argument("--window", type=float, nargs=2, action="append",
                   required=True, metavar=("LO", "HI"),
                   help="training window; give two or more")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("kl", help="divergence of each spectrum from the origin")
    p.add_argument("dataset")

    p = sub.add_parser("towers", help="rescaled tower table at one point")
    p.add_argument("dataset")
    p.add_argument("--control", type=float, required=True)
    p.add_argument("--channel", choices=["density", "spin"])

    for p in sub.choices.values():
        p.add_argument("--out", help="output file (default: under $ESGAN_DATA_DIR)")
        p.add_argument(
            "--config",
            help="file of 'key value' lines applied as defaults for the flags",
        )
    parser.commands = sub.choices
    return parser


def _apply_config_file(parser, args, argv):
    """Read 'key value...' lines and fold them in as argument defaults.

    Explicit command-line flags win; the config file only fills in the
    destinations the command line leaves unset, whichever spelling of a
    flag it used.  Keys use the long flag spelling without the leading
    dashes (underscores and dashes both accepted); a later line for the
    same flag replaces an earlier one.  A flag that takes no value
    (``no-adversarial``, ``kl``) is set by a line holding its key alone.
    """
    if not getattr(args, "config", None):
        return args
    actions = {
        flag: action for action in parser.commands[args.command]._actions
        if action.dest != "help"
        for flag in action.option_strings
    }
    entries = {}
    try:
        with open(args.config) as fh:
            for n, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, *vals = line.split()
                flag = "--" + key.replace("_", "-")
                action = actions.get(flag)
                if action is None:
                    raise ConfigError(f"{args.config}:{n}: unknown key {key}: {raw!r}")
                if bool(vals) == (action.nargs == 0):
                    need = f"{key} takes no value" if vals else "config line needs a value"
                    raise ConfigError(f"{args.config}:{n}: {need}: {raw!r}")
                entries[action.dest] = [flag, *vals]
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    # with every default suppressed, parsing argv names the destinations
    # it sets, however it spells the flags (short, long or abbreviated)
    probe = build_parser()
    for action in probe.commands[args.command]._actions:
        action.default = argparse.SUPPRESS
    given = vars(probe.parse_args(argv))
    rebuilt = list(argv)
    for dest, tokens in entries.items():
        if dest not in given:
            rebuilt.extend(tokens)
    return parser.parse_args(rebuilt)


def _given(args, config_class):
    """The flags set on the command line or in --config that name a field
    of ``config_class``."""
    names = {f.name for f in dataclasses.fields(config_class)}
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def run(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_config_file(parser, args, argv)

    if args.command == "generate":
        # flags left unset fall back to default_sweep's grid and
        # SweepConfig's defaults; a given count replaces the default step
        given = _given(args, SweepConfig)
        if args.count is not None:
            given.setdefault("step", None)
        cfg = pipeline.default_sweep(args.model, args.length, out_path=args.out, **given)
        ds, path = pipeline.generate(cfg)
        print(f"{len(ds.records)} records -> {path}")

    elif args.command == "train":
        det, path = pipeline.train_cmd(
            args.dataset,
            tuple(args.train_window),
            tuple(args.val_window),
            overrides=_given(args, TrainConfig),
            out_path=args.out,
            log_path=args.log,
        )
        print(
            f"converged={det.converged} "
            f"train_loss={det.mean_train_loss:.3e} -> {path}"
        )

    elif args.command == "scan":
        curve, path = pipeline.scan_cmd(
            args.checkpoint,
            args.dataset,
            out_path=args.out,
            with_kl=args.kl,
        )
        print(f"{len(curve.rows)} points -> {path}")

    elif args.command == "stability":
        curve, path = pipeline.stability_cmd(
            args.dataset,
            [tuple(w) for w in args.window],
            overrides=_given(args, TrainConfig),
            out_path=args.out,
        )
        print(f"{len(curve.rows)} points -> {path}")

    elif args.command == "kl":
        curve, path = pipeline.kl_cmd(args.dataset, out_path=args.out)
        print(f"{len(curve.rows)} points -> {path}")

    elif args.command == "towers":
        curve, path = pipeline.towers_cmd(
            args.dataset, args.control, channel=args.channel, out_path=args.out
        )
        print(f"{len(curve.rows)} levels -> {path}")

    return 0


def main(argv=None):
    try:
        return run(argv)
    except (OSError, ValueError) as exc:  # ConfigError and bad input files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
