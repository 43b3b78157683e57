"""Command-line front end.

Subcommands mirror the pipeline functions one to one:

    generate   sweep a model over a control-parameter grid
    train      fit a detector on a dataset
    scan       score a dataset with a trained detector
    stability  retrain over several windows and compare score curves
    kl         divergence of each spectrum from the origin spectrum
    towers     rescaled conformal-tower table at one control value

Exit codes: 0 success, 2 bad configuration or arguments, 3 training did
not converge, 4 a ground-state solve failed.  When ``--out`` is omitted,
outputs land in $ESGAN_DATA_DIR (default: the working directory).
"""

import argparse
import sys

from . import pipeline
from .gan import ConfigError, default_train_config
from .pipeline import ConvergenceError, SolverError, SweepConfig


def _add_config_arg(p):
    p.add_argument(
        "--config",
        help="file of 'key value' lines applied as defaults for the flags",
    )


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
    p.add_argument("--chi-max", type=int, default=64)
    p.add_argument("--svd-cutoff", type=float, default=1e-10)
    p.add_argument("--max-sweeps", type=int, default=12)
    p.add_argument("--n-max", type=int)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out")
    _add_config_arg(p)

    p = sub.add_parser("train", help="fit a detector on a dataset")
    p.add_argument("dataset")
    p.add_argument("--train-window", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--val-window", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs-max", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--no-adversarial", action="store_true",
                   help="plain reconstruction training, same schedule")
    p.add_argument("--out")
    p.add_argument("--log")
    _add_config_arg(p)

    p = sub.add_parser("scan", help="score a dataset with a detector")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("--kl", action="store_true",
                   help="append the divergence baseline column")
    p.add_argument("--out")
    _add_config_arg(p)

    p = sub.add_parser("stability", help="retrain across several windows")
    p.add_argument("dataset")
    p.add_argument("--window", type=float, nargs=2, action="append",
                   required=True, metavar=("LO", "HI"),
                   help="training window; give two or more")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    _add_config_arg(p)

    p = sub.add_parser("kl", help="divergence of each spectrum from the origin")
    p.add_argument("dataset")
    p.add_argument("--out")
    _add_config_arg(p)

    p = sub.add_parser("towers", help="rescaled tower table at one point")
    p.add_argument("dataset")
    p.add_argument("--control", type=float, required=True)
    p.add_argument("--channel", choices=["density", "spin"])
    p.add_argument("--out")
    _add_config_arg(p)

    return parser


def _apply_config_file(parser, args, argv):
    """Read 'key value...' lines and fold them in as argument defaults.

    Explicit command-line flags win; the config file only fills in values
    the user did not give.  Keys use the long flag spelling without the
    leading dashes (underscores and dashes both accepted).
    """
    if not getattr(args, "config", None):
        return args
    entries = {}
    try:
        with open(args.config) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, *vals = line.split()
                if not vals:
                    raise ConfigError(f"config line needs a value: {raw!r}")
                entries[key.replace("-", "_")] = vals
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    rebuilt = list(argv)
    for key, vals in entries.items():
        flag = "--" + key.replace("_", "-")
        if any(a == flag or a.startswith(flag + "=") for a in argv):
            continue
        rebuilt.extend([flag] + vals)
    return parser.parse_args(rebuilt)


def run(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_config_file(parser, args, argv)

    if args.command == "generate":
        if args.control_min is None or args.control_max is None:
            lo, hi, step = pipeline.DEFAULT_GRIDS[args.model]
            if args.control_min is None:
                args.control_min = lo
            if args.control_max is None:
                args.control_max = hi
            if args.step is None and args.count is None:
                args.step = step
        elif args.step is None and args.count is None:
            args.step = pipeline.DEFAULT_GRIDS[args.model][2]
        cfg = SweepConfig(
            model_id=args.model,
            L=args.length,
            control_min=args.control_min,
            control_max=args.control_max,
            step=args.step,
            count=args.count,
            chi_max=args.chi_max,
            svd_cutoff=args.svd_cutoff,
            max_sweeps=args.max_sweeps,
            n_max=args.n_max,
            seed=args.seed,
            out_path=args.out,
        )
        ds, path = pipeline.generate(cfg)
        print(f"{len(ds.records)} records -> {path}")

    elif args.command == "train":
        ds = pipeline.read_dataset(args.dataset)
        overrides = {"seed": args.seed}
        if args.epochs_max is not None:
            overrides["epochs_max"] = args.epochs_max
        if args.batch_size is not None:
            overrides["batch_size"] = args.batch_size
        if args.no_adversarial:
            overrides["adversarial"] = False
        cfg = default_train_config(ds.model_id, **overrides)
        det, path = pipeline.train_cmd(
            args.dataset,
            tuple(args.train_window),
            tuple(args.val_window),
            cfg=cfg,
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
        cfg_kw = {"seed": args.seed}
        ds = pipeline.read_dataset(args.dataset)
        cfg = default_train_config(ds.model_id, **cfg_kw)
        curve, path = pipeline.stability_cmd(
            args.dataset,
            [tuple(w) for w in args.window],
            cfg=cfg,
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
    except ConfigError as exc:
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
