"""Command-line interface.

Subcommands::

    tailsim run         closed-loop scenario -> log CSV / metrics JSON
    tailsim sysid fit   bench CSV -> fitted coefficient parameter file
    tailsim sysid synth generate synthetic bench data
    tailsim validate    strict configuration check

Exit status: 0 on success, 1 on runtime failure (with a machine-readable
``error: category=...`` line on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import config as config_mod
from . import scenarios, sysid
from .errors import TailsimError

_RUN_OVERRIDE_FLAGS = (
    # (CLI dest, config key)
    ("scenario", "scenario"),
    ("duration", "duration_s"),
    ("seed", "seed"),
    ("estimator", "estimator"),
)


def _count(text: str) -> int:
    """A grid point count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailsim",
        description="Deterministic tail-sitter flight simulator and control stack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a closed-loop scenario")
    run.add_argument("--scenario", choices=config_mod.SCENARIO_KINDS,
                     help="override the configured scenario kind")
    run.add_argument("--duration", type=float, metavar="S",
                     help="override the scenario duration, seconds")
    run.add_argument("--config", metavar="PATH",
                     help="key=value overrides applied to the defaults")
    run.add_argument("--seed", type=int, help="override the run seed")
    run.add_argument("--estimator", choices=config_mod.ESTIMATOR_KINDS,
                     help="state estimator feeding the controller")
    run.add_argument("--out-log", metavar="PATH", help="write the run log CSV here")
    run.add_argument("--out-metrics", metavar="PATH",
                     help="write the metrics JSON here")

    syd = sub.add_parser("sysid", help="static-bench coefficient identification")
    syd_sub = syd.add_subparsers(dest="sysid_command", required=True)

    fit = syd_sub.add_parser("fit", help="least-squares fit of bench records")
    fit.add_argument("--in", dest="infile", required=True, metavar="CSV",
                     help="bench records CSV")
    fit.add_argument("--out", dest="outfile", required=True, metavar="PATH",
                     help="fitted parameter file (config-compatible keys)")
    fit.add_argument("--constants", metavar="LIST",
                     help=f"comma-separated subset of {','.join(sysid.ALL_CONSTANTS)}")
    fit.add_argument("--intercept", action="store_true",
                     help="also estimate per-channel measurement biases")

    synth = syd_sub.add_parser("synth", help="generate synthetic bench records")
    synth.add_argument("--out", dest="outfile", required=True, metavar="CSV")
    synth.add_argument("--omega-min", type=float, default=150.0, metavar="RAD_S")
    synth.add_argument("--omega-max", type=float, default=790.0, metavar="RAD_S")
    synth.add_argument("--omega-count", type=_count, default=12, metavar="N")
    synth.add_argument("--delta-max", type=float, default=0.785, metavar="RAD",
                       help="deflections sweep symmetrically up to this")
    synth.add_argument("--delta-count", type=_count, default=13, metavar="N")
    synth.add_argument("--noise", type=float, default=0.0, metavar="REL",
                       help="multiplicative noise level (e.g. 0.05)")
    synth.add_argument("--seed", type=int, default=0)

    val = sub.add_parser("validate", help="strict configuration check")
    val.add_argument("config", metavar="PATH", help="configuration file to check")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    base = config_mod.Config()
    if args.config is not None:
        cfg = config_mod.load_config(args.config, base)
    else:
        cfg = base
    overrides = {
        key: str(getattr(args, dest))
        for dest, key in _RUN_OVERRIDE_FLAGS
        if getattr(args, dest) is not None
    }
    if overrides:
        cfg = config_mod.apply_overrides(cfg, overrides)

    log, metrics = scenarios.run_scenario(cfg)
    if args.out_log:
        log.write_csv(args.out_log)
    if args.out_metrics:
        metrics.write_json(args.out_metrics)
    for key, value in metrics.to_dict().items():
        print(f"{key} = {value:.6g}")
    return 0


def _cmd_sysid_fit(args: argparse.Namespace) -> int:
    records = sysid.read_records_csv(args.infile)
    constants = sysid.ALL_CONSTANTS
    if args.constants:
        constants = tuple(c.strip() for c in args.constants.split(",") if c.strip())
    fit = sysid.fit_params(records, constants=constants, intercept=args.intercept)
    sysid.write_fit_params(args.outfile, fit)
    for name in constants:
        print(f"{name} = {fit.values[name]:.17g}")
    return 0


def _cmd_sysid_synth(args: argparse.Namespace) -> int:
    params = config_mod.Config().params
    omegas = np.linspace(args.omega_min, args.omega_max, args.omega_count)
    deltas = np.linspace(-args.delta_max, args.delta_max, args.delta_count)
    records = sysid.generate_synthetic(
        params, omegas, deltas, relative_noise=args.noise, seed=args.seed
    )
    sysid.write_records_csv(args.outfile, records)
    print(f"wrote {len(records)} records to {args.outfile}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config_mod.validate_file(args.config)
    print("configuration OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sysid":
            if args.sysid_command == "fit":
                return _cmd_sysid_fit(args)
            return _cmd_sysid_synth(args)
        return _cmd_validate(args)
    except TailsimError as exc:
        print(f"error: category={exc.category}", file=sys.stderr)
        for line in str(exc).splitlines():
            print(f"  {line}", file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: category=io", file=sys.stderr)
        print(f"  {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
