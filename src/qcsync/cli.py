"""Command-line interface.

Subcommands:

    run        execute a builtin or file scenario, write a result bundle
    reproduce  run a reference-figure bundle (fig2..fig5)
    validate   schema-check a scenario file without executing it
    tdev       recompute a TDEV curve from a series CSV
    detect     apply the detectors to a series CSV

Exit codes: 0 success, 1 configuration/schema problem, 2 correlation-peak
acquisition failure, 3 gap-rate failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .detection import (
    CusumConfig,
    ThresholdConfig,
    collect_alarms,
    cusum_drift,
    score,
    threshold_monitor,
    write_alarms_csv,
)
from .errors import (
    AcquisitionError,
    ConfigurationError,
    EmptySeriesError,
    GapError,
    GapRateError,
    NoPeakError,
    QcsyncError,
    SchemaError,
)
from .estimator import ClockDifferenceSeries
from .runner import reproduce, run_scenario
from .scenario import FIGURE_IDS, builtin_names, validate_scenario
from .stability import tdev

_EXIT_CONFIG = 1
_EXIT_ACQUISITION = 2
_EXIT_GAPS = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qcsync",
        description=(
            "Photon-pair clock synchronization sandbox: simulate tunable "
            "asymmetric delay attacks, recover the clock difference and "
            "quantify the stability damage."
        ),
    )
    parser.add_argument("--version", action="version", version=f"qcsync {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario (builtin name or JSON file)")
    run.add_argument("scenario", help=f"builtin ({', '.join(builtin_names())}) or path")
    run.add_argument("--out-dir", type=Path, default=None, help="result bundle directory")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--mode", choices=["full_sim", "analytic"], default=None)
    run.add_argument("--epoch-s", type=float, default=None, help="override the epoch length")

    rep = sub.add_parser("reproduce", help="run a reference-figure scenario bundle")
    rep.add_argument("figure", choices=list(FIGURE_IDS))
    rep.add_argument("--out-dir", type=Path, default=Path("runs"))
    rep.add_argument("--seed", type=int, default=None, help="override every scenario seed")

    val = sub.add_parser("validate", help="validate a scenario file")
    val.add_argument("scenario", type=Path)

    tdv = sub.add_parser("tdev", help="recompute TDEV from a series CSV")
    tdv.add_argument("series", type=Path)
    tdv.add_argument("--out", type=Path, default=None, help="write the curve as CSV")
    tdv.add_argument(
        "--tau",
        type=float,
        action="append",
        default=None,
        metavar="SECONDS",
        help="report the grid point nearest this averaging time (repeatable)",
    )

    det = sub.add_parser("detect", help="apply detectors to a series CSV")
    det.add_argument("series", type=Path)
    det.add_argument("--threshold-ps", type=float, default=None)
    det.add_argument("--baseline-window", type=int, default=60)
    det.add_argument("--cusum-k", type=float, default=None, help="reference drift per epoch, ps")
    det.add_argument("--cusum-h", type=float, default=None, help="decision limit, ps")
    det.add_argument("--onset-s", type=float, default=None, help="attack onset for scoring")
    det.add_argument("--out-dir", type=Path, default=None)
    return parser


def _cmd_run(args):
    result = run_scenario(
        args.scenario, args.out_dir, seed=args.seed, mode=args.mode, epoch_s=args.epoch_s
    )
    series = result.series
    print(
        f"{result.scenario.name}: {len(series)} epochs, {series.gap_count()} gaps, "
        f"seed {result.scenario.run.seed}, mode {result.scenario.mode.value}"
    )
    if result.tdev is not None:
        first = result.tdev.points[0]
        last = result.tdev.points[-1]
        print(
            f"tdev: {first.tdev_ps:.3f} ps @ {first.tau_s:g} s ... "
            f"{last.tdev_ps:.3f} ps @ {last.tau_s:g} s"
        )
    if result.alarms is not None:
        print(f"alarms: {len(result.alarms)}")
    if args.out_dir is not None:
        print(f"wrote {args.out_dir}")
    return 0


def _cmd_reproduce(args):
    results = reproduce(args.figure, args.out_dir, seed=args.seed)
    for name, result in results.items():
        print(f"{args.figure}/{name}: {len(result.series)} epochs, {result.series.gap_count()} gaps")
    print(f"wrote {Path(args.out_dir) / args.figure}")
    return 0


def _cmd_validate(args):
    issues = validate_scenario(args.scenario)
    if not issues:
        print(f"{args.scenario}: ok")
        return 0
    for path, message in issues:
        where = path if path else "(document)"
        print(f"{args.scenario}: {where}: {message}", file=sys.stderr)
    return _EXIT_CONFIG


def _cmd_tdev(args):
    series = ClockDifferenceSeries.from_csv(args.series)
    curve = tdev(series.deltas(), series.epoch_length_s)
    if args.out is not None:
        curve.to_csv(args.out)
        print(f"wrote {args.out}")
    if args.tau:
        for target in args.tau:
            p = curve.nearest(target)
            print(f"tau {target:g} s -> nearest m={p.m} (tau {p.tau_s:g} s): {p.tdev_ps:.4f} ps")
    elif args.out is None:
        print("tau_s,tdev_ps,m,n_terms")
        for p in curve.points:
            print(f"{p.tau_s!r},{p.tdev_ps!r},{p.m},{p.n_terms}")
    return 0


def _cmd_detect(args):
    series = ClockDifferenceSeries.from_csv(args.series)
    threshold = cusum = None
    if args.threshold_ps is not None:
        threshold = ThresholdConfig(
            baseline_window_epochs=args.baseline_window, threshold_ps=args.threshold_ps
        )
    if args.cusum_k is not None or args.cusum_h is not None:
        if args.cusum_k is None or args.cusum_h is None:
            raise ConfigurationError("--cusum-k and --cusum-h must be given together")
        cusum = CusumConfig(reference_drift_ps=args.cusum_k, decision_limit_ps=args.cusum_h)
    if threshold is None and cusum is None:
        raise ConfigurationError("nothing to do: give --threshold-ps and/or --cusum-k/--cusum-h")
    alarms = collect_alarms(series, ((threshold_monitor, threshold), (cusum_drift, cusum)))

    for a in alarms:
        print(f"alarm {a.kind.value} at {a.epoch_start_s:g} s, magnitude {a.magnitude_ps:.2f} ps")
    if not alarms:
        print("no alarms")

    if args.onset_s is not None:
        span = series.points[-1].epoch_start_s + series.epoch_length_s
        s = score(alarms, args.onset_s, span)
        print(json.dumps(dataclasses.asdict(s), sort_keys=True))
    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_alarms_csv(alarms, out / "alarms.csv")
        print(f"wrote {out / 'alarms.csv'}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "reproduce": _cmd_reproduce,
    "validate": _cmd_validate,
    "tdev": _cmd_tdev,
    "detect": _cmd_detect,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SchemaError as exc:
        for path, message in exc.issues:
            where = path if path else "(document)"
            print(f"error: {where}: {message}", file=sys.stderr)
        return _EXIT_CONFIG
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (AcquisitionError, NoPeakError) as exc:
        print(f"acquisition failure: {exc}", file=sys.stderr)
        return _EXIT_ACQUISITION
    except (GapRateError, GapError, EmptySeriesError) as exc:
        print(f"gap failure: {exc}", file=sys.stderr)
        return _EXIT_GAPS
    except QcsyncError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
