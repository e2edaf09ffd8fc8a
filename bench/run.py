"""qcsync campaign benchmark.

    python3 bench/run.py --workload jump100 --seed 7 --seconds 15 --trace 0

Runs ``qcsync.run_scenario`` on one seeded workload, one fresh process per
campaign and one process at a time, for ``--seconds`` seconds (at least one
campaign).  Every run passes the correctness gate or counts as failed.
With ``--trace 0`` it reports the end-to-end metrics, with times at
reference speed (see ``reference.py``); with ``--trace 1`` it pairs each
untraced campaign with a traced one and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Work files go to ``bench/.work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from reference import at_reference_speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

CHILD_TIMEOUT_S = 150.0


class ChildFailed(Exception):
    pass


def _spawn(mode, scenario_path, out_dir, result_path):
    """Run bench/child.py to completion; returns its result with ``setup_s``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "child.py"), mode]
    cmd += [str(scenario_path), str(out_dir), str(result_path)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} run exceeded {CHILD_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0 or not Path(result_path).is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"{mode} run exited {proc.returncode}: {tail[0]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["loaded_at"] - spawned_at
    return result


class Session:
    """The child runs of one invocation, with the campaigns' failures."""

    def __init__(self, work, scenario_path):
        self.work = work
        self.scenario_path = scenario_path
        self.setups = []
        self.attempted = 0
        self.problems = []
        self._n = 0

    def _spawn(self, mode):
        self._n += 1
        tag = f"{self._n:03d}-{mode}"
        try:
            result = _spawn(mode, self.scenario_path, self.work / tag, self.work / f"{tag}.json")
        except ChildFailed as exc:
            return tag, {"problems": [str(exc)]}
        self.setups.append(result["setup_s"])
        result["tag"] = tag
        result["dir"] = self.work / tag
        return tag, result

    def prepare(self, mode):
        """A reference or count run; its failure ends the benchmark."""
        tag, result = self._spawn(mode)
        if result.get("problems"):
            raise ChildFailed(f"{tag}: {'; '.join(result['problems'])}")
        return result

    def campaign(self, mode):
        """One campaign run's result; a failed check is recorded, not dropped."""
        self.attempted += 1
        tag, result = self._spawn(mode)
        self.fail(tag, result.get("problems", []))
        return result

    def fail(self, tag, problems):
        self.problems.extend((tag, p) for p in problems)

    @property
    def failed(self):
        return len({tag for tag, _ in self.problems})


def _end_to_end(session, seconds):
    records = session.prepare("count")["records"]
    runs, refs = [], []
    started = time.monotonic()
    while session.attempted == 0 or time.monotonic() - started < seconds:
        run = session.campaign("plain")
        refs.append(session.prepare("reference")["reference_s"])
        if "wall_s" in run:
            # Each campaign is scaled by the reference run right after it.
            run["at_reference_s"] = at_reference_speed(run["wall_s"], refs[-1])
            runs.append(run)
    if not runs:
        return None
    walls = [r["wall_s"] for r in runs]
    reference_s = statistics.median(refs)
    wall_s = statistics.median(r["at_reference_s"] for r in runs)
    return {
        "wall_s": (wall_s, "s"),
        "records_per_s": (records / wall_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": (at_reference_speed(statistics.median(session.setups), reference_s), "s"),
        "pass_frac": (1.0 - session.failed / session.attempted, "ratio"),
    }, {
        "wall_raw_s": statistics.median(walls),
        "wall_raw_max_s": max(walls),
        "wall_runs": len(walls),
        "setup_raw_s": statistics.median(session.setups),
        "setup_runs": len(session.setups),
        "reference_s": reference_s,
    }


def _layer_metrics(run, plain):
    """Per-layer metrics of one traced run and its untraced twin, by name.

    A layer's time is its own: the time of its spans less that of the spans
    opened inside them (``coarse_acquire`` inside ``per_epoch_series``).
    Times and counts add up over repeated calls of a layer; RSS takes the
    highest.
    """
    spans = run["spans"]
    own, counts, rss = Counter(), Counter(), Counter()
    for span in spans:
        took = span["end"] - span["start"]
        own[span["name"]] += took
        if span["parent"] is not None:
            own[spans[span["parent"]]["name"]] -= took
        counts.update({f"{span['name']}.{k}": n for k, n in span["counts"].items()})
        rss[span["name"]] = max(rss[span["name"]], span["rss_mb"])
    total_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "run_scenario")
    pairs = counts["simulation.generate_pairs.pairs"]
    detected = "simulation.propagate_and_detect"
    records = counts[f"{detected}.records"]
    bundle = sum(f.stat().st_size for f in run["dir"].iterdir())
    return {
        "scenario.load_s": (own["scenario.load"], "s"),
        "simulation.generate_pairs_s": (own["simulation.generate_pairs"], "s"),
        "simulation.propagate_and_detect_s": (own[detected], "s"),
        "simulation.pairs": (pairs, "count"),
        "simulation.records": (records, "count"),
        "simulation.records.IdlerA": (counts[f"{detected}.IDLER_A"], "count"),
        "simulation.records.SignalB": (counts[f"{detected}.SIGNAL_B"], "count"),
        "simulation.records.ReturnA": (counts[f"{detected}.RETURN_A"], "count"),
        "simulation.records_per_pair": (records / pairs, "ratio"),
        "simulation.rss_mb": (rss[detected], "MB"),
        "estimator.coarse_acquire_s": (own["estimator.coarse_acquire"], "s"),
        "estimator.per_epoch_series_s": (own["estimator.per_epoch_series"], "s"),
        "estimator.epochs": (counts["estimator.per_epoch_series.epochs"], "count"),
        "estimator.gap_epochs": (counts["estimator.per_epoch_series.gap_epochs"], "count"),
        "stability.tdev_s": (own["stability.tdev"], "s"),
        "stability.tdev_points": (counts["stability.tdev.points"], "count"),
        "detection.threshold_monitor_s": (own["detection.threshold_monitor"], "s"),
        "detection.cusum_drift_s": (own["detection.cusum_drift"], "s"),
        "detection.alarms": (
            counts["detection.threshold_monitor.alarms"] + counts["detection.cusum_drift.alarms"],
            "count",
        ),
        "runner.write_campaign_s": (own["runner.write_campaign"], "s"),
        "runner.bundle_bytes": (bundle, "bytes"),
        "trace.overhead_s": (total_s - plain["wall_s"], "s"),
    }


def _per_layer(session, seconds):
    from checks import trace_problems

    pairs = []
    started = time.monotonic()
    while session.attempted == 0 or time.monotonic() - started < seconds:
        plain = session.campaign("plain")
        run = session.campaign("traced")
        if "wall_s" not in plain or "spans" not in run:
            continue
        session.fail(run["tag"], trace_problems(run["dir"], plain["dir"], run["missing_spans"]))
        if not run["missing_spans"]:
            pairs.append((plain, run))
    if not pairs:
        return None
    (session.work / "spans.json").write_text(json.dumps([run["spans"] for _, run in pairs]))
    layers = [_layer_metrics(run, plain) for plain, run in pairs]
    metrics = {
        name: (statistics.median(layer[name][0] for layer in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    return metrics, {"traced_runs": len(pairs)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the builtin's seed")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qcsync" / "__init__.py").is_file():
        sys.exit(f"error: no qcsync sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from qcsync import validate_scenario_dict
    from workloads import WORKLOADS, scenario_doc

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    doc = scenario_doc(args.workload, args.seed)
    issues = validate_scenario_dict(doc)
    if issues:
        sys.exit(f"error: generated scenario is invalid: {issues}")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario_path = work / "scenario.json"
    scenario_path.write_text(json.dumps(doc, indent=2, sort_keys=True))

    session = Session(work, scenario_path)
    measure = _per_layer if args.trace else _end_to_end
    try:
        measured = measure(session, args.seconds)
    except ChildFailed as exc:
        sys.exit(f"error: {exc}")
    for tag, problem in session.problems:
        print(f"FAIL {tag}: {problem}")
    if measured is None:
        sys.exit("error: no run completed, so there is nothing to report")
    metrics, extra = measured

    print(f"workload {args.workload}  seed {doc['run']['seed']}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    for name, value in extra.items():
        print(f"  {name:36s} {value:>16.6g}")
    print(f"  {'fail_frac':36s} {session.failed / session.attempted:>16.6g} ratio")
    print(
        json.dumps(
            {
                "correct": not session.problems,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
