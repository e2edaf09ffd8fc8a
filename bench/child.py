"""One benchmark campaign in a fresh process.

    python3 bench/child.py MODE SCENARIO_JSON OUT_DIR RESULT_JSON

Modes:
  plain   untraced ``run_scenario(scenario, OUT_DIR)``: wall time, peak RSS
  traced  the same campaign with a span around each layer (bench/traced.py)
  count   the simulation alone, for the record count
  reference  the fixed reference kernel (bench/reference.py), no campaign

Every mode first imports qcsync and loads the scenario.

``loaded_at`` (``time.monotonic()``, shared by all processes) marks the
scenario loaded and validated; the parent subtracts its spawn time to get
set-up time.  The process writes RESULT_JSON and exits 0 even when the
campaign fails, so the parent can count the failure.
"""

import json
import sys
import time

import qcsync

import checks
import reference
import spans
import workloads


def _plain(scenario, out_dir, split_s):
    started = time.perf_counter()
    result = qcsync.run_scenario(scenario, out_dir)
    wall_s = time.perf_counter() - started
    peak_rss_mb = spans.rss_high_water_mb()
    problems = checks.series_problems(scenario, result.series, split_s)
    problems += checks.bundle_problems(out_dir, result)
    return {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "problems": problems}


def _traced(scenario_path, out_dir, split_s):
    # Imported here so that untraced runs do not depend on qcsync's internals.
    import traced

    tracer = spans.Tracer()
    result = traced.traced_campaign(scenario_path, out_dir, tracer)
    return {
        "spans": tracer.spans,
        "missing_spans": tracer.missing(traced.SPANS),
        "problems": checks.series_problems(result.scenario, result.series, split_s),
    }


def main(argv):
    mode, scenario_path, out_dir, result_path = argv
    scenario = qcsync.load_scenario(scenario_path)
    out = {"loaded_at": time.monotonic()}
    split_s = workloads.WORKLOADS[scenario.name].split_s
    try:
        if mode == "plain":
            out.update(_plain(scenario, out_dir, split_s))
        elif mode == "traced":
            out.update(_traced(scenario_path, out_dir, split_s))
        elif mode == "count":
            out["records"] = len(qcsync.run_round_trip_sim(scenario))
        elif mode == "reference":
            out["reference_s"] = reference.reference_seconds()
        else:
            raise ValueError(f"unknown mode {mode!r}")
    except qcsync.QcsyncError as exc:
        out["problems"] = [f"{type(exc).__name__}: {exc}"]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
