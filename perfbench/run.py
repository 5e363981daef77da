"""Benchmark of the octocache simulator: one command per workload run.

    python3 perfbench/run.py --workload pinned --seed 101 --seconds 20 --trace 0

Run from the root of a source checkout; octocache is imported from
``src/``. Workloads (see ``workloads.py``): ``pinned``, ``miss-heavy`` and
``trace``. Every number names its clock: ``*_s`` is host time spent
running the simulator, scaled to a reference host speed measured around
each timed call (``calibrate.py``; the wall times are kept in the run
record); ``avg_delay_ms``, ``hit_ratio`` and ``backhaul_gb`` are simulated,
i.e. what the modelled C-RAN would see. The model has not been checked
against a real network, so no accuracy figure is given. ``avg_delay_ms``
and ``hit_ratio`` are those of the workload's lead policy (octopus, or
femtox on ``trace``); ``backhaul_gb`` sums all its cells.

A run:

1. writes the ``trace`` workload's CSV from the seed (untimed);
2. times set-up ``SETUP_REPEATS`` times, each in a fresh interpreter: the
   first ``import octocache`` plus the public set-up calls for one instance
   (``time_setup.py``); ``setup_s`` is the median;
3. replays every policy cell through ``run_experiment``, untraced and in
   sequence, in rounds until ``--seconds`` have passed (and at least the
   workload's ``min_rounds``), with the host-speed probe running;
   ``sweep_s`` sums each cell's median time over the rounds;
4. with ``--trace 1``, rebuilds each cell from public calls with spans
   around them (``replay.traced_cell``) and derives per-layer metrics;
5. checks every cell (``checks.py``) and that rounds repeat exactly;
6. writes ``perfbench/out/<workload>-seed<seed>-rows.csv`` (the ``rows_to_csv``
   output, whose sha256 must not change unless simulated results do) and a
   JSON record with provenance, cells, checks and the spans;
7. prints each metric as ``name value unit``, then, as the last line, one
   JSON object: ``correct``, ``attempted`` and ``failed`` (cells), and the
   end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

A run that cannot import octocache from ``src/`` exits 2, and one whose
lead policy cell fails exits 1, both without a result line.

Per-layer times of set-up calls (``workload.*``, ``topology.build_s``) are
for one instance; placement and policy times are summed over the cells. A
layer that does not run on a workload reports 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 5
POLICIES = ("octopus", "eo", "ecnc", "exmpc", "femtox", "lfu", "lru")

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
    "cell_pass_ratio": "ratio",
    "avg_delay_ms": "ms",
    "hit_ratio": "ratio",
    "backhaul_gb": "GB",
}

PER_LAYER = {
    "workload.generate_s": "s",
    "workload.parse_s": "s",
    "workload.users_s": "s",
    "workload.assign_s": "s",
    "workload.popularity_s": "s",
    "workload.events": "count",
    "workload.malformed_lines": "count",
    "topology.build_s": "s",
    "placement.octopus_s": "s",
    "placement.femtox_s": "s",
    "placement.static_s": "s",
    "placement.copies": "count",
    "placement.shadowed_cloud_copies": "count",
    "placement.rcr_s": "s",
    "placement.rcr_calls": "count",
    "placement.rcr_swaps": "count",
    "placement.rcr_commit_ratio": "ratio",
    "policies.octopus.replay_s": "s",
    "policies.static.replay_s": "s",
    "policies.lfu.replay_s": "s",
    "policies.lru.replay_s": "s",
    "policies.warm_s": "s",
    "policies.requests": "count",
    "policies.cdn_misses": "count",
    "policies.octopus.misses_per_request": "ratio",
    **{f"engine.{p}.cell_s": "s" for p in POLICIES},
    "trace.overhead_ratio": "ratio",
}

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pinned", "miss-heavy", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bracketed(call, items):
    """``call`` on each item with a reference sample before and after it;
    returns (result, factor to reference-host seconds) pairs."""
    results = []
    before = calibrate.sample()
    for item in items:
        result = call(item)
        after = calibrate.sample()
        results.append((result, calibrate.scale(before, after)))
        before = after
    return results


def time_setup(workload, seed, trace_path):
    """One set-up timed in a fresh interpreter (see ``time_setup.py``)."""
    command = [sys.executable, str(Path(__file__).with_name("time_setup.py")),
               workload, str(seed)]
    if trace_path is not None:
        command.append(str(trace_path))
    done = subprocess.run(command, capture_output=True, text=True, check=True,
                          timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def untraced_rounds(configs, seconds, min_rounds, replay):
    """Rounds of every cell through ``run_experiment`` until ``seconds``
    have passed and at least ``min_rounds`` ran, under the host-speed probe.
    Flags a cell whose metrics differ from the first round's."""
    rounds = []
    with calibrate.Probe() as probe:
        start = clock()
        while len(rounds) < min_rounds or clock() - start < seconds:
            rounds.append([replay.run_untraced(c) for c in configs])
        time.sleep(calibrate.WINDOW_S + calibrate.PROBE_INTERVAL_S)
    for cell in (c for r in rounds for c in r if c.end is not None):
        cell.seconds, cell.scale = probe.seconds(cell.start, cell.end)
    for later in rounds[1:]:
        for a, b in zip(rounds[0], later):
            if a.metrics and b.metrics and a.metrics.as_dict() != b.metrics.as_dict():
                b.problems.append("metrics differ from the first round")
    return rounds


def median_cell_time(rounds, policy, scaled):
    """Median over the rounds of one cell's time, in reference-host seconds
    if ``scaled``, else in wall seconds; 0 if the cell never completed."""
    times = [c.seconds * (c.scale if scaled else 1.0)
             for r in rounds for c in r
             if c.policy == policy and c.seconds is not None]
    return statistics.median(times) if times else 0.0


def pin_to_current_cpu():
    """Keep this run and its set-up children on the CPU it starts on, so
    that the host-speed samples measure the CPU the timed work runs on."""
    try:
        stat = Path("/proc/self/stat").read_text()
        cpu = int(stat.rsplit(")", 1)[1].split()[36])   # field 39, processor
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        pass


def git_commit():
    """HEAD of the checkout's git repository, read without running git;
    None where the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(load_before):
    digest = hashlib.sha256()
    for path in sorted((SRC / "octocache").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "octocache" / "__init__.py").is_file():
        print(f"perfbench: no octocache package under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    pin_to_current_cpu()
    sys.path.insert(0, str(SRC))
    import octocache
    if Path(octocache.__file__).resolve().parent != (SRC / "octocache").resolve():
        print(f"perfbench: imported octocache from {octocache.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from octocache import SweepRow, rows_to_csv

    import checks
    import replay
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    run_problems = []
    trace_path = None
    if workload.uses_trace_file:
        trace_path = OUT / f"input-trace-seed{args.seed}.csv"
        written = workloads.write_trace_csv(trace_path, args.seed)

    setups = bracketed(lambda _: time_setup(workload.name, args.seed, trace_path),
                       range(SETUP_REPEATS))
    if workload.uses_trace_file:
        for setup, _ in setups:
            run_problems += checks.check_trace_counts(
                setup["events"], setup["malformed_lines"], *written)
    setup_s = statistics.median(setup["setup_s"] * f for setup, f in setups)
    setup_wall_s = statistics.median(setup["setup_s"] for setup, _ in setups)

    # the network every cell is given; a traced run traces this set-up
    tracer = replay.Tracer() if args.trace else workloads.NullTracer()
    tracer.cell = "setup"
    [(network, setup_scale)] = bracketed(
        lambda config: workloads.set_up(config, tracer),
        workloads.cell_configs(workload, args.seed, trace_path=trace_path)[:1])
    configs = workloads.cell_configs(workload, args.seed, network.topology,
                                     network.assignment, trace_path)
    events, malformed = len(network.trace.events), network.trace.malformed_lines
    del network

    rounds = untraced_rounds(configs, args.seconds, workload.min_rounds,
                             replay)
    first = rounds[0]
    cell_s = {c.policy: median_cell_time(rounds, c.policy, scaled=True)
              for c in configs}
    sweep_s = sum(cell_s.values())
    sweep_wall_s = sum(median_cell_time(rounds, c.policy, scaled=False)
                       for c in configs)
    # before the traced run, which holds more in memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = []
    per_layer = None
    if args.trace:
        untraced = {c.policy: c for c in first}
        for cell, factor in bracketed(
                lambda config: replay.run_traced(
                    config, untraced[config.policy], tracer),
                configs):
            cell.scale = factor
            traced.append(cell)
        scales = {"setup": setup_scale, **{c.policy: c.scale for c in traced}}
        values = replay.layer_metrics(tracer, traced, cell_s, scales)
        values["workload.events"] = events
        values["workload.malformed_lines"] = malformed
        per_layer = {name: int(values[name]) if unit == "count"
                     else float(values[name])
                     for name, unit in PER_LAYER.items()}

    cells = [c for r in rounds for c in r] + traced
    attempted = len(cells)
    failed = attempted if run_problems else sum(1 for c in cells if c.problems)
    lead = next(c for c in first if c.policy == workload.lead_policy)
    if lead.metrics is None:
        print("perfbench: the lead policy cell failed:\n"
              + "".join(lead.problems), file=sys.stderr)
        return 1

    rows = [SweepRow(policy=c.policy, axis_value=c.policy, seed=args.seed,
                     metrics=c.metrics) for c in first if c.metrics]
    csv_text = rows_to_csv(rows, header_lines=(
        f"perfbench workload={workload.name} seed={args.seed}",
        f"policies={','.join(workload.policies)} "
        f"total_cache_bytes={workload.total_cache_bytes}"))
    csv_path = OUT / f"{workload.name}-seed{args.seed}-rows.csv"
    csv_path.write_text(csv_text, encoding="utf-8")
    csv_sha256 = hashlib.sha256(csv_text.encode()).hexdigest()

    end_to_end = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "peak_rss_mb": peak_rss_mb,
        "cell_pass_ratio": 1.0 - failed / attempted,
        "avg_delay_ms": lead.metrics.avg_access_delay,
        "hit_ratio": lead.metrics.hit_ratio,
        "backhaul_gb": sum(c.metrics.backhaul_bytes for c in first
                           if c.metrics) / 1e9,
    }
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(load_before),
        "setup_runs": [dict(setup, scale=f) for setup, f in setups],
        "wall_s": {"setup_s": setup_wall_s, "sweep_s": sweep_wall_s},
        "rounds": len(rounds),
        "csv": csv_path.name,
        "csv_sha256": csv_sha256,
        "run_problems": run_problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "placements": {c.policy: c.composition for c in traced},
        "cells": [c.as_dict() for c in cells],
        "spans": tracer.as_dict() if args.trace else None,
    }, indent=1), encoding="utf-8")

    for problem in run_problems + [p for c in cells for p in c.problems]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"# workload={workload.name} seed={args.seed} rounds={len(rounds)} "
          f"csv_sha256={csv_sha256} record={record_path.name}")
    print(f"# wall clock, unscaled: setup {setup_wall_s:.4f} s, "
          f"sweep {sweep_wall_s:.4f} s")
    for name, value in {**end_to_end, **(per_layer or {})}.items():
        print(f"{name} {value} {END_TO_END.get(name) or PER_LAYER[name]}")
    metrics, units = ((per_layer, PER_LAYER) if args.trace
                      else (end_to_end, END_TO_END))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
