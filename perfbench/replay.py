"""Untraced and traced replay of benchmark cells, their checks, and the
per-layer metrics derived from the spans.

The untraced path calls ``run_experiment`` as a user would and is the only
source of end-to-end times. The traced path rebuilds ``run_experiment``
from its public parts (``config.seeds()``, the set-up calls, ``make_policy``,
the lfu/lru warm-up loop and ``Metrics.record``) with a span around each
call into octocache, so its per-layer times add up to a cell.
"""

from __future__ import annotations

import gc
import inspect
import time
import traceback
from contextlib import contextmanager

import octocache.engine
from octocache import (POLICY_NAMES, LfuPolicy, LruPolicy, Metrics,
                       OctopusPolicy, make_policy, run_experiment)

import checks
from workloads import build_instance

clock = time.perf_counter
STATIC = ("eo", "ecnc", "exmpc")


class Span:
    """One timed call. ``parent`` is the id of the enclosing span."""

    __slots__ = ("id", "parent", "cell", "name", "attrs", "start", "end",
                 "_tracer")

    def __init__(self, tracer, name, attrs):
        self.id = tracer.next_id()
        self.parent = tracer.open[-1].id if tracer.open else None
        self.cell = tracer.cell
        self.name = name
        self.attrs = attrs
        self.start = self.end = None
        tracer.spans.append(self)
        self._tracer = tracer

    def __enter__(self):
        self._tracer.open.append(self)
        self.start = clock()
        return self

    def __exit__(self, *exc):
        self.end = clock()
        self._tracer.open.pop()
        return False

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "cell": self.cell,
                "name": self.name, "start": self.start, "end": self.end,
                **self.attrs}


class Fold:
    """Per-request spans of one name under one parent span, folded into
    count, total and maximum duration, plus a count of work items done."""

    __slots__ = ("id", "cell", "name", "parent", "count", "total", "max",
                 "work")

    def __init__(self, id, cell, name, parent):
        self.id, self.cell, self.name, self.parent = id, cell, name, parent
        self.count, self.total, self.max, self.work = 0, 0.0, 0.0, 0

    def add(self, seconds):
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def as_dict(self):
        return {"id": self.id, "cell": self.cell, "name": self.name,
                "parent": self.parent,
                "count": self.count, "sum_s": self.total, "max_s": self.max,
                "work": self.work}


class Tracer:
    """Spans kept in memory until the run writes them out."""

    def __init__(self):
        self.spans = []
        self.folds = []
        self.open = []
        self.cell = None
        self._ids = 0

    def next_id(self):
        self._ids += 1
        return self._ids

    def span(self, name, **attrs):
        return Span(self, name, attrs)

    def fold(self, name, parent=None):
        """A fold under ``parent`` (a fold), else under the open span."""
        if parent is not None:
            parent_id = parent.id
        else:
            parent_id = self.open[-1].id if self.open else None
        fold = Fold(self.next_id(), self.cell, name, parent_id)
        self.folds.append(fold)
        return fold

    def self_time(self, item):
        """A span's duration, or a fold's total, minus the time its direct
        children cover."""
        own = item.total if isinstance(item, Fold) else item.duration
        children = sum(s.duration for s in self.spans if s.parent == item.id)
        children += sum(f.total for f in self.folds if f.parent == item.id)
        return own - children

    def as_dict(self):
        return {"spans": [s.as_dict() for s in self.spans],
                "folds": [f.as_dict() for f in self.folds]}


@contextmanager
def capturing_policies():
    """Record every policy ``run_experiment`` builds, with the named
    arguments it was built from, so the final octopus placement of an
    untraced cell can be checked without replaying it again."""
    built = []
    original = octocache.engine.make_policy
    signature = inspect.signature(original)

    def capture(*args, **kwargs):
        policy = original(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        built.append((dict(bound.arguments), policy))
        return policy

    octocache.engine.make_policy = capture
    try:
        yield built
    finally:
        octocache.engine.make_policy = original


def untraced_cell(config):
    """Run one cell through ``run_experiment``; return (start, end, metrics,
    captured (make_policy arguments, policy) pairs)."""
    gc.collect()     # start every cell from the same heap
    with capturing_policies() as built:
        start = clock()
        metrics = run_experiment(config)
        end = clock()
    return start, end, metrics, built


def _timed_on_miss(on_miss, fold):
    def on_miss_span(file):
        start = clock()
        swaps = on_miss(file)
        fold.add(clock() - start)
        fold.work += len(swaps)
        return swaps
    return on_miss_span


def _warm(policy, events, fold):
    """The lfu/lru warm-up loop of ``run_experiment``: no metrics, no
    skipping."""
    for event in events:
        start = clock()
        policy.on_request(event)
        fold.add(clock() - start)


def _replay(policy, events, assignment, num_files, metrics, fold):
    """The evaluation loop of ``run_experiment`` with one folded span per
    ``on_request``."""
    for event in events:
        if event.user_id not in assignment or not 1 <= event.file_id <= num_files:
            metrics.malformed_events += 1
            continue
        start = clock()
        source = policy.on_request(event)
        fold.add(clock() - start)
        metrics.record(source)


def placement_composition(placement):
    """Copies per cache, and cloud copies also held by every edge cache."""
    cloud, *edges = placement.contents
    return {"copies": placement.size(),
            "copies_per_cache": [len(c) for c in placement.contents],
            "shadowed_cloud_copies": sum(1 for f in cloud
                                         if all(f in e for e in edges))}


def traced_cell(config, tracer):
    """Rebuild ``run_experiment(config)`` from public parts under spans.

    Returns (seconds, metrics, policy, instance, initial placement
    composition).
    """
    tracer.cell = config.policy
    gc.collect()
    start = clock()
    with tracer.span("cell", policy=config.policy):
        instance = build_instance(config, tracer)
        with tracer.span("make_policy", policy=config.policy):
            policy = make_policy(config.policy, instance.topology,
                                 instance.catalog, instance.popularity,
                                 instance.capacities, instance.assignment,
                                 rcr_enabled=config.rcr_enabled)
        composition = placement_composition(policy.placement)
        metrics = Metrics(file_size_bytes=instance.catalog.file_size_bytes)
        events = instance.trace.events
        if isinstance(policy, (LfuPolicy, LruPolicy)):
            with tracer.span("policies.warm"):
                _warm(policy, events[:instance.warm_count],
                      tracer.fold("policy.on_request"))
        with tracer.span("replay"):
            requests = tracer.fold("policy.on_request")
            if isinstance(policy, OctopusPolicy):
                # an instance attribute shadows the method on_request calls
                policy.on_miss = _timed_on_miss(
                    policy.on_miss, tracer.fold("octopus.on_miss", requests))
            _replay(policy, events[instance.warm_count:], instance.assignment,
                    instance.catalog.num_files, metrics, requests)
    return clock() - start, metrics, policy, instance, composition


class Cell:
    """One execution of one policy cell and what its checks found."""

    def __init__(self, policy, kind):
        self.policy = policy
        self.kind = kind            # "untraced" or "traced"
        self.start = self.end = None    # clock stamps of an untraced run
        self.seconds = None             # wall seconds, probes excluded
        self.scale = None               # to reference-host seconds
        self.metrics = None
        self.composition = None     # initial placement, traced cells only
        self.problems = []

    def as_dict(self):
        return {"policy": self.policy, "kind": self.kind,
                "seconds": self.seconds, "scale": self.scale,
                "problems": self.problems,
                "metrics": self.metrics.as_dict() if self.metrics else None}


def run_untraced(config):
    cell = Cell(config.policy, "untraced")
    try:
        cell.start, cell.end, cell.metrics, built = untraced_cell(config)
        cell.problems += checks.check_metrics(cell.metrics)
        if config.policy == "octopus":
            cell.problems += _check_octopus(config, built)
    except Exception:
        cell.problems.append(traceback.format_exc())
    return cell


def _check_octopus(config, built):
    """Check the final placement of an untraced octopus cell. If the engine
    built its policy out of sight of the capture, replay the cell again."""
    for arguments, policy in built:
        if arguments.get("name") == "octopus":
            return checks.check_placement(
                policy.placement, arguments["topology"],
                arguments["popularity"], arguments["capacities"],
                arguments["catalog"].num_files)
    _, _, policy, instance, _ = traced_cell(config, Tracer())
    return _check_final_placement(policy, instance)


def _check_final_placement(policy, instance):
    return checks.check_placement(policy.placement, instance.topology,
                                  instance.popularity, instance.capacities,
                                  instance.catalog.num_files)


def run_traced(config, untraced, tracer):
    cell = Cell(config.policy, "traced")
    try:
        cell.seconds, cell.metrics, policy, instance, composition = \
            traced_cell(config, tracer)
        cell.composition = composition
        cell.problems += checks.check_metrics(cell.metrics)
        if untraced.metrics is None or (cell.metrics.as_dict()
                                        != untraced.metrics.as_dict()):
            cell.problems.append("traced rebuild differs from run_experiment")
        if config.policy == "octopus":
            cell.problems += _check_final_placement(policy, instance)
    except Exception:
        cell.problems.append(traceback.format_exc())
    return cell


def layer_metrics(tracer, traced, cell_s, scales):
    """Per-layer metrics from the traced run (``engine.*`` from untraced).
    Times are scaled to reference-host seconds by each traced cell's factor
    in ``scales`` (keyed by policy, and "setup" for the traced set-up)."""
    span_names = {s.id: s.name for s in tracer.spans}

    def spans(name, cells):
        return sum((s.duration * scales[s.cell] for s in tracer.spans
                    if s.name == name and s.cell in cells), 0.0)

    def folds(name, under, cells):
        return [f for f in tracer.folds if f.name == name and f.cell in cells
                and span_names.get(f.parent) == under]

    def replay_s(cells):
        return sum(tracer.self_time(f) * scales[f.cell]
                   for f in folds("policy.on_request", "replay", cells))

    by_policy = {c.policy: c for c in traced if c.metrics is not None}
    misses = [f for f in tracer.folds if f.name == "octopus.on_miss"]
    calls = sum(f.count for f in misses)
    swaps = sum(f.work for f in misses)
    octopus = by_policy.get("octopus")
    composition = octopus.composition if octopus else {}
    setup = ("setup",)
    values = {
        "workload.generate_s": spans("workload.generate", setup),
        "workload.parse_s": spans("workload.parse", setup),
        "workload.users_s": spans("workload.users", setup),
        "workload.assign_s": spans("workload.assign", setup),
        "workload.popularity_s": spans("workload.popularity", setup),
        "topology.build_s": spans("topology.build", setup),
        "placement.octopus_s": spans("make_policy", ("octopus",)),
        "placement.femtox_s": spans("make_policy", ("femtox",)),
        "placement.static_s": spans("make_policy", STATIC),
        "placement.copies": composition.get("copies", 0),
        "placement.shadowed_cloud_copies":
            composition.get("shadowed_cloud_copies", 0),
        "placement.rcr_s": sum(f.total * scales[f.cell] for f in misses),
        "placement.rcr_calls": calls,
        "placement.rcr_swaps": swaps,
        "placement.rcr_commit_ratio": swaps / calls if calls else 0.0,
        "policies.octopus.replay_s": replay_s(("octopus",)),
        "policies.static.replay_s": replay_s(STATIC + ("femtox",)),
        "policies.lfu.replay_s": replay_s(("lfu",)),
        "policies.lru.replay_s": replay_s(("lru",)),
        "policies.warm_s": spans("policies.warm", ("lfu", "lru")),
        "policies.requests": sum(
            f.count for f in folds("policy.on_request", "replay", POLICY_NAMES)),
        "policies.cdn_misses": sum(c.metrics.cdn_fetches
                                   for c in by_policy.values()),
        "policies.octopus.misses_per_request":
            (octopus.metrics.cdn_fetches / octopus.metrics.requests_total
             if octopus else 0.0),
        "trace.overhead_ratio": (sum(c.seconds * c.scale for c in traced
                                     if c.seconds) / sum(cell_s.values()) - 1.0),
    }
    for policy in POLICY_NAMES:
        values[f"engine.{policy}.cell_s"] = cell_s.get(policy, 0.0)
    return values
