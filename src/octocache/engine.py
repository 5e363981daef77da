"""Experiment engine: replay a request trace against a policy and
accumulate hit ratio, average access delay, and backhaul traffic.

Seed discipline: one master seed deterministically derives labeled child
seeds (topology, user assignment, workload), so a sweep varies exactly the
factor on its axis and nothing else. Identical configs produce identical
metrics.
"""

from __future__ import annotations

import copy
import hashlib
import weakref
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import ConfigError
from .policies import POLICY_NAMES, make_policy
from .routing import SourceKind
from .topology import (Catalog, Popularity, Topology, _count, build_paper_topology,
                       capacities_from_budget)
from .workload import (_kept, _kept_stream, _over_bytes, assign_users, estimate_popularity,
                       generate_requests, parse_trace_file, zipf_popularity)

SWEEP_AXES = ("total_cache_bytes", "zipf_alpha", "policy")

CSV_COLUMNS = ("policy", "axis_value", "seed", "requests", "hit_ratio",
               "avg_delay_ms", "backhaul_bytes", "local_hits", "cloud_hits",
               "neighbor_hits", "cdn_fetches")


def derive_seed(master, label):
    """Stable 63-bit child seed for a labeled role under one master seed, a
    whole number >= 0 whose int is hashed (1.0 derives what 1 does)."""
    digest = hashlib.sha256(f"{_count(master, 'master', 0)}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Metrics:
    """Counters accumulated over the evaluation window of one replay."""

    requests_total: int = 0
    local_hits: int = 0
    cloud_hits: int = 0
    neighbor_hits: int = 0
    cdn_fetches: int = 0
    sum_delay_ms: float = 0.0
    file_size_bytes: int = 0
    malformed_events: int = 0

    @property
    def cache_hits(self):
        return self.local_hits + self.cloud_hits + self.neighbor_hits

    @property
    def hit_ratio(self):
        return self.cache_hits / self.requests_total if self.requests_total else 0.0

    @property
    def avg_access_delay(self):
        return self.sum_delay_ms / self.requests_total if self.requests_total else 0.0

    @property
    def backhaul_bytes(self):
        return self.cdn_fetches * self.file_size_bytes

    def record(self, source):
        """Tally one request served by ``source``, with its delay."""
        self.sum_delay_ms += source.delay_cost
        self._count(source.kind)

    def _count(self, kind, requests=1):
        """Tally ``requests`` requests served from a source of ``kind``,
        without their delay."""
        self.requests_total += requests
        if kind is SourceKind.LOCAL_EDGE:
            self.local_hits += requests
        elif kind is SourceKind.CLOUD:
            self.cloud_hits += requests
        elif kind is SourceKind.NEIGHBOR_EDGE:
            self.neighbor_hits += requests
        else:
            self.cdn_fetches += requests

    def as_dict(self):
        return {
            "requests_total": self.requests_total,
            "cache_hits": self.cache_hits,
            "hit_ratio": self.hit_ratio,
            "sum_delay_ms": self.sum_delay_ms,
            "avg_access_delay": self.avg_access_delay,
            "backhaul_bytes": self.backhaul_bytes,
            "local_hits": self.local_hits,
            "cloud_hits": self.cloud_hits,
            "neighbor_hits": self.neighbor_hits,
            "cdn_fetches": self.cdn_fetches,
            "malformed_events": self.malformed_events,
        }


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one replay.

    Exactly one workload source must be set: a trace path, or a Zipf alpha
    for synthetic generation. Capacities come either explicitly or from a
    total byte budget. The optional explicit fields (topology, popularity,
    user_assignment, capacities) override the seeded constructions; when a
    trace workload is used the catalog size comes from the trace. The user
    map is ``user_assignment``, else the users of ``topology``, else drawn.
    """

    policy: str
    num_bs: int = 7
    num_files: int = 10_000
    file_size_mb: float = 20.0
    total_cache_bytes: int | None = None
    cloud_edge_ratio: int = 4
    capacities: object = None
    trace_path: str | None = None
    zipf_alpha: float | None = None
    num_requests: int = 100_000
    num_users: int = 1_000
    warmup_frac: float = 0.2
    master_seed: int = 0
    smoothing: ClassVar[float] = 1.0  # Laplace smoothing of the popularity estimate
    rcr_enabled: bool = True
    topology: object = None
    popularity: object = None
    user_assignment: dict | None = None

    def validate(self):
        if self.policy not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.policy!r}; expected one of "
                              + ", ".join(POLICY_NAMES))
        if (self.trace_path is None) == (self.zipf_alpha is None):
            raise ConfigError("exactly one workload source required: "
                              "trace_path or zipf_alpha")
        if self.capacities is None and self.total_cache_bytes is None:
            raise ConfigError("capacities or total_cache_bytes required")
        for name in ("file_size_mb", "zipf_alpha", "warmup_frac"):
            value = getattr(self, name)  # a number has __float__; text has not
            if not (hasattr(type(value), "__float__") or (name == "zipf_alpha" and value is None)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigError("warmup_frac must lie in [0, 1)")
        try:
            _count(self.master_seed, "master_seed", 0)
        except ValueError as exc:
            raise ConfigError(f"{exc}, got {self.master_seed!r}") from None

    def seeds(self):
        m = _count(self.master_seed, "master_seed", 0)
        return {"master": m,
                "topology": derive_seed(m, "topology"),
                "assignment": derive_seed(m, "assignment"),
                "workload": derive_seed(m, "workload")}


@dataclass(frozen=True)
class Instance:
    """One replay-ready instance: all a cell needs but policy and capacities.

    ``topology`` carries the users; ``home_bs`` is the read-only home BS of
    each request, 0 for a user the topology does not cover, in the smallest
    unsigned integer type that holds R. No replay changes an instance, so
    cells of one sweep may share it.
    """

    trace: object
    catalog: Catalog
    topology: object
    popularity: object
    warm_count: int
    home_bs: np.ndarray


#: ``(stream, key, instance)`` of the last instance :func:`prepare` built,
#: or None. ``stream`` is a weak reference to the kept request stream the
#: instance was built on (``workload._kept``), so a stream the workload
#: replaces is freed and then matches nothing; ``key`` is
#: :func:`_instance_key` of its config. The instance holds no trace, and
#: callers get it only through :func:`_handout`.
_last_instance = None


def prepare(config):
    """Validate ``config`` and build its instance from derived seeds: each
    part is taken from ``config`` when given there, else drawn or, for the
    popularity, estimated over the warm-up. It reads neither the policy nor
    the cache sizes, so cells that differ only in those may share it.

    The request stream comes from the workload's one kept stream
    (``parse_trace_file``, or the kept synthetic draw). The last instance
    built is kept too, and a call whose inputs all equal its inputs gets it
    again instead of a build: the kept stream itself, ``file_size_mb``, the
    topology (by its delays, or by ``num_bs`` and seed when drawn), the
    user map in order (or its seed when drawn), ``warmup_frac``, the
    smoothing and a given popularity's probabilities, all compared by value
    on every call. Each call returns a fresh instance that shares nothing a
    caller can change with the kept one (:func:`_handout`)."""
    global _last_instance
    config.validate()
    seeds = config.seeds()

    if config.trace_path is not None:
        trace = parse_trace_file(config.trace_path)
    else:
        num_users = _count(config.num_users, "num_users", 1)
        zipf = zipf_popularity(config.num_files, config.zipf_alpha)
        num_requests = _count(config.num_requests, "num_requests", 0)
        # keyed by every input of the draw, as the users are 1..num_users, so
        # a cell reuses the last cell's stream while they are equal
        trace = _kept((zipf.as_array().tobytes(), num_requests, num_users,
                       seeds["workload"]),
                      lambda: generate_requests(zipf, num_requests,
                                                list(range(1, num_users + 1)),
                                                seeds["workload"]))
    given = config.user_assignment  # the given user map, None when drawn
    if given is None and isinstance(config.topology, Topology):
        given = config.topology.users or None
    stream, key = _kept_stream(trace), _instance_key(config, seeds, given)
    last = _last_instance
    if (last is not None and stream is not None and last[0]() is stream
            and key is not None and last[1] == key
            and (given is None or _same_users(given, last[2].topology.users))):
        kept = last[2]
    else:
        _last_instance = None
        kept = _build(config, seeds, trace)
        kept = replace(kept, trace=None, topology=_own_users(kept.topology))
        if stream is not None and key is not None:
            _last_instance = weakref.ref(stream), key, kept
    return _handout(kept, trace, config, given)


def _build(config, seeds, trace):
    """``prepare``'s instance of ``config`` on the request stream ``trace``."""
    catalog = Catalog(num_files=trace.catalog_size,
                      file_size_mb=config.file_size_mb)

    topology = config.topology
    if topology is None:
        topology = build_paper_topology(config.num_bs, seeds["topology"])
    assignment = config.user_assignment
    if assignment is None:
        assignment = topology.users or assign_users(
            trace.users(), topology.num_bs, seeds["assignment"])
    topology = topology.with_users(assignment)

    warm_count = int(len(trace.file_ids) * config.warmup_frac)
    if warm_count == len(trace.file_ids):
        raise ConfigError("empty evaluation window after warm-up split")

    popularity = config.popularity
    if popularity is None:
        popularity = estimate_popularity(trace, warm_count, config.smoothing)
    elif popularity.num_files != catalog.num_files:
        raise ConfigError(f"popularity length must match the {catalog.num_files}-file catalog")

    homes = np.fromiter((topology.users.get(user, 0) for user in trace.user_labels),
                        dtype=np.min_scalar_type(topology.num_bs),
                        count=len(trace.user_labels))
    return Instance(trace, catalog, topology, popularity, warm_count,
                    _over_bytes(homes[trace.user_index]))


def _instance_key(config, seeds, given):
    """What ``prepare``'s instance reads of ``config`` beside the request
    stream and the user map ``given``, by value: a number with its type, a
    given popularity as its bytes, the assignment seed when no map is given.
    None when a given topology or popularity is not one, so that no kept
    instance is reused for it."""
    topology, popularity = config.topology, config.popularity
    if topology is None:
        network = (type(config.num_bs), config.num_bs, seeds["topology"])
    elif isinstance(topology, Topology):
        network = (topology.num_bs, tuple(topology.edge_delay),
                   tuple(map(tuple, topology.peer_delay)), topology.cdn_delay)
    else:
        return None
    if isinstance(popularity, Popularity):
        popularity = popularity.as_array().tobytes()
    elif popularity is not None:
        return None
    return (network, popularity, seeds["assignment"] if given is None else None,
            *((type(value), value) for value in (config.file_size_mb, config.warmup_frac,
                                                 config.smoothing)))


def _same_users(given, kept):
    """Whether the user map ``given`` equals the validated map ``kept`` of a
    kept instance, entry by entry and in order."""
    return given == kept and list(given) == list(kept)


def _own_users(topology):
    """``topology`` with its own copy of its user map, not validated again."""
    own = copy.copy(topology)
    object.__setattr__(own, "users", dict(topology.users))
    return own


def _handout(kept, trace, config, given):
    """A fresh instance equal to the kept instance ``kept``, on ``trace``:
    the config's own topology when its users are the map, else a copy of the
    kept one with its own user map; the config's popularity, else a copy of
    the kept estimate; and a view of the kept home column, which cannot be
    made writeable. No caller can change a later call's instance."""
    topology = config.topology
    if topology is None or given is not topology.users:
        topology = _own_users(kept.topology)
    popularity = config.popularity
    if popularity is None:
        popularity = replace(kept.popularity)
    return replace(kept, trace=trace, topology=topology, popularity=popularity,
                   home_bs=kept.home_bs.view())


def replay(instance, policy):
    """Replay ``instance``'s requests against ``policy`` and tally them.

    One ``Policy.replay`` call names each request's server by its index in
    ``policy.sources``. A policy whose placement starts empty (lfu, lru)
    replays from request 0, so the warm-up window is the head of its pass;
    a policy placed from that window replays from the evaluation window.
    The pass skips requests of users without a home BS, and only the
    evaluation window, tallied once, counts them as malformed.
    """
    warm_count = instance.warm_count
    start = warm_count if policy.placement.size() else 0
    bs, files = instance.home_bs[start:], instance.trace.file_ids[start:]
    head = warm_count - start  # the warm-up requests the pass serves
    if not bs.all():  # some request's user has no home BS: copy the rest
        keep = bs > 0
        bs, files, head = bs[keep], files[keep], np.count_nonzero(keep[:head])
    evaluated = policy.replay(bs, files)[head:]
    window = len(instance.trace.file_ids) - warm_count
    metrics = Metrics(file_size_bytes=instance.catalog.file_size_bytes,
                      malformed_events=window - evaluated.size)
    for source, requests in zip(policy.sources, np.bincount(
            evaluated, minlength=len(policy.sources)).tolist()):
        metrics._count(source.kind, requests)
    if evaluated.size:  # summed in request order, as Metrics.record sums
        delays = np.array([source.delay_cost for source in policy.sources])
        metrics.sum_delay_ms = float(np.cumsum(delays[evaluated])[-1])
    return metrics


def _run(instance, config):
    """Replay ``config``'s policy on ``instance``'s network, with the given
    ``capacities`` or else those split from the cell's byte budget."""
    topology, capacities = instance.topology, config.capacities
    if capacities is None:
        capacities = capacities_from_budget(config.total_cache_bytes, topology,
                                            instance.catalog, config.cloud_edge_ratio)
    elif capacities.num_bs != topology.num_bs:
        raise ConfigError(f"capacities list {capacities.num_bs} edge caches "
                          f"for {topology.num_bs} base stations")
    return replay(instance, make_policy(
        config.policy, topology, instance.catalog, instance.popularity,
        capacities, topology.users, rcr_enabled=config.rcr_enabled))


def run_experiment(config):
    """Replay one configured experiment and return its metrics: ``replay``
    of ``prepare(config)`` against the policy ``config`` names, built by
    ``make_policy`` on the instance. Deterministic per master seed. A run
    whose ``prepare`` inputs equal the last run's reuses the instance that
    ``prepare`` keeps, so it pays only for its placement and replay."""
    return _run(prepare(config), config)


@dataclass
class SweepRow:
    policy: str
    axis_value: object
    seed: int
    metrics: Metrics


def _sweep_cell(instance, value, cell):
    """The row of ``cell``, whose swept field is ``value``, replayed on
    ``instance``."""
    return SweepRow(policy=cell.policy, axis_value=value,
                    seed=cell.seeds()["master"], metrics=_run(instance, cell))


# a pool worker's copy of its sweep's instances, by key, sent to it once
_worker_instances = {}


def _receive_instances(instances):
    global _worker_instances
    _worker_instances = instances


def _worker_cell(task):
    """``_sweep_cell`` in a pool worker, on the instance ``task`` names."""
    key, value, cell = task
    return _sweep_cell(_worker_instances[key], value, cell)


def run_sweep(base, axis, values, jobs=1, policies=None):
    """Run the grid of ``policies`` (default ``[base.policy]``) by axis
    ``values``, all from the same master seed so the resulting curves are
    comparable. Returns the rows policy by policy, each in value order.

    Each cell is ``base`` with its policy and its axis value set (a budget
    also drops explicit ``capacities``); every cell validates before any
    is prepared or run. Cells share what ``prepare`` builds, which reads
    neither the policy nor the cache sizes: the sweep prepares one
    instance, or on a ``zipf_alpha`` axis one per distinct value. A
    ``policy`` axis takes its policies from ``values``, so more than one
    entry in ``policies`` is a ``ConfigError``.

    ``jobs`` > 1 runs cells in parallel processes, at most one per cell,
    each sent every instance once; ordering is deterministic regardless.
    Only then is the process pool imported, so a serial run never loads it.
    ``jobs`` that is not a whole number >= 1 (2.0 is 2) is a ``ConfigError``.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of "
                          + ", ".join(SWEEP_AXES))
    try:
        jobs = _count(jobs, "jobs", 1)
    except ValueError as exc:
        raise ConfigError(f"{exc}, got {jobs!r}") from None
    policies = [base.policy] if policies is None else policies
    if axis == "policy" and len(policies) > 1:
        raise ConfigError("a policy sweep takes its policies from its values")
    reset = {"capacities": None} if axis == "total_cache_bytes" else {}
    tasks, firsts = [], {}  # firsts: the first cell of each instance key
    for policy in policies:
        for value in values:
            cell = replace(base, **{"policy": policy, axis: value}, **reset)
            cell.validate()
            key = value if axis == "zipf_alpha" else None
            firsts.setdefault(key, cell)
            tasks.append((key, value, cell))
    instances = {key: prepare(cell) for key, cell in firsts.items()}
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 initializer=_receive_instances,
                                 initargs=(instances,)) as pool:
            return list(pool.map(_worker_cell, tasks))
    return [_sweep_cell(instances[key], value, cell) for key, value, cell in tasks]


def format_row(row):
    """One CSV line per the metrics contract columns."""
    m = row.metrics
    fields = (row.policy, row.axis_value if row.axis_value is not None else "",
              row.seed, m.requests_total, format(m.hit_ratio, ".10g"),
              format(m.avg_access_delay, ".10g"), m.backhaul_bytes,
              m.local_hits, m.cloud_hits, m.neighbor_hits, m.cdn_fetches)
    return ",".join(str(f) for f in fields)


def rows_to_csv(rows, header_lines=()):
    """Render sweep rows as CSV, with '#'-prefixed reproducibility header
    lines carrying the resolved configuration and seeds."""
    out = [f"# {line}" for line in header_lines]
    out.append(",".join(CSV_COLUMNS))
    out.extend(format_row(row) for row in rows)
    return "\n".join(out) + "\n"


def rows_to_json(rows, header=None):
    import json

    records = []
    for row in rows:
        rec = {"policy": row.policy, "axis_value": row.axis_value,
               "seed": row.seed}
        rec.update(row.metrics.as_dict())
        records.append(rec)
    payload = {"rows": records}
    if header is not None:
        payload["config"] = header
    return json.dumps(payload, indent=2, sort_keys=True)
