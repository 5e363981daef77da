"""Experiment engine: replay a request trace against a policy and
accumulate hit ratio, average access delay, and backhaul traffic.

Seed discipline: one master seed deterministically derives labeled child
seeds (topology, user assignment, workload), so a sweep varies exactly the
factor on its axis and nothing else. Identical configs produce identical
metrics.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .policies import POLICY_NAMES, make_policy
from .routing import SourceKind
from .topology import (Catalog, build_paper_topology, capacities_from_budget)
from .workload import (assign_users, estimate_popularity, generate_requests,
                       parse_trace_file, zipf_popularity)

SWEEP_AXES = ("total_cache_bytes", "zipf_alpha", "policy")

CSV_COLUMNS = ("policy", "axis_value", "seed", "requests", "hit_ratio",
               "avg_delay_ms", "backhaul_bytes", "local_hits", "cloud_hits",
               "neighbor_hits", "cdn_fetches")


def derive_seed(master, label):
    """Stable 63-bit child seed for a labeled role under one master seed."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
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
    trace workload is used the catalog size comes from the trace.
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
    smoothing: float = 1.0
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
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigError("warmup_frac must lie in [0, 1)")

    def seeds(self):
        m = self.master_seed
        return {"master": m,
                "topology": derive_seed(m, "topology"),
                "assignment": derive_seed(m, "assignment"),
                "workload": derive_seed(m, "workload")}


def _resolve_workload(config, seeds):
    if config.trace_path is not None:
        return parse_trace_file(config.trace_path)
    popularity = zipf_popularity(config.num_files, config.zipf_alpha)
    users = list(range(1, config.num_users + 1))
    return generate_requests(popularity, config.num_requests, users,
                             seeds["workload"])


def run_experiment(config):
    """Replay one configured experiment and return its metrics.

    Builds topology and workload from derived seeds, estimates popularity
    over the warm-up window (unless given explicitly) and constructs the
    policy. One ``Policy.replay`` call then names each request's server by
    its index in ``policy.sources``. A policy whose placement starts empty
    (lfu, lru) replays from request 0, so the warm-up window is the head of
    its pass; a policy placed from that window replays from the evaluation
    window. The pass skips events of users the assignment does not cover,
    and only the evaluation window, tallied once, counts them as malformed.
    Deterministic per master seed.
    """
    config.validate()
    seeds = config.seeds()

    trace = _resolve_workload(config, seeds)
    catalog = Catalog(num_files=trace.catalog_size,
                      file_size_mb=config.file_size_mb)

    topology = config.topology
    if topology is None:
        topology = build_paper_topology(config.num_bs, seeds["topology"])
    assignment = config.user_assignment
    if assignment is None:
        assignment = assign_users(trace.users(), topology.num_bs,
                                  seeds["assignment"])
    topology = topology.with_users(assignment)

    capacities = config.capacities
    if capacities is None:
        capacities = capacities_from_budget(config.total_cache_bytes, topology,
                                            catalog, config.cloud_edge_ratio)
    elif capacities.num_bs != topology.num_bs:
        raise ConfigError(f"capacities list {capacities.num_bs} edge caches "
                          f"for {topology.num_bs} base stations")

    warm_count = int(len(trace.file_ids) * config.warmup_frac)
    if warm_count == len(trace.file_ids):
        raise ConfigError("empty evaluation window after warm-up split")

    popularity = config.popularity
    if popularity is None:
        popularity = estimate_popularity(trace, warm_count,
                                         smoothing=config.smoothing)
    elif popularity.num_files != catalog.num_files:
        raise ConfigError(f"popularity length must match the {catalog.num_files}-file catalog")

    policy = make_policy(config.policy, topology, catalog, popularity,
                         capacities, assignment, rcr_enabled=config.rcr_enabled)

    # home BS per request, 0 for a user the assignment does not cover
    homes = np.fromiter((topology.users.get(user, 0) for user in trace.user_labels),
                        dtype=np.intp, count=len(trace.user_labels))
    bs, files = homes[trace.user_index], trace.file_ids
    valid = bs > 0
    # a policy that starts empty (lfu, lru) learns from the warm-up window,
    # the head of its pass; one placed from that window starts after it
    start = warm_count if policy.placement.size() else 0
    keep = valid[start:]
    bs, files = bs[start:][keep], files[start:][keep]
    evaluated = policy.replay(bs, files)[np.count_nonzero(keep[:warm_count - start]):]
    window = len(trace.file_ids) - warm_count
    metrics = Metrics(file_size_bytes=catalog.file_size_bytes,
                      malformed_events=window - evaluated.size)
    for source, requests in zip(policy.sources, np.bincount(
            evaluated, minlength=len(policy.sources)).tolist()):
        metrics._count(source.kind, requests)
    if evaluated.size:  # summed in request order, as Metrics.record sums
        delays = np.array([source.delay_cost for source in policy.sources])
        metrics.sum_delay_ms = float(np.cumsum(delays[evaluated])[-1])
    return metrics


@dataclass
class SweepRow:
    policy: str
    axis_value: object
    seed: int
    metrics: Metrics


def _sweep_cell(args):
    """The row of ``config`` with field ``axis`` at ``value`` (a budget drops capacities)."""
    axis, value, config = args
    reset = {"capacities": None} if axis == "total_cache_bytes" else {}
    cell = replace(config, **{axis: value}, **reset)
    return SweepRow(policy=cell.policy, axis_value=value,
                    seed=cell.master_seed, metrics=run_experiment(cell))


def run_sweep(base, axis, values, jobs=1):
    """Run one experiment per axis value, all from the same master seed so
    the resulting curves are comparable. Returns rows in input order.

    ``jobs`` > 1 runs cells in parallel processes, at most one per cell;
    ordering is deterministic regardless. ``jobs`` < 1 is a ``ConfigError``.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of "
                          + ", ".join(SWEEP_AXES))
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    cells = [(axis, value, base) for value in values]
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            return list(pool.map(_sweep_cell, cells))
    return [_sweep_cell(cell) for cell in cells]


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
