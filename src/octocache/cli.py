"""Command-line front end.

Subcommands: ``simulate`` (one experiment), ``sweep`` (a grid of
experiments), ``gen-trace`` (synthetic workload to CSV), ``oracle``
(greedy vs. brute-force optimum), ``validate-trace`` (ingestion check).

Options may come from a flat ``key = value`` config file (``--config``);
explicit flags win over config values. Sizes accept decimal suffixes
(KB/MB/GB/TB). Exit codes: 0 success, 1 configuration error, 2 trace I/O
or format error, 3 structurally infeasible instance.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .engine import (ExperimentConfig, SweepRow, run_experiment, run_sweep,
                     rows_to_csv, rows_to_json)
from .errors import ConfigError, InfeasibleInstanceError, TraceError
from .placement import brute_force_optimal, pcd
from .policies import POLICY_NAMES
from .routing import utility
from .topology import (CacheCapacities, Catalog, Popularity,
                       build_paper_topology, capacities_from_budget,
                       parse_config_list, parse_config_text,
                       topology_from_config)
from .workload import (generate_requests, parse_trace_file, serialize_trace,
                       zipf_popularity)

_SIZE_SUFFIXES = {"B": 1, "KB": 10**3, "MB": 10**6, "GB": 10**9, "TB": 10**12}

_AXIS_BY_FLAG = {"cache-total": "total_cache_bytes",
                 "zipf-alpha": "zipf_alpha",
                 "policy": "policy"}


def parse_size(text):
    """'0.4TB' -> 400000000000. Decimal suffixes; bare numbers are bytes."""
    s = str(text).strip().upper().replace(" ", "")
    number, scale = s, 1
    for suffix in ("KB", "MB", "GB", "TB", "B"):
        if s.endswith(suffix):
            number, scale = s[:-len(suffix)], _SIZE_SUFFIXES[suffix]
            break
    try:
        size = float(number) * scale
    except ValueError:
        raise ConfigError(f"cannot parse size {text!r}") from None
    if not math.isfinite(size):
        raise ConfigError(f"size {text!r} is not finite")
    return int(round(size))


_DEFAULTS = {
    "policy": None, "policies": None, "bs": 7, "files": 10_000,
    "file_size_mb": 20.0, "cache_total": None, "cloud_edge_ratio": 4,
    "zipf_alpha": None, "requests": 100_000, "users": 1000, "trace": None,
    "warmup_frac": 0.2, "seed": 0, "axis": None, "values": None,
    "out": None, "format": "csv", "jobs": 1, "trials": None,
    # instance keys available in config files only
    "num_bs": None, "edge_delay_ms": None, "cdn_delay_ms": None,
    "peer_delay_model": None, "peer_delay_ms": None,
    "capacity_cloud": None, "capacity_edge": None, "popularity": None,
    "users_per_bs": None,
}

_CONVERTERS = {
    "bs": int, "files": int, "requests": int, "users": int, "seed": int,
    "jobs": int, "trials": int, "cloud_edge_ratio": int, "num_bs": int,
    "capacity_cloud": int, "users_per_bs": int,
    "file_size_mb": float, "zipf_alpha": float, "warmup_frac": float,
    "cdn_delay_ms": float,
    "cache_total": parse_size,
}


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            raw = parse_config_text(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for key, text in raw.items():
        if key == "bs":
            key = "num_bs"  # --bs mirrors the topology key
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        convert = _CONVERTERS.get(key, str)
        values[key] = convert(text)
    return values


class Options:
    """Merged option set: defaults, then config file, then explicit flags."""

    def __init__(self, resolved, bs_flag):
        self._resolved = resolved
        self._bs_flag = bs_flag

    @classmethod
    def merge(cls, args):
        resolved = dict(_DEFAULTS)
        config_path = getattr(args, "config", None)
        if config_path:
            resolved.update(_load_config_file(config_path))
        if resolved.get("num_bs") is not None:
            resolved["bs"] = resolved["num_bs"]
        for key, val in vars(args).items():
            if key in ("config", "command") or val is None:
                continue
            resolved[key] = val
        return cls(resolved, getattr(args, "bs", None))

    def __getattr__(self, key):
        try:
            return self._resolved[key]
        except KeyError:
            raise AttributeError(key) from None

    def explicit_capacities(self, num_bs):
        if self._resolved.get("capacity_edge") is None:
            return None
        edges = parse_config_list(self._resolved["capacity_edge"], int)
        if len(edges) == 1:
            edges = edges * num_bs
        elif len(edges) != num_bs:
            raise ConfigError(f"capacity_edge lists {len(edges)} capacities "
                              f"for {num_bs} base stations; give 1 or {num_bs}")
        cloud = self._resolved.get("capacity_cloud")
        if cloud is None:
            raise ConfigError("capacity_edge requires capacity_cloud")
        return CacheCapacities(cloud=int(cloud), edge=tuple(edges))

    def config_topology(self):
        """The topology given by the config's ``edge_delay_ms`` and related
        keys, or None without them. An explicit ``--bs`` must agree."""
        if self._resolved.get("edge_delay_ms") is None:
            return None
        topology = topology_from_config(self._resolved)
        if self._bs_flag is not None and self._bs_flag != topology.num_bs:
            raise ConfigError(f"--bs {self._bs_flag} but edge_delay_ms lists "
                              f"{topology.num_bs} delays")
        return topology

    def explicit_popularity(self):
        if self._resolved.get("popularity") is None:
            return None
        return Popularity(np.array(parse_config_list(self._resolved["popularity"])))

    def header_lines(self, command, extra=()):
        keys = sorted(k for k, v in self._resolved.items() if v is not None)
        resolved = " ".join(f"{k}={self._resolved[k]}" for k in keys)
        return [f"octocache {command} v{__version__}", resolved, *extra]


def _experiment_config(opts, policy=None):
    zipf_alpha = opts.zipf_alpha
    if opts.trace is None and zipf_alpha is None:
        zipf_alpha = 0.8
    topology = opts.config_topology()
    num_bs = topology.num_bs if topology is not None else opts.bs
    capacities = opts.explicit_capacities(num_bs)
    if capacities is None and opts.cache_total is None:
        raise ConfigError("--cache-total (or explicit capacities) required")
    return ExperimentConfig(
        policy=policy or opts.policy,
        num_bs=num_bs,
        num_files=opts.files,
        file_size_mb=opts.file_size_mb,
        total_cache_bytes=opts.cache_total,
        cloud_edge_ratio=opts.cloud_edge_ratio,
        capacities=capacities,
        trace_path=opts.trace,
        zipf_alpha=zipf_alpha,
        num_requests=opts.requests,
        num_users=opts.users,
        warmup_frac=opts.warmup_frac,
        master_seed=opts.seed,
        topology=topology,
        popularity=opts.explicit_popularity(),
    )


def _emit(text, out_path):
    """Write ``text`` to ``out_path``, or to stdout when no path is given.
    The only place the CLI writes a file."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_rows(rows, opts, command, extra_header=()):
    header = opts.header_lines(command, extra_header)
    if opts.format == "json":
        text = rows_to_json(rows, header=" | ".join(header)) + "\n"
    else:
        text = rows_to_csv(rows, header_lines=header)
    _emit(text, opts.out)


def cmd_simulate(opts):
    if opts.policy is None:
        raise ConfigError("--policy is required")
    config = _experiment_config(opts)
    metrics = run_experiment(config)
    row = SweepRow(policy=config.policy, axis_value="", seed=config.master_seed,
                   metrics=metrics)
    seeds = config.seeds()
    seed_line = " ".join(f"seed_{k}={v}" for k, v in seeds.items() if k != "master")
    _emit_rows([row], opts, "simulate", [seed_line])
    return 0


def cmd_sweep(opts):
    if opts.axis is None:
        raise ConfigError("--axis is required")
    axis = _AXIS_BY_FLAG.get(opts.axis)
    if axis is None:
        raise ConfigError(f"unknown axis {opts.axis!r}; expected one of "
                          + ", ".join(_AXIS_BY_FLAG))
    raw_values = parse_config_list(opts.values or "", str)
    if not raw_values:
        raise ConfigError("--values must list at least one value")
    if axis == "total_cache_bytes":
        values = [parse_size(v) for v in raw_values]
        if opts.cache_total is None:
            # the axis supplies the budget; seed the base config with the
            # first value (each cell replaces it)
            opts._resolved["cache_total"] = values[0]
    elif axis == "zipf_alpha":
        values = [float(v) for v in raw_values]
    else:
        values = raw_values

    rows = []
    if axis == "policy":
        base = _experiment_config(opts, policy=values[0])
        rows.extend(run_sweep(base, axis, values, jobs=opts.jobs))
    else:
        policies = (parse_config_list(opts.policies or "", str)
                    or ([opts.policy] if opts.policy else []))
        if not policies:
            raise ConfigError("--policies is required for this axis")
        for name in policies:
            base = _experiment_config(opts, policy=name)
            rows.extend(run_sweep(base, axis, values, jobs=opts.jobs))
    _emit_rows(rows, opts, "sweep")
    return 0


def cmd_gen_trace(opts):
    alpha = opts.zipf_alpha if opts.zipf_alpha is not None else 0.8
    popularity = zipf_popularity(opts.files, alpha)
    users = list(range(1, opts.users + 1))
    trace = generate_requests(popularity, opts.requests, users, opts.seed)
    print(" | ".join(opts.header_lines("gen-trace")), file=sys.stderr)
    _emit(serialize_trace(trace), opts.out)
    return 0


def _oracle_instance(opts):
    topology = opts.config_topology()
    if topology is None:
        topology = build_paper_topology(opts.bs, opts.seed)
    per_bs = 1 if opts.users_per_bs is None else opts.users_per_bs
    if per_bs < 1:
        raise ConfigError(f"users_per_bs must be >= 1, got {per_bs}")
    assignment = {f"u{r}_{i}": r
                  for r in range(1, topology.num_bs + 1)
                  for i in range(1, per_bs + 1)}
    topology = topology.with_users(assignment)
    catalog = Catalog(num_files=opts.files, file_size_mb=opts.file_size_mb)
    popularity = opts.explicit_popularity()
    if popularity is None:
        popularity = zipf_popularity(opts.files, opts.zipf_alpha or 0.8)
    if popularity.num_files != catalog.num_files:
        raise ConfigError("popularity length must match --files")
    capacities = opts.explicit_capacities(topology.num_bs)
    if capacities is None:
        if opts.cache_total is None:
            raise ConfigError("--cache-total or explicit capacities required")
        capacities = capacities_from_budget(opts.cache_total, topology, catalog,
                                            opts.cloud_edge_ratio)
    return topology, catalog, popularity, capacities


def _ratio(greedy_value, optimal_value):
    if optimal_value <= 0:
        return 1.0
    return greedy_value / optimal_value


def cmd_oracle(opts):
    lines = [f"# {line}" for line in opts.header_lines("oracle")]
    if opts.trials is not None:
        if opts.trials < 1:
            raise ConfigError(f"--trials must be >= 1, got {opts.trials}")
        rng = np.random.default_rng(opts.seed)
        ratios = []
        for trial in range(opts.trials):
            num_bs = int(rng.integers(1, 4))
            num_files = int(rng.integers(2, 7))
            topology = build_paper_topology(num_bs, int(rng.integers(0, 2**31)))
            assignment = {f"u{i}": int(rng.integers(1, num_bs + 1))
                          for i in range(int(rng.integers(1, 2 * num_bs + 1)))}
            topology = topology.with_users(assignment)
            catalog = Catalog(num_files=num_files, file_size_mb=opts.file_size_mb)
            popularity = Popularity.from_weights(rng.random(num_files) + 0.05)
            capacities = CacheCapacities(
                cloud=int(rng.integers(0, 3)),
                edge=tuple(int(rng.integers(0, 3)) for _ in range(num_bs)))
            optimal = brute_force_optimal(topology, catalog, popularity, capacities)
            greedy = pcd(topology, catalog, popularity, capacities)
            ratios.append(_ratio(greedy.final_utility,
                                 utility(optimal, topology, popularity)))
        lines += [f"trials={opts.trials}",
                  f"min_ratio={format(min(ratios), '.10g')}",
                  f"mean_ratio={format(sum(ratios) / len(ratios), '.10g')}"]
    else:
        topology, catalog, popularity, capacities = _oracle_instance(opts)
        optimal = brute_force_optimal(topology, catalog, popularity, capacities)
        optimal_value = utility(optimal, topology, popularity)
        greedy = pcd(topology, catalog, popularity, capacities)
        lines += [f"pcd_utility={format(greedy.final_utility, '.10g')}",
                  f"optimal_utility={format(optimal_value, '.10g')}",
                  f"ratio={format(_ratio(greedy.final_utility, optimal_value), '.10g')}"]
    _emit("\n".join(lines) + "\n", opts.out)
    return 0


def cmd_validate_trace(opts):
    if opts.trace is None:
        raise ConfigError("--trace is required")
    trace = parse_trace_file(opts.trace)
    events = trace.events
    lines = [f"events={len(events)}",
             f"users={len(trace.users())}",
             f"files={trace.catalog_size}",
             f"malformed_lines={trace.malformed_lines}",
             f"time_span={format(events[-1].time - events[0].time, '.10g')}"]
    _emit("\n".join(lines) + "\n", opts.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--config", help="key=value config file; flags override it")
    sub.add_argument("--bs", type=int, help="number of base stations")
    sub.add_argument("--files", type=int, help="catalog size F")
    sub.add_argument("--file-size-mb", type=float, dest="file_size_mb")
    sub.add_argument("--cache-total", type=parse_size, dest="cache_total",
                     help="total cache budget, e.g. 0.4TB")
    sub.add_argument("--cloud-edge-ratio", type=int, dest="cloud_edge_ratio",
                     help="cloud capacity as a multiple of one edge (default 4)")
    sub.add_argument("--zipf-alpha", type=float, dest="zipf_alpha")
    sub.add_argument("--requests", type=int)
    sub.add_argument("--users", type=int)
    sub.add_argument("--trace", help="request trace CSV path")
    sub.add_argument("--warmup-frac", type=float, dest="warmup_frac",
                     help="leading fraction of events used for warm-up (default 0.2)")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"))
    sub.add_argument("--jobs", type=int, help="parallel sweep workers")


def build_parser():
    parser = _Parser(prog="octocache",
                     description="cooperative hierarchical caching simulator")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    sim = commands.add_parser("simulate", help="run one experiment")
    _add_common(sim)
    sim.add_argument("--policy", choices=POLICY_NAMES)

    sweep = commands.add_parser("sweep", help="run a grid of experiments")
    _add_common(sweep)
    sweep.add_argument("--policy", choices=POLICY_NAMES)
    sweep.add_argument("--policies", help="comma-separated policy names")
    sweep.add_argument("--axis", choices=tuple(_AXIS_BY_FLAG))
    sweep.add_argument("--values", help="comma-separated axis values")

    gen = commands.add_parser("gen-trace", help="write a synthetic trace CSV")
    _add_common(gen)

    oracle = commands.add_parser("oracle",
                                 help="compare greedy placement with the optimum")
    _add_common(oracle)
    oracle.add_argument("--trials", type=int,
                        help="batch mode: number of random desk-scale instances")

    val = commands.add_parser("validate-trace", help="check a trace file parses")
    _add_common(val)

    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "gen-trace": cmd_gen_trace,
    "oracle": cmd_oracle,
    "validate-trace": cmd_validate_trace,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        opts = Options.merge(args)
        return _HANDLERS[args.command](opts)
    except TraceError as exc:
        print(f"octocache: trace error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleInstanceError as exc:
        print(f"octocache: infeasible instance: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"usage: octocache {args.command} [--help for options]",
              file=sys.stderr)
        print(f"octocache: config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
