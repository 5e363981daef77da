"""Command-line front end.

Subcommands: ``simulate`` (one experiment), ``sweep`` (a grid of
experiments), ``gen-trace`` (synthetic workload to CSV), ``oracle``
(greedy vs. brute-force optimum), ``validate-trace`` (ingestion check).

Each option is declared once, in ``OPTIONS``: its name (the config key,
and with dashes the flag), the subcommands that read it, its converter
with its range check, its choices and its default. A subcommand accepts
only the flags it reads. ``--config`` reads flat ``key = value`` lines;
explicit flags win over config values, and a key that no subcommand reads,
or that the file repeats, is an error. A key that only another subcommand
reads is ignored, and so is one that this run does not read because
another of its inputs gives or replaces the value (``_unread``); such a
flag is an error, so the header echoes only what the run read. Sizes
accept decimal suffixes (KB/MB/GB/TB). Exit codes: 0 success, 1
configuration error, 2 trace I/O or format error, 3 structurally
infeasible instance.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import __version__
from .engine import (ExperimentConfig, SweepRow, run_experiment, run_sweep,
                     rows_to_csv, rows_to_json)
from .errors import ConfigError, InfeasibleInstanceError, TraceError
from .placement import brute_force_optimal, pcd
from .policies import POLICY_NAMES
from .routing import utility
from .topology import (CacheCapacities, Catalog, Popularity, Topology,
                       build_paper_topology, capacities_from_budget,
                       uturn_peer_delays)
from .workload import (generate_requests, parse_trace_file, serialize_trace,
                       zipf_popularity)

_SIZE_SUFFIXES = {"B": 1, "KB": 10**3, "MB": 10**6, "GB": 10**9, "TB": 10**12}

# each --axis value's config field, and the options whose value every
# cell supplies anew, so the sweep does not read them
_SWEEP_AXES = {"cache-total": ("total_cache_bytes",
                               ("cache_total", "capacity_cloud", "capacity_edge")),
               "zipf-alpha": ("zipf_alpha", ("zipf_alpha", "trace")),
               "policy": ("policy", ("policy", "policies"))}


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
    if size < 0:
        raise ConfigError(f"size {text!r} is negative")
    return int(round(size))


# numpy array sizes are 64-bit
_COUNT_END = 2**63


def _number(kind, low, below=math.inf):
    """Converter from text to ``kind`` that accepts values in [low, below),
    so never nan or an infinity."""
    def convert(text):
        value = kind(text)
        if not low <= value < below:
            raise ValueError(f"must lie in [{low}, {below}), got {text!r}")
        return value
    return convert


def _count(low):
    return _number(int, low, _COUNT_END)


def _path(text):
    if "\0" in text:
        raise ValueError("a path cannot contain a NUL character")
    return text


_RUNS = ("simulate", "sweep")
_INSTANCE = _RUNS + ("oracle",)


@dataclass(frozen=True)
class Option:
    """One option. ``name`` is its config key; with dashes it is also its
    flag unless ``flag`` is False. ``aliases`` are further config keys."""

    name: str
    commands: tuple
    convert: object = str
    default: object = None
    choices: tuple = ()
    help: str | None = None
    flag: bool = True
    aliases: tuple = ()

    @property
    def flag_spelling(self):
        return "--" + self.name.replace("_", "-")

    @property
    def keys(self):
        return (self.name, *self.aliases)

    def parse(self, text):
        value = self.convert(text)
        if self.choices and value not in self.choices:
            raise ValueError(f"expected one of {', '.join(self.choices)}, "
                             f"got {text!r}")
        return value


OPTIONS = (
    Option("bs", _INSTANCE, _count(1), 7, aliases=("num_bs",),
           help="number of base stations"),
    Option("files", _INSTANCE + ("gen-trace",), _count(1), 10_000,
           help="catalog size F"),
    # at least one byte per file
    Option("file_size_mb", _INSTANCE, _number(float, 1e-6), 20.0),
    Option("cache_total", _INSTANCE, parse_size,
           help="total cache budget, e.g. 0.4TB"),
    Option("cloud_edge_ratio", _INSTANCE, _count(0), 4,
           help="cloud capacity as a multiple of one edge (default 4)"),
    Option("zipf_alpha", _INSTANCE + ("gen-trace",), _number(float, 0), 0.8,
           help="Zipf skew of a synthetic workload (default 0.8)"),
    Option("requests", _RUNS + ("gen-trace",), _count(0), 100_000),
    Option("users", _RUNS + ("gen-trace",), _count(1), 1000),
    Option("trace", _RUNS + ("validate-trace",), _path,
           help="request trace CSV path"),
    Option("warmup_frac", _RUNS, _number(float, 0, 1), 0.2,
           help="leading fraction of events used for warm-up (default 0.2)"),
    Option("seed", _INSTANCE + ("gen-trace",), _number(int, 0), 0,
           help="master seed"),
    Option("out", _INSTANCE + ("gen-trace", "validate-trace"), _path,
           help="output path (default stdout)"),
    Option("format", _RUNS, default="csv", choices=("csv", "json")),
    Option("policy", _RUNS, choices=POLICY_NAMES),
    Option("jobs", ("sweep",), _count(1), 1, help="parallel sweep workers"),
    Option("policies", ("sweep",), help="comma-separated policy names"),
    Option("axis", ("sweep",), choices=tuple(_SWEEP_AXES)),
    Option("values", ("sweep",), help="comma-separated axis values"),
    Option("trials", ("oracle",), _count(1),
           help="batch mode: number of random desk-scale instances"),
    # instance keys, config files only
    Option("edge_delay_ms", _INSTANCE, flag=False),
    Option("cdn_delay_ms", _INSTANCE, _number(float, 0), flag=False),
    Option("peer_delay_model", _INSTANCE, choices=("uturn-sum", "explicit"),
           flag=False),
    Option("peer_delay_ms", _INSTANCE, flag=False),
    Option("capacity_cloud", _INSTANCE, _count(0), flag=False),
    Option("capacity_edge", _INSTANCE, flag=False),
    Option("popularity", _INSTANCE, flag=False),
    Option("users_per_bs", ("oracle",), _count(1), 1, flag=False),
)

_OPTION_BY_KEY = {key: option for option in OPTIONS for key in option.keys}


class Options(dict):
    """The value of each option of one subcommand, by option name, or None
    where the run does not read it. ``given`` maps each option the user set to the flag or config key that
    set it."""

    def __init__(self):
        super().__init__()
        self.given = {}

    @contextmanager
    def naming(self, *names):
        """Turn a ``ValueError`` raised by the values of ``names`` into a
        ``ConfigError`` that names them as the user wrote them."""
        try:
            yield
        except ValueError as exc:
            spelled = ", ".join(self.given.get(name, name) for name in names)
            raise ConfigError(f"{spelled}: {exc}") from exc


def _load_config_file(path):
    """The key and value of each ``key = value`` line, by option name, once
    each; keys read dashes as underscores, and '#' starts a comment."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTION_BY_KEY:
            raise ConfigError(f"unknown config key {key!r}")
        name = _OPTION_BY_KEY[key].name
        if name in lines:
            raise ConfigError(f"line {lineno}: {key} repeats {lines[name][0]}")
        lines[name] = key, value.strip()
    return lines


def _split(text, convert=float, sep=","):
    """The non-empty items of a config value split on ``sep``, each converted."""
    items = (item.strip() for item in str(text).split(sep))
    try:
        return [convert(item) for item in items if item]
    except ValueError:
        raise ConfigError(f"cannot parse list {text!r}") from None


def _resolve(args):
    """Each option the subcommand reads: its flag, else its config line, else
    its default; None where ``_unread`` finds that this run does not read
    it, and then its flag is an error. Other subcommands' keys are ignored."""
    lines = _load_config_file(args.config) if args.config else {}
    opts = Options()
    for option in OPTIONS:
        if args.command not in option.commands:
            continue
        key, text = lines.get(option.name, (None, None))
        if key:
            opts.given[option.name] = key
        if option.flag and getattr(args, option.name) is not None:
            text = getattr(args, option.name)
            opts.given[option.name] = option.flag_spelling
        if text is None:
            opts[option.name] = option.default
        else:
            with opts.naming(option.name):
                opts[option.name] = option.parse(text)
    for name, reason in _unread(opts, args.command).items():
        spelled = opts.given.pop(name, "")
        if spelled.startswith("--"):
            raise ConfigError(f"{spelled} is not read: {reason}")
        opts[name] = None
    return opts


def _unread(opts, command):
    """Each option ``command`` takes that this run does not read, with the
    reason: another input gives or replaces its value. A rule holds only
    where the run reads its cause, so a rule may void a later one."""
    unread = {}

    def drop(cause, reason, *names):
        if opts.get(cause) is not None and cause not in unread:
            unread.update({name: reason.format(opts.given[cause]) for name in names
                           if name in opts and name not in unread})

    drop("trials", "{} draws every instance at random",
         *(name for name in opts if name not in ("seed", "trials", "out")))
    if opts.get("axis"):
        drop("axis", f"each cell of {{}} {opts['axis']} supplies its own",
             *_SWEEP_AXES[opts["axis"]][1])
    drop("policies", "{} names the policies", "policy")
    drop("trace", "the requests come from {}", "files", "requests", "users", "zipf_alpha")
    drop("capacity_edge", "the config gives the capacities", "cloud_edge_ratio")
    if command == "oracle":
        drop("capacity_edge", "the config gives the capacities in files", "file_size_mb")
        drop("popularity", "the config gives the popularity", "zipf_alpha")
        drop("edge_delay_ms", "the config gives the topology", "seed")
    return unread


def _config_topology(opts):
    """The topology given by the config's delay keys, or None without them;
    the peer delays are U-turn sums unless ``peer_delay_model = explicit``.
    A BS count the user gave must agree; the delay list's count becomes
    ``opts["bs"]``, which the header echoes."""
    keys = [key for key in ("edge_delay_ms", "cdn_delay_ms", "peer_delay_model",
                            "peer_delay_ms") if opts[key] is not None]
    if not keys:
        return None
    missing = [key for key in ("edge_delay_ms", "cdn_delay_ms") if key not in keys]
    if missing:
        raise ConfigError(f"{', '.join(keys)} given without {' and '.join(missing)}")
    explicit = opts["peer_delay_model"] == "explicit"
    if explicit != ("peer_delay_ms" in keys):
        raise ConfigError("peer_delay_ms goes with peer_delay_model = explicit")
    with opts.naming(*keys):
        edge = tuple(_split(opts["edge_delay_ms"]))
        peer = (tuple(tuple(_split(row))
                      for row in _split(opts["peer_delay_ms"], str, ";"))
                if explicit else uturn_peer_delays(edge))
        topology = Topology(num_bs=len(edge), edge_delay=edge, peer_delay=peer,
                            cdn_delay=opts["cdn_delay_ms"])
    if "bs" in opts.given and opts["bs"] != topology.num_bs:
        raise ConfigError(f"{opts.given['bs']} gives {opts['bs']} base "
                          f"stations but edge_delay_ms lists "
                          f"{topology.num_bs} delays")
    opts["bs"] = topology.num_bs
    return topology


def _explicit_capacities(opts, num_bs, axis=None):
    """The config's capacities, or None where the run splits --cache-total.
    A run takes exactly one of the two, except that each cell of a
    ``total_cache_bytes`` sweep ``axis`` sets its own budget and drops both."""
    capacities = None
    if opts["capacity_edge"] is not None:
        with opts.naming("capacity_edge"):
            edges = _split(opts["capacity_edge"], int)
        if len(edges) == 1:
            edges = edges * num_bs
        elif len(edges) != num_bs:
            raise ConfigError(f"capacity_edge lists {len(edges)} capacities "
                              f"for {num_bs} base stations; give 1 or {num_bs}")
        if opts["capacity_cloud"] is None:
            raise ConfigError("capacity_edge requires capacity_cloud")
        with opts.naming("capacity_edge"):
            capacities = CacheCapacities(cloud=opts["capacity_cloud"],
                                         edge=tuple(edges))
    elif opts["capacity_cloud"] is not None:
        raise ConfigError("capacity_cloud requires capacity_edge")
    if (axis != "total_cache_bytes"
            and (capacities is None) == (opts["cache_total"] is None)):
        budget = opts.given.get("cache_total", "--cache-total")
        raise ConfigError(f"exactly one of {budget} and explicit capacities required")
    return capacities


def _explicit_popularity(opts):
    if opts["popularity"] is None:
        return None
    with opts.naming("popularity"):
        return Popularity(np.array(_split(opts["popularity"])))


def _experiment_config(opts, policy, axis=None):
    """The run's config; a ``total_cache_bytes`` sweep ``axis`` supplies
    each cell's budget, so the base needs none."""
    topology = _config_topology(opts)
    capacities = _explicit_capacities(opts, opts["bs"], axis)
    return ExperimentConfig(
        policy=policy,
        num_bs=opts["bs"],
        num_files=opts["files"],
        file_size_mb=opts["file_size_mb"],
        total_cache_bytes=opts["cache_total"],
        cloud_edge_ratio=opts["cloud_edge_ratio"],
        capacities=capacities,
        trace_path=opts["trace"],
        zipf_alpha=opts["zipf_alpha"],
        num_requests=opts["requests"],
        num_users=opts["users"],
        warmup_frac=opts["warmup_frac"],
        master_seed=opts["seed"],
        topology=topology,
        popularity=_explicit_popularity(opts),
    )


def _header_lines(opts, command, extra=()):
    resolved = " ".join(f"{key}={opts[key]}" for key in sorted(opts)
                        if opts[key] is not None)
    return [f"octocache {command} v{__version__}", resolved, *extra]


def _emit(text, out_path):
    """Write ``text`` to ``out_path``, or to stdout when no path is given.
    The only place the CLI writes a file. A path the text echoes keeps the
    bytes it was given, also where they are not UTF-8."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", errors="surrogateescape",
                      newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    else:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:
            raise ConfigError(f"cannot write to stdout: {exc}") from exc


def _emit_rows(rows, opts, command, extra_header=()):
    header = _header_lines(opts, command, extra_header)
    if opts["format"] == "json":
        text = rows_to_json(rows, header=" | ".join(header)) + "\n"
    else:
        text = rows_to_csv(rows, header_lines=header)
    _emit(text, opts["out"])


def cmd_simulate(opts):
    if opts["policy"] is None:
        raise ConfigError("--policy is required")
    config = _experiment_config(opts, opts["policy"])
    metrics = run_experiment(config)
    seeds = config.seeds()
    row = SweepRow(policy=config.policy, axis_value="", seed=seeds["master"], metrics=metrics)
    drawn = {"topology": config.topology is None, "assignment": True,
             "workload": config.trace_path is None}
    header = " ".join(f"seed_{k}={v}" for k, v in seeds.items() if drawn.get(k))
    _emit_rows([row], opts, "simulate", [header])
    return 0


def cmd_sweep(opts):
    if opts["axis"] is None:
        raise ConfigError("--axis is required")
    axis = _SWEEP_AXES[opts["axis"]][0]
    axis_option = _OPTION_BY_KEY[opts["axis"].replace("-", "_")]
    with opts.naming("values"):
        values = [axis_option.parse(text)
                  for text in _split(opts["values"] or "", str)]
    if not values:
        raise ConfigError("--values must list at least one value")

    policies = _split(opts["policies"] or "", str)
    if axis == "policy":
        policies = values[:1]
    elif opts["policy"]:  # None beside --policies
        policies = [opts["policy"]]
    elif not policies:
        raise ConfigError("--policies is required for this axis")
    rows = run_sweep(_experiment_config(opts, policies[0], axis), axis, values,
                     jobs=opts["jobs"], policies=policies)
    _emit_rows(rows, opts, "sweep")
    return 0


def cmd_gen_trace(opts):
    popularity = zipf_popularity(opts["files"], opts["zipf_alpha"])
    users = list(range(1, opts["users"] + 1))
    trace = generate_requests(popularity, opts["requests"], users, opts["seed"])
    print(" | ".join(_header_lines(opts, "gen-trace")), file=sys.stderr)
    _emit(serialize_trace(trace), opts["out"])
    return 0


def _oracle_instance(opts):
    topology = _config_topology(opts)
    if topology is None:
        topology = build_paper_topology(opts["bs"], opts["seed"])
    assignment = {f"u{r}_{i}": r
                  for r in range(1, topology.num_bs + 1)
                  for i in range(1, opts["users_per_bs"] + 1)}
    topology = topology.with_users(assignment)
    catalog = Catalog(num_files=opts["files"])
    popularity = _explicit_popularity(opts)
    if popularity is None:
        popularity = zipf_popularity(opts["files"], opts["zipf_alpha"])
    if popularity.num_files != catalog.num_files:
        raise ConfigError("popularity length must match --files")
    capacities = _explicit_capacities(opts, topology.num_bs)
    if capacities is None:
        capacities = capacities_from_budget(
            opts["cache_total"], topology,
            Catalog(opts["files"], opts["file_size_mb"]), opts["cloud_edge_ratio"])
    return topology, catalog, popularity, capacities


def _greedy_and_optimum(topology, catalog, popularity, capacities):
    """pcd's utility, the brute-force optimum's, and their ratio (1 at optimum 0)."""
    optimal = brute_force_optimal(topology, catalog, popularity, capacities)
    optimum = utility(optimal, topology, popularity)
    greedy = pcd(topology, catalog, popularity, capacities).final_utility
    return greedy, optimum, greedy / optimum if optimum > 0 else 1.0


def _trial_ratios(trials, seed):
    """The pcd/optimum ratio of each of ``trials`` random desk-scale
    instances drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        num_bs = int(rng.integers(1, 4))
        num_files = int(rng.integers(2, 7))
        topology = build_paper_topology(num_bs, int(rng.integers(0, 2**31)))
        assignment = {f"u{i}": int(rng.integers(1, num_bs + 1))
                      for i in range(int(rng.integers(1, 2 * num_bs + 1)))}
        topology = topology.with_users(assignment)
        catalog = Catalog(num_files=num_files)
        popularity = Popularity.from_weights(rng.random(num_files) + 0.05)
        capacities = CacheCapacities(
            cloud=int(rng.integers(0, 3)),
            edge=tuple(int(rng.integers(0, 3)) for _ in range(num_bs)))
        ratios.append(_greedy_and_optimum(topology, catalog, popularity,
                                          capacities)[2])
    return ratios


def cmd_oracle(opts):
    if opts["trials"] is None:
        greedy, optimum, ratio = _greedy_and_optimum(*_oracle_instance(opts))
        lines = [f"pcd_utility={format(greedy, '.10g')}",
                 f"optimal_utility={format(optimum, '.10g')}",
                 f"ratio={format(ratio, '.10g')}"]
    else:
        ratios = _trial_ratios(opts["trials"], opts["seed"])
        lines = [f"trials={opts['trials']}",
                 f"min_ratio={format(min(ratios), '.10g')}",
                 f"mean_ratio={format(sum(ratios) / len(ratios), '.10g')}"]
    header = [f"# {line}" for line in _header_lines(opts, "oracle")]
    _emit("\n".join(header + lines) + "\n", opts["out"])
    return 0


def cmd_validate_trace(opts):
    if opts["trace"] is None:
        raise ConfigError("--trace is required")
    trace = parse_trace_file(opts["trace"])
    times = trace.times
    lines = [f"events={times.size}",
             f"users={len(trace.user_labels)}",
             f"files={trace.catalog_size}",
             f"malformed_lines={trace.malformed_lines}",
             f"time_span={format(float(times[-1] - times[0]), '.10g')}"]
    _emit("\n".join(lines) + "\n", opts["out"])
    return 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_HANDLERS = {
    "simulate": (cmd_simulate, "run one experiment"),
    "sweep": (cmd_sweep, "run a grid of experiments"),
    "gen-trace": (cmd_gen_trace, "write a synthetic trace CSV"),
    "oracle": (cmd_oracle, "compare greedy placement with the optimum"),
    "validate-trace": (cmd_validate_trace, "check a trace file parses"),
}


def build_parser():
    """The parser: each subcommand takes ``--config`` and the flags of the
    options it reads. Values stay text; ``_resolve`` converts them."""
    parser = _Parser(prog="octocache",
                     description="cooperative hierarchical caching simulator")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)
    for command, (_, help_text) in _HANDLERS.items():
        sub = commands.add_parser(command, help=help_text)
        sub.add_argument("--config",
                         help="key = value config file; flags override it")
        for option in OPTIONS:
            if option.flag and command in option.commands:
                metavar = ("{" + ",".join(option.choices) + "}"
                           if option.choices else None)
                sub.add_argument(option.flag_spelling, dest=option.name,
                                 metavar=metavar, help=option.help)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _HANDLERS[args.command][0](_resolve(args))
    except TraceError as exc:
        print(f"octocache: trace error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleInstanceError as exc:
        print(f"octocache: infeasible instance: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"usage: octocache {args.command} [--help for options]",
              file=sys.stderr)
        print(f"octocache: config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("octocache: config error: the configured sizes do not fit in memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
