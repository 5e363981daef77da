"""Output checks. Each returns a list of problems; empty means correct."""

from __future__ import annotations

from octocache import total_expected_delay, utility

#: Relative tolerance of the duality identity utility + delay = U * d0.
DUALITY_RTOL = 1e-9


def check_metrics(metrics):
    """Every evaluated request is served from exactly one source, and the
    backhaul is the CDN fetches times the file size."""
    problems = []
    served = (metrics.local_hits + metrics.cloud_hits + metrics.neighbor_hits
              + metrics.cdn_fetches)
    if metrics.requests_total < 1:
        problems.append("no request was evaluated")
    if served != metrics.requests_total:
        problems.append(f"sources sum to {served}, requests_total is "
                        f"{metrics.requests_total}")
    if metrics.backhaul_bytes != metrics.cdn_fetches * metrics.file_size_bytes:
        problems.append(f"backhaul {metrics.backhaul_bytes} B is not "
                        f"{metrics.cdn_fetches} CDN fetches x "
                        f"{metrics.file_size_bytes} B")
    return problems


def check_placement(placement, topology, popularity, capacities, num_files):
    """A final octopus placement is feasible, fills every cache to its
    capacity clamped to the catalog size, and meets the duality identity."""
    problems = []
    if not placement.is_feasible():
        problems.append("placement is infeasible")
    for cache, cap in enumerate(capacities.as_list()):
        want = min(cap, num_files)
        if placement.cache_size(cache) != want:
            problems.append(f"cache {cache} holds {placement.cache_size(cache)} "
                            f"files, capacity {want}")
    bound = topology.user_count() * topology.cdn_delay
    total = (utility(placement, topology, popularity)
             + total_expected_delay(placement, topology, popularity))
    if abs(total - bound) > DUALITY_RTOL * bound:
        problems.append(f"utility + expected delay = {total!r}, "
                        f"U*d0 = {bound!r}")
    return problems


def check_trace_counts(parsed_events, parsed_malformed, events, malformed):
    """The parser finds exactly the events and bad lines the generator wrote."""
    problems = []
    if parsed_events != events:
        problems.append(f"parsed {parsed_events} events, wrote {events}")
    if parsed_malformed != malformed:
        problems.append(f"parser counted {parsed_malformed} malformed lines, "
                        f"wrote {malformed}")
    return problems
