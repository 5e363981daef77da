"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

Criteria 6, 7, and 9 share one pinned synthetic setup: F = 10,000 files of
20 MB, alpha = 0.8, R = 7 cells, 100,000 requests, total cache budget
0.4 TB (so each edge holds 1,818 files and the cloud 7,272), five master
seeds. Heavy replay cells are computed once per (policy, seed) and reused
across those criteria; criterion 9 reruns its whole sweep from scratch to
prove byte-level determinism.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from octocache import (CacheCapacities, Catalog, ExperimentConfig, Placement,
                       Popularity, Topology, brute_force_optimal,
                       build_paper_topology, capacities_from_budget,
                       generate_requests, marginal_gain, pcd, rcr,
                       rows_to_csv, run_experiment, run_sweep,
                       total_expected_delay, utility, assign_users,
                       zipf_popularity)
from octocache.placement import place_exmpc

from conftest import random_feasible_placement, random_instance

SEEDS = (101, 102, 103, 104, 105)

ARCHITECTURE_POLICIES = ("octopus", "ecnc", "eo")
MANAGEMENT_POLICIES = ("exmpc", "femtox", "lfu", "lru")


def _report(num, ok, detail):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def big_config(policy, seed):
    return ExperimentConfig(policy=policy, num_bs=7, num_files=10_000,
                            file_size_mb=20.0,
                            total_cache_bytes=400_000_000_000,
                            zipf_alpha=0.8, num_requests=100_000,
                            num_users=1000, warmup_frac=0.2, master_seed=seed)


@pytest.fixture(scope="module")
def replay_cells():
    """Lazy cache of Metrics per (policy, seed) for the pinned big setup,
    tracking the wall time spent computing each batch."""
    cache = {}

    def get(policies):
        start = time.perf_counter()
        for policy in policies:
            for seed in SEEDS:
                key = (policy, seed)
                if key not in cache:
                    cache[key] = run_experiment(big_config(policy, seed))
        elapsed = time.perf_counter() - start
        table = {p: [cache[(p, s)] for s in SEEDS] for p in policies}
        return table, elapsed

    return get


def mean(values):
    return sum(values) / len(values)


# 1 ------------------------------------------------------------------------

def test_criterion_01_submodularity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    triples = 0
    worst_monotone = np.inf
    worst_diminishing = np.inf
    while triples < 1000:
        topo, catalog, pop, caps = random_instance(
            rng, max_bs=5, max_files=50, max_cap=4, users_per_bs=(1, 2))
        big = random_feasible_placement(rng, caps, catalog.num_files)
        for _ in range(20):
            small = Placement(caps, catalog.num_files)
            for c, f in np.argwhere(big.mask).tolist():
                if rng.random() < 0.5:
                    small.add(f, c)
            cands = [(f, c) for c in range(big.num_caches)
                     for f in range(1, catalog.num_files + 1)
                     if not big.contains(f, c) and not big.is_full(c)]
            if not cands:
                break
            f, c = cands[int(rng.integers(len(cands)))]
            g_small = marginal_gain(small, (f, c), topo, pop)
            g_big = marginal_gain(big, (f, c), topo, pop)
            worst_monotone = min(worst_monotone, g_big)
            worst_diminishing = min(worst_diminishing, g_small - g_big)
            triples += 1
            if triples >= 1000:
                break
    elapsed = time.perf_counter() - start
    ok = (worst_monotone >= -1e-9 and worst_diminishing >= -1e-9
          and elapsed < 10.0)
    _report(1, ok, f"{triples} triples, min marginal {worst_monotone:.2e}, "
                   f"min diminishing-returns slack {worst_diminishing:.2e}, "
                   f"{elapsed:.1f}s (cap 10s)")


# 2 ------------------------------------------------------------------------

def test_criterion_02_duality_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_rel = 0.0
    for _ in range(1000):
        topo, catalog, pop, caps = random_instance(
            rng, max_bs=5, max_files=30, max_cap=4, users_per_bs=(1, 2))
        placement = random_feasible_placement(rng, caps, catalog.num_files)
        u = utility(placement, topo, pop)
        d = total_expected_delay(placement, topo, pop)
        rhs = topo.user_count() * topo.cdn_delay
        worst_rel = max(worst_rel, abs(u + d - rhs) / rhs)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-9 and elapsed < 5.0
    _report(2, ok, f"1000 placements, max relative identity error "
                   f"{worst_rel:.2e} (tol 1e-9), {elapsed:.1f}s (cap 5s)")


# 3 ------------------------------------------------------------------------

def test_criterion_03_oracle_approximation():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    ratios = []
    for _ in range(200):
        topo, catalog, pop, caps = random_instance(
            rng, max_bs=3, max_files=6, max_cap=2)
        opt = utility(brute_force_optimal(topo, catalog, pop, caps), topo, pop)
        greedy = pcd(topo, catalog, pop, caps).final_utility
        ratios.append(greedy / opt if opt > 0 else 1.0)
    elapsed = time.perf_counter() - start
    ok = min(ratios) >= 0.5 - 1e-9 and elapsed < 60.0
    _report(3, ok, f"200 instances, min ratio {min(ratios):.4f} (bound 0.5), "
                   f"mean ratio {mean(ratios):.4f} (informational, expect "
                   f">= 0.95), {elapsed:.1f}s (cap 60s)")


# 4 ------------------------------------------------------------------------

def test_criterion_04_canonical_regression(canonical):
    start = time.perf_counter()
    topo, catalog, pop, caps = canonical
    report = pcd(topo, catalog, pop, caps)
    delay = total_expected_delay(report.placement, topo, pop)
    optimal = brute_force_optimal(topo, catalog, pop, caps)
    elapsed = time.perf_counter() - start
    ok = (abs(report.final_utility - 170.0) < 1e-9
          and abs(delay - 30.0) < 1e-9
          and report.placement == optimal
          and abs(utility(optimal, topo, pop) - 170.0) < 1e-9
          and elapsed < 1.0)
    _report(4, ok, f"utility {report.final_utility:.6g} (expect 170), total "
                   f"delay {delay:.6g} (expect 30), matches optimum: "
                   f"{report.placement == optimal}, {elapsed:.2f}s (cap 1s)")


# 5 ------------------------------------------------------------------------

def test_criterion_05_rcr_improvement():
    # the placement is computed under a stale popularity and the miss is
    # replayed under a drifted one, which is the regime where replacement
    # has real work to do
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    done = 0
    swaps = 0
    ok = True
    while done < 100:
        topo, catalog, stale_pop, caps = random_instance(
            rng, max_bs=4, max_files=12, max_cap=3)
        drifted = Popularity.from_weights(
            stale_pop.as_array() * rng.uniform(0.2, 5.0, catalog.num_files))
        warm = pcd(topo, catalog, stale_pop, caps)
        uncached = [f for f in range(1, catalog.num_files + 1)
                    if not any(f in c for c in warm.placement.contents)]
        if not uncached:
            continue
        new_file = uncached[int(rng.integers(len(uncached)))]
        before = utility(warm.placement, topo, drifted)
        after = rcr(warm.placement, new_file, topo, drifted)
        trace = after.utility_trace
        ok &= all(b > a for a, b in zip(trace, trace[1:]))  # strict per swap
        ok &= after.final_utility >= before - 1e-9
        ok &= abs(trace[0] - before) <= 1e-9 * max(1.0, before)
        ok &= after.placement.is_feasible()
        ok &= all(after.placement.cache_size(c) == warm.placement.cache_size(c)
                  for c in range(after.placement.num_caches))
        swaps += after.iterations
        done += 1
    elapsed = time.perf_counter() - start
    ok = ok and swaps > 0 and elapsed < 30.0
    _report(5, ok, f"100 instances, {swaps} accepted swaps all strictly "
                   f"improving, capacities preserved, {elapsed:.1f}s (cap 30s)")


# 6 ------------------------------------------------------------------------

def test_criterion_06_architecture_ordering(replay_cells):
    # sanity-pin the budget split the criterion quotes
    caps = capacities_from_budget(400_000_000_000,
                                  build_paper_topology(7, 0), Catalog(10_000))
    assert caps.edge == (1818,) * 7 and caps.cloud == 7272

    table, elapsed = replay_cells(ARCHITECTURE_POLICIES)
    hits = {p: mean([m.hit_ratio for m in table[p]]) for p in table}
    delays = {p: mean([m.avg_access_delay for m in table[p]]) for p in table}
    ok = (hits["octopus"] > hits["ecnc"] > hits["eo"]
          and delays["octopus"] < delays["ecnc"] < delays["eo"]
          and elapsed < 300.0)
    _report(6, ok, "mean hit " + " > ".join(f"{p}={hits[p]:.4f}" for p in
                                            ARCHITECTURE_POLICIES)
                   + "; mean delay " + " < ".join(f"{p}={delays[p]:.2f}ms" for p in
                                                  ARCHITECTURE_POLICIES)
                   + f"; {elapsed:.0f}s (cap 300s)")


# 7 ------------------------------------------------------------------------

def test_criterion_07_policy_ordering(replay_cells):
    # Known red on the exmpc delay leg: with a 0.4 TB budget over a 10,000
    # file catalog every file ends up cached (hit ratio exactly 1), so no
    # miss ever triggers reactive replacement, and the plain greedy's
    # early cloud picks of head files (later shadowed by edge duplicates)
    # are never revised. The exclusive second-tier heuristic wins the
    # delay race by ~0.4 ms on most topology draws in this over-provisioned
    # regime; see the desk-scale oracle reproduction in
    # test_greedy_can_trail_exclusive_heuristic below.
    table, elapsed = replay_cells(("octopus",) + MANAGEMENT_POLICIES)
    hits = {p: mean([m.hit_ratio for m in table[p]]) for p in table}
    delays = {p: mean([m.avg_access_delay for m in table[p]]) for p in table}
    legs = {f"hit>={p}": hits["octopus"] >= hits[p] for p in MANAGEMENT_POLICIES}
    legs.update({f"delay<={p}": delays["octopus"] <= delays[p]
                 for p in MANAGEMENT_POLICIES})
    ok = all(legs.values()) and elapsed < 600.0
    failing = ", ".join(k for k, v in legs.items() if not v) or "none"
    _report(7, ok, "mean hit " + ", ".join(f"{p}={hits[p]:.4f}" for p in table)
                   + "; mean delay " + ", ".join(f"{p}={delays[p]:.2f}ms"
                                                 for p in table)
                   + f"; failing legs: {failing}; {elapsed:.0f}s (cap 600s)")


def test_greedy_can_trail_exclusive_heuristic():
    # Oracle-verified desk-scale reproduction of the structural effect
    # behind criterion 7's red delay leg: with abundant capacity and a
    # heavy head, the greedy parks the top file in the cloud first, then
    # duplicates it into every edge, leaving a shadowed cloud slot the
    # exclusive scheme spends on a fresh file instead.
    topo = Topology(num_bs=2, edge_delay=(10.0, 10.0),
                    peer_delay=((0.0, 20.0), (20.0, 0.0)), cdn_delay=100.0,
                    users=(("u1", 1), ("u2", 2)))
    cat = Catalog(num_files=4)
    pop = Popularity(np.array([0.9, 0.04, 0.03, 0.03]))
    caps = CacheCapacities(cloud=2, edge=(1, 1))
    greedy = pcd(topo, cat, pop, caps).final_utility
    exclusive = utility(place_exmpc(topo, cat, pop, caps), topo, pop)
    optimal = utility(brute_force_optimal(topo, cat, pop, caps), topo, pop)
    assert greedy == pytest.approx(187.2)
    assert exclusive == optimal == pytest.approx(192.6)
    assert greedy >= 0.5 * optimal  # the guarantee that does hold


# 8 ------------------------------------------------------------------------

def test_criterion_08_zipf_generator_fidelity():
    start = time.perf_counter()
    worst = 0.0
    for i, alpha in enumerate((0.6, 0.7, 0.8)):
        pop = zipf_popularity(1000, alpha)
        trace = generate_requests(pop, 100_000, list(range(50)), seed=801 + i)
        counts = np.bincount([e.file_id for e in trace.events],
                             minlength=1001)[1:]
        for rank in range(10):
            want = pop.as_array()[rank]
            got = counts[rank] / 100_000
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.10 and elapsed < 10.0
    _report(8, ok, f"3 alphas x top-10 ranks, worst relative error "
                   f"{worst:.3f} (tol 0.10), {elapsed:.1f}s (cap 10s)")


# 9 ------------------------------------------------------------------------

def _criterion6_sweep_csv():
    rows = []
    for seed in SEEDS:
        base = big_config("octopus", seed)
        rows.extend(run_sweep(base, "policy", list(ARCHITECTURE_POLICIES)))
    header = [f"architecture sweep seeds={','.join(str(s) for s in SEEDS)}"]
    return rows_to_csv(rows, header_lines=header).encode("utf-8")


def test_criterion_09_determinism():
    first = _criterion6_sweep_csv()
    second = _criterion6_sweep_csv()
    ok = first == second
    _report(9, ok, f"two executions of the architecture sweep produced "
                   f"{'identical' if ok else 'DIFFERENT'} CSV bytes "
                   f"({len(first)} bytes)")


# 10 -----------------------------------------------------------------------

def test_criterion_10_analytic_simulation_consistency():
    start = time.perf_counter()
    topo = build_paper_topology(7, seed=555)
    users = list(range(1, 201))
    assignment = assign_users(users, 7, seed=556)
    pop = zipf_popularity(1000, 0.8)
    caps = CacheCapacities(cloud=400, edge=(100,) * 7)
    config = ExperimentConfig(policy="octopus", num_files=1000,
                              capacities=caps, zipf_alpha=0.8,
                              num_requests=100_000, num_users=200,
                              warmup_frac=0.0, master_seed=77,
                              topology=topo, popularity=pop,
                              user_assignment=assignment, rcr_enabled=False)
    metrics = run_experiment(config)
    populated = topo.with_users(assignment)
    placement = pcd(populated, Catalog(1000), pop, caps).placement
    analytic = total_expected_delay(placement, populated, pop) / len(users)
    rel = abs(metrics.avg_access_delay - analytic) / analytic
    elapsed = time.perf_counter() - start
    ok = rel <= 0.02 and elapsed < 30.0
    _report(10, ok, f"replayed avg delay {metrics.avg_access_delay:.3f}ms vs "
                    f"analytic {analytic:.3f}ms, relative gap {rel:.4f} "
                    f"(tol 0.02), {elapsed:.1f}s (cap 30s)")
