import dataclasses
import math
import pickle

import numpy as np
import pytest

from octocache import (CacheCapacities, Catalog, ConfigError, Popularity,
                       Topology, build_paper_topology, capacities_from_budget)
from octocache.topology import (CDN_DELAY_RANGE_MS, EDGE_DELAY_RANGE_MS,
                                parse_config_text, topology_from_config,
                                uturn_peer_delays)


def test_paper_topology_ranges():
    topo = build_paper_topology(7, seed=123)
    assert topo.num_bs == 7
    assert all(10.0 <= d <= 30.0 for d in topo.edge_delay)
    assert 60.0 <= topo.cdn_delay <= 100.0
    # U-turn sums, symmetric by construction
    for r in range(7):
        for k in range(7):
            if r != k:
                assert topo.peer_delay[r][k] == pytest.approx(
                    topo.edge_delay[r] + topo.edge_delay[k])
                assert topo.peer_delay[r][k] == topo.peer_delay[k][r]


def test_paper_topology_deterministic():
    a = build_paper_topology(7, seed=9)
    b = build_paper_topology(7, seed=9)
    assert a == b
    assert a != build_paper_topology(7, seed=10)


def test_paper_topology_single_bs():
    topo = build_paper_topology(1, seed=0)
    assert topo.peer_delay == ((0.0,),)


@pytest.mark.parametrize("seed", range(60))
def test_cdn_delay_clears_every_peer_delay(seed):
    # sampled d_rk can reach 60 while d_0 starts at 60; the builder must
    # resample d_0 until the ordering premise holds strictly
    topo = build_paper_topology(5, seed=seed)
    worst = max(max(row) for row in topo.peer_delay)
    assert topo.cdn_delay >= worst + 1.0
    for r in range(5):
        assert 0 < topo.edge_delay[r] < topo.cdn_delay


def test_cdn_delay_is_resampled_until_it_clears_the_peers():
    # seed 10032's first CDN draw, 60.37 ms, falls short of its largest
    # U-turn delay, 59.42 ms, plus 1 ms
    rng = np.random.default_rng(10032)
    edge = rng.uniform(*EDGE_DELAY_RANGE_MS, size=7)
    first = float(rng.uniform(*CDN_DELAY_RANGE_MS))
    worst = max(max(row) for row in uturn_peer_delays(edge))
    assert first < worst + 1.0
    topo = build_paper_topology(7, 10032)
    assert topo.edge_delay == tuple(edge.tolist())
    assert topo.cdn_delay != first and topo.cdn_delay >= worst + 1.0


def test_ordering_chain_edge_peer_cdn():
    topo = build_paper_topology(4, seed=77)
    for r in range(4):
        for k in range(4):
            if r != k:
                assert 0 < topo.edge_delay[r] < topo.peer_delay[r][k] <= topo.cdn_delay


def test_topology_validation_errors():
    with pytest.raises(ValueError):
        Topology(num_bs=0, edge_delay=(), peer_delay=(), cdn_delay=100.0)
    with pytest.raises(ValueError):  # cdn must dominate
        Topology(num_bs=1, edge_delay=(50.0,), peer_delay=((0.0,),), cdn_delay=40.0)
    with pytest.raises(ValueError):  # nonpositive peer delay
        Topology(num_bs=2, edge_delay=(10.0, 10.0),
                 peer_delay=((0.0, 0.0), (20.0, 0.0)), cdn_delay=100.0)
    with pytest.raises(ValueError, match="cdn_delay must exceed every in-network"):
        # above every edge delay, not above serving BS 2 from BS 1's cache
        Topology(num_bs=2, edge_delay=(10.0, 20.0),
                 peer_delay=((0.0, 30.0), (60.0, 0.0)), cdn_delay=50.0)
    with pytest.raises(ValueError):  # duplicate user
        Topology(num_bs=2, edge_delay=(10.0, 10.0),
                 peer_delay=((0.0, 20.0), (20.0, 0.0)), cdn_delay=100.0,
                 users=(("u", 1), ("u", 2)))
    with pytest.raises(ValueError):  # home BS out of range
        Topology(num_bs=2, edge_delay=(10.0, 10.0),
                 peer_delay=((0.0, 20.0), (20.0, 0.0)), cdn_delay=100.0,
                 users=(("u", 3),))
    peer = ((0.0, 20.0), (20.0, 0.0))
    with pytest.raises(ValueError, match="expected 2 edge delays, got 1"):
        Topology(num_bs=2, edge_delay=(10.0,), peer_delay=peer, cdn_delay=100.0)
    with pytest.raises(ValueError, match="edge delays must be positive"):
        Topology(num_bs=2, edge_delay=(10.0, 0.0), peer_delay=peer, cdn_delay=100.0)
    for ragged in (((0.0, 20.0), (20.0,)), peer + ((20.0, 20.0),)):
        with pytest.raises(ValueError, match="R x R matrix"):
            Topology(num_bs=2, edge_delay=(10.0, 10.0), peer_delay=ragged,
                     cdn_delay=100.0)


def test_asymmetric_peer_delays_accepted():
    topo = Topology(num_bs=2, edge_delay=(10.0, 20.0),
                    peer_delay=((0.0, 25.0), (35.0, 0.0)), cdn_delay=100.0)
    assert topo.peer_delay[0][1] != topo.peer_delay[1][0]


def test_topology_immutable():
    topo = build_paper_topology(2, seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        topo.cdn_delay = 1.0


def test_users_and_counts():
    topo = build_paper_topology(3, seed=4).with_users({"a": 1, "b": 1, "c": 3})
    assert topo.users == {"a": 1, "b": 1, "c": 3}
    assert dataclasses.replace(topo, users=(("a", 1), ("b", 1), ("c", 3))) == topo
    assert pickle.loads(pickle.dumps(topo)) == topo  # sweep workers get a copy
    assert topo.home_bs("b") == 1
    assert topo.user_count() == 3
    assert list(topo.bs_user_counts()) == [2.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        topo.home_bs("nobody")


def test_capacities_from_budget_04tb():
    topo = build_paper_topology(7, seed=0)
    caps = capacities_from_budget(400_000_000_000, topo, Catalog(20000, 20.0))
    assert caps.edge == (1818,) * 7
    assert caps.cloud == 7272


def test_capacities_from_budget_small_and_zero():
    topo = build_paper_topology(7, seed=0)
    caps = capacities_from_budget(220_000_000, topo, Catalog(11, 20.0))
    assert caps.cloud == 4 and caps.edge == (1,) * 7
    zero = capacities_from_budget(0, topo, Catalog(10, 20.0))
    assert zero.cloud == 0 and zero.edge == (0,) * 7


def test_capacities_ratio_exact_property():
    rng = np.random.default_rng(3)
    for _ in range(50):
        topo = build_paper_topology(int(rng.integers(1, 9)), seed=int(rng.integers(100)))
        budget = int(rng.integers(0, 10**12))
        caps = capacities_from_budget(budget, topo, Catalog(1000, 20.0))
        assert caps.cloud == 4 * caps.edge[0]
        assert len(set(caps.edge)) == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        CacheCapacities(cloud=-1, edge=(1,))
    with pytest.raises(ValueError):
        CacheCapacities(cloud=1, edge=(1.5,))


def test_capacities_are_stored_as_ints():
    caps = CacheCapacities(cloud=2.0, edge=(np.int64(1), 3.0))
    assert caps == CacheCapacities(cloud=2, edge=(1, 3))
    assert [type(m) for m in caps.as_list()] == [int, int, int]
    for bad in (math.inf, math.nan, "2", None, 1.5, -1):
        with pytest.raises(ValueError, match="cloud capacity"):
            CacheCapacities(cloud=bad, edge=(1,))
        with pytest.raises(ValueError, match="edge capacities"):
            CacheCapacities(cloud=1, edge=(1, bad))
    topo = build_paper_topology(3, seed=0)
    caps = capacities_from_budget(10**9, topo, Catalog(60, 20.0), cloud_edge_ratio=2.0)
    assert caps == CacheCapacities(cloud=20, edge=(10, 10, 10))
    assert [type(m) for m in caps.as_list()] == [int] * 4


def test_home_bs_must_be_a_whole_number():
    topo = build_paper_topology(2, seed=1)
    for home in (1.5, math.nan, math.inf, "1", None):
        with pytest.raises(ValueError, match="home BS"):
            topo.with_users({"u": home})
    users = topo.with_users({"a": 2.0, "b": np.int64(1)}).users
    assert users == {"a": 2, "b": 1}
    assert [type(home) for home in users.values()] == [int, int]


def test_catalog_and_popularity_validation():
    with pytest.raises(ValueError):
        Catalog(num_files=0)
    with pytest.raises(ValueError):
        Popularity(np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        Popularity(np.array([1.5, -0.5]))
    assert Catalog(5, 20.0).file_size_bytes == 20_000_000


def test_nonfinite_values_rejected():
    with pytest.raises(ValueError):
        Popularity(np.array([np.nan, 0.5, 0.5]))
    with pytest.raises(ValueError):
        Topology(num_bs=2, edge_delay=(10.0, np.nan),
                 peer_delay=((0.0, 30.0), (30.0, 0.0)), cdn_delay=100.0)
    with pytest.raises(ValueError):
        Topology(num_bs=1, edge_delay=(10.0,), peer_delay=((0.0,),),
                 cdn_delay=np.inf)
    with pytest.raises(ValueError):
        Catalog(num_files=3, file_size_mb=np.inf)


def config_topology(text):
    return topology_from_config(parse_config_text(text))


def test_config_num_bs_inferred_and_checked():
    text = "edge_delay_ms = 10, 20\ncdn_delay_ms = 100\n"
    assert config_topology(text).num_bs == 2
    assert config_topology("num_bs = 2\n" + text).num_bs == 2
    with pytest.raises(ConfigError):
        config_topology("num_bs = 3\n" + text)


def test_config_roundtrip_uturn():
    topo = build_paper_topology(4, seed=11)
    text = ("edge_delay_ms = " + ", ".join(map(repr, topo.edge_delay))
            + f"\ncdn_delay_ms = {topo.cdn_delay!r}\npeer_delay_model = uturn-sum\n")
    assert config_topology(text) == dataclasses.replace(topo, users=())


def test_config_roundtrip_explicit_matrix():
    topo = Topology(num_bs=2, edge_delay=(10.0, 20.0),
                    peer_delay=((0.0, 25.0), (35.0, 0.0)), cdn_delay=100.0)
    text = ("num_bs = 2\nedge_delay_ms = 10, 20\ncdn_delay_ms = 100\n"
            "peer_delay_model = explicit\npeer_delay_ms = 0, 25; 35, 0\n")
    assert config_topology(text) == topo


def test_uturn_matrix_values():
    peer = uturn_peer_delays((10.0, 20.0, 30.0))
    assert peer[0][1] == 30.0 and peer[1][2] == 50.0 and peer[0][0] == 0.0
