import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ugt.core import NATURE, validate_game
from ugt.discovery import discovered_version, discovery_relations
from ugt.gamedoc import serialize_game
from ugt.randgen import CAPS, GenParams, generate_random_game, random_profile
from ugt.strategies import acting_players, has_nature

# the benchmark's GenParams grid: players, depth, branching, tree count and
# nature per cell; draw r of cell k has seed 1000 * r + k
GRID = list(itertools.product((2, 3), (3, 4), (2, 3), (3, 5), (False, True)))


def grid_draws(draws: int) -> list:
    """The first ``draws`` generated games of every grid cell."""
    return [generate_random_game(GenParams(players=pl, depth=d, branching=b,
                                           tree_count=tc, nature=nat),
                                 seed=1000 * r + k)
            for k, (pl, d, b, tc, nat) in enumerate(GRID)
            for r in range(draws)]


def test_grid_draws_keep_their_games():
    """Every seed keeps its game: the canonical text and the info key order
    of all 192 grid draws hash as they did before the build path was made
    cheaper."""
    digest = hashlib.sha256()
    for g in grid_draws(6):
        digest.update(serialize_game(g).encode())
        digest.update(repr(list(g.info)).encode())
    assert digest.hexdigest() == \
        "79986a6de5c1121aa10d82c167487825a5bd879eed4715927526ea0e9e464f3a"


def test_deterministic_in_seed():
    for seed in range(10):
        a = generate_random_game(seed=seed, depth=3, branching=3, tree_count=3)
        b = generate_random_game(seed=seed, depth=3, branching=3, tree_count=3)
        assert a == b
    assert generate_random_game(seed=1) != generate_random_game(seed=2)


def test_caps_and_ranges():
    with pytest.raises(ValueError):
        generate_random_game(players=CAPS["players"] + 1)
    with pytest.raises(ValueError):
        generate_random_game(depth=CAPS["depth"] + 1)
    with pytest.raises(ValueError):
        generate_random_game(branching=1)
    with pytest.raises(ValueError):
        generate_random_game(tree_count=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), players=st.integers(1, 3),
       depth=st.integers(1, 3), branching=st.integers(2, 3),
       tree_count=st.integers(1, 3))
def test_outputs_pass_all_checks(seed, players, depth, branching, tree_count):
    g = generate_random_game(seed=seed, players=players, depth=depth,
                             branching=branching, tree_count=tree_count)
    report = validate_game(g)
    assert report.ok, [c.name for c in report.failed()]
    assert len(g.trees) <= tree_count


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_discovered_versions_behave(seed):
    g = generate_random_game(seed=seed, players=2, depth=3, branching=3,
                             tree_count=3)
    s = random_profile(g, seed=seed + 1)
    d = discovered_version(g, s)
    assert validate_game(d).ok
    rel = discovery_relations(g, d)
    assert rel.more_awareness and rel.preserves_information
    assert discovered_version(g, s) == d


def test_common_constant_awareness_hosts():
    for seed in range(20):
        g = generate_random_game(seed=seed, players=2, depth=2, branching=2,
                                 tree_count=3, common_constant=True)
        for t in g.trees:
            for (i, t2, n), h in g.info.items():
                if t2 == g.tbar:
                    assert h.host == g.tbar


def test_nature_flag():
    g = generate_random_game(seed=0, players=2, depth=2, branching=3,
                             tree_count=2, nature=True)
    assert has_nature(g)
    assert NATURE in g.nodes[g.root(g.tbar)].players
    s = random_profile(g, seed=3)
    assert set(s) == set(acting_players(g))


def test_trees_form_a_chain():
    for seed in range(20):
        g = generate_random_game(seed=seed, players=2, depth=3, branching=2,
                                 tree_count=4)
        order = g.tree_order()
        for a, b in zip(order, order[1:]):
            assert g.trees[a] < g.trees[b]
