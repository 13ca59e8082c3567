import itertools
import random

import pytest

from ugt.core import NATURE, InfoSet, validate_game
from ugt.discovery import (
    _path_classes,
    allowed_profiles,
    awareness_tree,
    build_supergame,
    discovered_version,
    discovery_relations,
    run_discovery,
    self_confirming_games,
    supergame_dot,
)
from ugt.fixtures import (
    bos_repeated,
    bos_repeated_discovered,
    ex1_discovered,
    ex1_initial,
    ex2_full,
    ex2_initial,
    ex2_nonrat,
    ex2_rsc,
    fig14,
    FIXTURES,
    load,
)
from ugt.randgen import generate_random_game
from ugt.strategies import (
    pure_strategies,
    realized_tbar_path,
    restrict_strategy,
)


def h(i, host, members):
    return InfoSet(i, host, members)


def pick(g, i, choices):
    for s in pure_strategies(g, i):
        if all(s.action_at(hh) == a for hh, a in choices.items()):
            return s
    raise AssertionError("no such strategy")


def ex1_profiles():
    g = ex1_initial()
    s1_in = pick(g, 1, {h(1, "T", (0,)): "l1"})
    s1_out = pick(g, 1, {h(1, "T", (0,)): "r1"})
    s2 = pick(g, 2, {h(2, "Tbar", (1,)): "m2", h(2, "T", (1,)): "r2"})
    return g, s1_in, s1_out, s2


# ---------------------------------------------------------------------------
# awareness trees


def test_awareness_tree_examples():
    g, s1_in, s1_out, s2 = ex1_profiles()
    assert awareness_tree(g, {1: s1_in, 2: s2}, 1) == "Tbar"
    assert awareness_tree(g, {1: s1_out, 2: s2}, 1) == "T"
    # a player whose sets all live in one tree stays there
    d = ex1_discovered()
    for s in allowed_profiles(d, "all"):
        assert awareness_tree(d, s, 1) == "Tbar"
        assert awareness_tree(d, s, 2) == "Tbar"


# ---------------------------------------------------------------------------
# discovered versions on the worked fixtures


def test_ex1_discovery_and_absorption():
    g, s1_in, s1_out, s2 = ex1_profiles()
    assert discovered_version(g, {1: s1_in, 2: s2}) == ex1_discovered()
    assert discovered_version(g, {1: s1_out, 2: s2}) == g
    d = ex1_discovered()
    for s in allowed_profiles(d, "all"):
        assert discovered_version(d, s) == d


def test_ex2_transitions():
    g = ex2_initial()
    m2_path = {1: pick(g, 1, {h(1, "Tpp", (0,)): "l1"}),
               2: pick(g, 2, {h(2, "Tp", (1,)): "m2"})}
    z1_path = {1: pick(g, 1, {h(1, "Tpp", (0,)): "l1",
                              h(1, "Tpp", (3,)): "z1"}),
               2: pick(g, 2, {h(2, "Tp", (1,)): "l2"})}
    assert discovered_version(g, m2_path) == ex2_rsc()
    assert discovered_version(g, z1_path) == ex2_nonrat()

    rsc = ex2_rsc()
    to_full = {1: pick(rsc, 1, {h(1, "Tbar", (0,)): "l1",
                                h(1, "Tbar", (3,)): "z1"}),
               2: pick(rsc, 2, {h(2, "Tp", (1,)): "l2"})}
    assert discovered_version(rsc, to_full) == ex2_full()

    nonrat = ex2_nonrat()
    via_m2 = {1: pick(nonrat, 1, {h(1, "Tpp", (0,)): "l1"}),
              2: pick(nonrat, 2, {h(2, "Tbar", (1,)): "m2"})}
    assert discovered_version(nonrat, via_m2) == ex2_full()

    full = ex2_full()
    for s in allowed_profiles(full, "all"):
        assert discovered_version(full, s) == full


def test_bos_repeated_transition():
    g = bos_repeated()
    exit_path = {1: pick(g, 1, {h(1, "Tbar", (0,)): "out",
                                h(1, "Tbar", (1,)): "i2a"}),
                 2: pick(g, 2, {})}
    stay_path = {1: pick(g, 1, {h(1, "Tbar", (0,)): "in",
                                h(1, "Tbar", (3, 4)): "i2b",
                                h(1, "Tbar", (5, 6)): "i2s"}),
                 2: pick(g, 2, {})}
    assert discovered_version(g, exit_path) == bos_repeated_discovered()
    assert discovered_version(g, stay_path) == g
    # opting out but never reaching the second stage still reveals the
    # outside branch's terminal set, which is hosted in the richest tree
    bail = {1: pick(g, 1, {h(1, "Tbar", (0,)): "out",
                           h(1, "Tbar", (1,)): "o2a"}),
            2: pick(g, 2, {})}
    assert discovered_version(g, bail) == bos_repeated_discovered()


def test_fig14_absorbing_on_equilibrium_path():
    g = fig14()
    s = {1: pick(g, 1, {h(1, "T1", (0,)): "M"}),
         2: pick(g, 2, {h(2, "T3", (2,)): "b"})}
    assert discovered_version(g, s) == g


@pytest.mark.parametrize("name", [
    "ex1_initial", "ex2_initial", "ex2_rsc", "ex2_nonrat", "bos_repeated",
    "bos_aware", "fig14", "nature_coin"])
def test_discovered_versions_stay_valid(name):
    g = load(name)
    for s in allowed_profiles(g, "all")[:200]:
        d = discovered_version(g, s)
        assert validate_game(d).ok
        rel = discovery_relations(g, d)
        assert rel.more_awareness and rel.preserves_information


def test_equal_paths_give_equal_versions():
    g = ex2_initial()
    by_path = {}
    for s in allowed_profiles(g, "all"):
        path = tuple(realized_tbar_path(g, s))
        d = discovered_version(g, s)
        assert by_path.setdefault(path, d) == d


def test_discovery_is_idempotent_along_a_path():
    g, s1_in, _, s2 = ex1_profiles()
    d = discovered_version(g, {1: s1_in, 2: s2})
    for s in allowed_profiles(d, "all"):
        if tuple(realized_tbar_path(d, s)) == (0, 1, 4):
            assert discovered_version(d, s) == d


# ---------------------------------------------------------------------------
# relations


def test_discovery_relations_directions():
    a, b = ex1_initial(), ex1_discovered()
    rel = discovery_relations(a, b)
    assert rel.more_awareness and rel.preserves_information
    assert not discovery_relations(b, a).more_awareness
    rel = discovery_relations(a, a)
    assert rel.more_awareness and rel.preserves_information
    with pytest.raises(ValueError):
        discovery_relations(a, ex2_initial())


# ---------------------------------------------------------------------------
# supergames


def test_ex2_supergame_all_policy():
    sg = build_supergame(ex2_initial(), "all")
    assert len(sg.states) == 4
    idx = {name: sg.index(load(name))
           for name in ("ex2_initial", "ex2_rsc", "ex2_nonrat", "ex2_full")}
    assert sg.successors(idx["ex2_initial"]) == {
        idx["ex2_initial"], idx["ex2_rsc"], idx["ex2_nonrat"]}
    assert sg.successors(idx["ex2_rsc"]) == {idx["ex2_rsc"], idx["ex2_full"]}
    assert sg.successors(idx["ex2_nonrat"]) == {
        idx["ex2_nonrat"], idx["ex2_full"]}
    assert sg.is_absorbing(idx["ex2_full"])
    assert self_confirming_games(sg) == {ex2_full()}


def test_ex2_supergame_efr_policy():
    sg = build_supergame(ex2_initial(), "efr")
    assert set(sg.states) == {ex2_initial(), ex2_rsc()}
    assert self_confirming_games(sg) == {ex2_rsc()}


def test_single_state_supergames():
    sg = build_supergame(ex1_discovered(), "all")
    assert len(sg.states) == 1 and sg.is_absorbing(0)
    sg = build_supergame(load("matching_pennies"), "all")
    assert len(sg.states) == 1  # single-tree games cannot discover anything


def test_bos_repeated_supergame_efr():
    sg = build_supergame(bos_repeated(), "efr")
    assert set(sg.states) == {bos_repeated(), bos_repeated_discovered()}
    assert self_confirming_games(sg) == {bos_repeated_discovered()}


def reference_classes(g, policy):
    """Brute force: (path, first profile, profile count) per realized path
    of the allowed profiles, in order of first appearance."""
    by_path = {}
    for s in allowed_profiles(g, policy):
        path = tuple(realized_tbar_path(g, s))
        by_path.setdefault(path, [s, 0])[1] += 1
    return [(path, s, n) for path, (s, n) in by_path.items()]


SMALL = [n for n in FIXTURES if not n.startswith("bos_repeated")]


@pytest.mark.parametrize("name,policy", [
    *[(n, p) for n in SMALL for p in ("all", "efr", "rational")],
    ("bos_repeated", "efr"), ("bos_repeated", "rational")])
def test_edges_depend_only_on_paths(name, policy):
    sg = build_supergame(load(name), policy)
    for k, by_path in sg.edges.items():
        g = sg.states[k]
        ref = reference_classes(g, policy)
        assert _path_classes(g, policy) == ref
        assert list(by_path) == [path for path, _, _ in ref]
        assert list(sg.representatives[k].values()) == [s for _, s, _ in ref]
        for path, j in by_path.items():
            s = sg.representatives[k][path]
            assert tuple(realized_tbar_path(g, s)) == path
            assert discovered_version(g, s) == sg.states[j]


@pytest.mark.parametrize("policy", ["all", "efr", "rational"])
@pytest.mark.parametrize("name", SMALL)
def test_listed_profiles_group_like_their_policy(name, policy):
    """A callable policy's explicit list is grouped one profile at a time
    and must give the supergame of the named policy it lists."""
    sg = build_supergame(load(name), policy)
    listed = build_supergame(load(name),
                             lambda g: allowed_profiles(g, policy))
    assert listed.states == sg.states
    assert [list(e.items()) for e in listed.edges.values()] == \
        [list(e.items()) for e in sg.edges.values()]
    assert listed.representatives == sg.representatives
    for k, g in enumerate(sg.states):
        weighted = [(s, 2) for s in allowed_profiles(g, policy)]
        assert _path_classes(g, weighted) == [
            (path, s, 2 * n) for path, s, n in _path_classes(g, policy)]


def reference_discovery(g0, policy, seed):
    """run_discovery's sampling over the brute-force classes."""
    rng = random.Random(seed)
    states, profiles = [g0], []
    while True:
        g = states[-1]
        moving = []
        for _, s, n in reference_classes(g, policy):
            d = discovered_version(g, s)
            if d != g:
                moving.append((s, n, d))
        if not moving:
            return states, profiles
        pick_at = rng.uniform(0, float(sum(n for _, n, _ in moving)))
        acc, chosen = 0.0, moving[-1]
        for m in moving:
            acc += float(m[1])
            if pick_at <= acc:
                chosen = m
                break
        states.append(chosen[2])
        profiles.append(chosen[0])


@pytest.mark.parametrize("shape", [
    dict(players=2, nature=True), dict(players=3)])
def test_path_classes_on_generated_games(shape):
    for seed in range(8):
        g = generate_random_game(seed=seed, depth=3, branching=2,
                                 tree_count=3, **shape)
        for policy in ("all", "efr"):
            assert _path_classes(g, policy) == reference_classes(g, policy)
        for k in range(3):
            trace = run_discovery(g, "efr", seed=k)
            assert (trace.states, trace.profiles) == \
                reference_discovery(g, "efr", k)


def test_unknown_policy_is_rejected():
    g = ex2_initial()
    for call in (allowed_profiles, build_supergame, run_discovery):
        with pytest.raises(ValueError):
            call(g, "bogus")


@pytest.mark.parametrize("case", ["missing player", "wrong owner",
                                  "missing nature", "partial strategy"])
def test_incomplete_profiles_raise_value_error(case):
    g, s1, _, s2 = ex1_profiles()
    if case == "missing player":
        s = {1: s1}
    elif case == "wrong owner":
        s = {1: s1, 2: s1}
    elif case == "partial strategy":
        s = {1: s1, 2: restrict_strategy(g, s2, "T")}
    else:
        g = load("nature_coin")
        s = {j: x for j, x in allowed_profiles(g, "all")[0].items()
             if j != NATURE}
    with pytest.raises(ValueError):
        realized_tbar_path(g, s)
    with pytest.raises(ValueError):
        discovered_version(g, s)


# ---------------------------------------------------------------------------
# discovery processes


def test_run_discovery_ex1():
    trace = run_discovery(ex1_initial(), "efr", seed=7)
    assert trace.states == [ex1_initial(), ex1_discovered()]
    assert trace.absorbing == ex1_discovered()
    assert len(trace.profiles) == 1


def test_run_discovery_absorbing_start():
    trace = run_discovery(ex1_discovered(), "all", seed=1)
    assert trace.states == [ex1_discovered()]
    assert trace.profiles == []


def test_run_discovery_explicit_policy():
    initial = ex2_initial()

    def policy(g):
        if g == initial:
            return [{1: pick(g, 1, {h(1, "Tpp", (0,)): "l1",
                                    h(1, "Tpp", (3,)): "z1"}),
                     2: pick(g, 2, {h(2, "Tp", (1,)): "l2"})}]
        return allowed_profiles(g, "efr")

    trace = run_discovery(initial, policy, seed=3)
    assert trace.states == [initial, ex2_nonrat()]


def test_run_discovery_monotone_chain_and_bound():
    for name in ("ex1_initial", "ex2_initial", "bos_repeated"):
        g = load(name)
        trace = run_discovery(g, "all", seed=11)
        assert len(trace.states) <= 1 + len(g.players) * len(g.trees)
        for a, b in zip(trace.states, trace.states[1:]):
            rel = discovery_relations(a, b)
            assert rel.more_awareness and rel.preserves_information


def test_run_discovery_rejects_bad_sampler():
    g = ex2_initial()
    alien = {1: pick(g, 1, {h(1, "Tpp", (0,)): "r1"}),
             2: pick(g, 2, {})}

    def f(state, allowed):
        return [(alien, 1)]

    with pytest.raises(ValueError):
        run_discovery(g, "efr", f=f, seed=0)


# ---------------------------------------------------------------------------
# DOT export


def test_supergame_dot_deterministic():
    sg = build_supergame(ex2_initial(), "all")
    labels = {load(n): n
              for n in ("ex2_initial", "ex2_rsc", "ex2_nonrat", "ex2_full")}
    out = supergame_dot(sg, labels)
    assert out == supergame_dot(sg, labels)
    assert out.startswith("digraph discovery {")
    assert '"ex2_full" [shape=doublecircle];' in out
    assert '"ex2_initial" -> "ex2_rsc"' in out
