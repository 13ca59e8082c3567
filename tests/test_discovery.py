import gc
import hashlib
import itertools
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from ugt.cli import POLICY
from ugt.core import NATURE, Game, InfoSet, StructuralError, validate_game
from ugt.discovery import (
    _discovered_along,
    _path_classes,
    _vector_pools,
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
    nature_coin,
)
from ugt.gamedoc import parse_game, serialize_game
from ugt.randgen import generate_random_game
from ugt.rationalizability import efr
from ugt.strategies import (
    pure_strategies,
    realized_tbar_path,
    restrict_strategy,
    vector_strategy,
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


def test_discovery_relations_detect_lost_information():
    g = nature_coin()
    pooled = InfoSet(1, "G", (1, 2))
    assert g.info[(1, "G", 1)] == g.info[(1, "G", 2)] == pooled
    # splitting the pooled set loses the nodes it held together
    split = Game(g.players, g.trees, g.nodes, {
        **g.info, (1, "G", 1): InfoSet(1, "G", (1,)),
        (1, "G", 2): InfoSet(1, "G", (2,))})
    # widening one copy keeps every member but parts the pooled nodes
    parted = Game(g.players, g.trees, g.nodes, {
        **g.info, (1, "G", 2): InfoSet(1, "G", (1, 2, 3))})
    for h in (split, parted):
        rel = discovery_relations(g, h)
        assert rel.more_awareness and not rel.preserves_information


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


# policy cases are named by the CLI's --policy options, which POLICY maps
# to the library's policy names
@pytest.mark.parametrize("name,option", [
    *[(n, p) for n in SMALL for p in ("all", "efr", "rational")],
    ("bos_repeated", "efr"), ("bos_repeated", "rational")])
def test_edges_depend_only_on_paths(name, option):
    policy = POLICY[option]
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


@pytest.mark.parametrize("option", ["all", "efr", "rational"])
@pytest.mark.parametrize("name", SMALL)
def test_listed_profiles_group_like_their_policy(name, option):
    """A callable policy's explicit list is grouped one profile at a time
    and must give the supergame of the named policy it lists."""
    policy = POLICY[option]
    sg = build_supergame(load(name), policy)
    listed = build_supergame(load(name),
                             lambda g: allowed_profiles(g, policy))
    assert listed.states == sg.states
    assert [list(e.items()) for e in listed.edges.values()] == \
        [list(e.items()) for e in sg.edges.values()]
    assert listed.representatives == sg.representatives
    for k, g in enumerate(sg.states):
        assert allowed_profiles(g, lambda gg: allowed_profiles(gg, policy)) \
            == allowed_profiles(g, policy)
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


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_policy_pools_are_the_efr_rounds(name):
    g = load(name)
    trace = efr(g)
    for policy, pools in (("efr", trace.surviving()),
                          ("rational_only", trace.rounds[1])):
        players, vectors = _vector_pools(g, policy)
        for j, pool in zip(players, vectors):
            want = pure_strategies(g, j) if j == NATURE else pools[j]
            assert list(map(vector_strategy(g, j), pool)) == want


def test_unknown_policy_is_rejected():
    g = ex2_initial()
    for call in (allowed_profiles, build_supergame, run_discovery):
        for policy in ("bogus", "rational"):
            with pytest.raises(ValueError):
                call(g, policy)


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


@pytest.mark.parametrize("scale", [Fraction(10**400), Fraction(1, 10**400)])
def test_run_discovery_samples_exactly(scale):
    """Scaling every weight keeps every draw: neither overflow nor underflow
    to a float decides the pick."""
    def weighted(w):
        return lambda state, allowed: [(s, w) for s in allowed]

    g = fig14()
    firsts = set()
    for seed in range(40):
        trace = run_discovery(g, "all", f=weighted(1), seed=seed)
        assert run_discovery(g, "all", f=weighted(scale), seed=seed) == trace
        firsts.add(trace.states[1])
    assert len(firsts) == 3


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


# ---------------------------------------------------------------------------
# discovered versions share their parent's structure


def reference_discovered_info(g, path):
    """The discovered version's info map, rebuilt in full from the
    definition: a copy of every entry, lifted members grouped by set."""
    tbar = g.tbar
    new_info = dict(g.info)
    for i in g.players:
        hosts = {g.info[(i, tbar, n)].host for n in path
                 if (i, tbar, n) in g.info}
        t_i = None
        for t in hosts:
            t_i = t if t_i is None else g.join(t_i, t)
        richer = {t for t in g.trees if g.leq(t_i, t)}
        poorer = {t for t in g.trees if g.leq(t, t_i)}
        lifted = {}
        for n2 in sorted(g.trees[t_i]):
            if (i, t_i, n2) in g.info:
                lifted.setdefault(g.info[(i, t_i, n2)], []).append(n2)
        for (j, t2, n) in g.info:
            anchor = g.info[(i, tbar, n)] if j == i else None
            if anchor is None or anchor.host not in poorer:
                continue
            members = lifted.get(anchor, [])
            if t2 in richer:
                new_info[(i, t2, n)] = InfoSet(i, t_i, tuple(members))
            elif t2 in poorer:
                new_info[(i, t2, n)] = InfoSet(
                    i, t2, tuple(x for x in members if x in g.trees[t2]))
    return new_info


def differential_games():
    games = [(name, load(name)) for name in sorted(FIXTURES)]
    for shape, extra in (("nature", dict(players=2, nature=True)),
                         ("3p", dict(players=3))):
        games += [("%s#%d" % (shape, seed),
                   generate_random_game(seed=seed, depth=3, branching=2,
                                        tree_count=3, **extra))
                  for seed in range(4)]
    return games


@pytest.mark.parametrize("name,g", differential_games(),
                         ids=[n for n, _ in differential_games()])
def test_shared_structure_versions_match_public_construction(name, g):
    policy = "efr" if name.startswith("bos_repeated") else "all"
    for state in build_supergame(g, policy).states:
        for path, _, _ in _path_classes(state, "all"):
            fast = _discovered_along(state, path)
            slow = Game(state.players, state.trees, state.nodes,
                        reference_discovered_info(state, path))
            assert fast.canonical_key() == slow.canonical_key()
            assert serialize_game(fast) == serialize_game(slow)
            assert validate_game(fast) == validate_game(slow)
            # the version shares the parent's structure, not its info part
            assert fast.players is state.players
            assert fast.trees is state.trees and fast.nodes is state.nodes
            assert fast._st is state._st
            if fast is not state:
                assert fast.info != state.info
                assert fast._ix is not state._ix


def test_shared_structure_version_checks_rewritten_entries():
    g = ex2_initial()
    key = next(k for k in g.info if k[0] == 1)
    bad = {"unknown host": InfoSet(1, "nowhere", (0,)),
           "member outside host": InfoSet(1, key[1], (999,)),
           "owner mismatch": InfoSet(2, key[1], (key[2],))}
    for h in bad.values():
        with pytest.raises(StructuralError):
            g._with_info({key: h})
    with pytest.raises(StructuralError):
        g._with_info({(1, key[1], 999): g.info[key]})
    same = g._with_info({key: g.info[key]})
    assert same == g and same._st is g._st


@pytest.mark.parametrize("policy", ["all", "efr"])
def test_supergame_states_die_with_the_supergame(policy):
    # states share the structure part of the index, which holds no
    # reference to any game, so with the cycle collector off reference
    # counting alone frees every state
    collecting = gc.isenabled()
    gc.disable()
    try:
        g0 = parse_game(serialize_game(ex2_initial()))
        sg = build_supergame(g0, policy)
        assert len(sg.states) > 1
        refs = [weakref.ref(g) for g in sg.states]
        del sg, g0
        assert all(ref() is None for ref in refs)
    finally:
        if collecting:
            gc.enable()


def test_supergame_index_checks_the_structure():
    sg = build_supergame(ex2_initial(), "all")
    for k, g in enumerate(sg.states):
        assert sg.index(parse_game(serialize_game(g))) == k
    g = ex2_initial()
    z = next(n for n, nd in g.nodes.items() if nd.is_terminal)
    nodes = dict(g.nodes)
    nodes[z] = replace(nodes[z], payoffs={
        i: p + 1 for i, p in nodes[z].payoffs.items()})
    repaid = Game(g.players, g.trees, nodes, g.info)
    assert repaid.info == g.info
    retreed = Game(g.players, {**g.trees, "extra": g.trees[g.tbar]},
                   g.nodes, g.info)
    for other in (repaid, retreed, None, "ex2_initial", ex1_initial()):
        with pytest.raises(ValueError):
            sg.index(other)


# ---------------------------------------------------------------------------
# supergame outputs pinned by digest


def _profile_text(s):
    return repr([(j, [(h.label(), a) for h, a in s[j].choices])
                 for j in sorted(s)])


def supergame_digest(g0, policy):
    """Digest of the supergame's states in breadth-first order, its edges
    and representatives in order, and run_discovery traces of seeds 0-2."""
    sg = build_supergame(g0, policy)
    lines = [serialize_game(g) for g in sg.states]
    lines += ["%d %r %d" % (k, path, j)
              for k, e in sg.edges.items() for path, j in e.items()]
    lines += ["%d %r %s" % (k, path, _profile_text(s))
              for k, r in sg.representatives.items() for path, s in r.items()]
    for seed in range(3):
        trace = run_discovery(g0, policy, seed=seed)
        lines += [serialize_game(g) for g in trace.states]
        lines += [_profile_text(s) for s in trace.profiles]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def pinned_game(name):
    shape, _, seed = name.partition("#")
    if not seed:
        return load(name)
    extra = dict(players=2, nature=True) if shape == "nature" \
        else dict(players=3)
    return generate_random_game(seed=int(seed), depth=3, branching=2,
                                tree_count=3, **extra)


# keyed by game and --policy option; taken with the supergame that
# deduplicated states by canonical_key()
PINNED = {
    "bos_aware|all": "b7f040fbfd5551cd",
    "bos_aware|efr": "d4f18e19cffa0c4f",
    "bos_aware|rational": "6599803e6f9f4abb",
    "bos_repeated|efr": "f29ab264ed0637e2",
    "bos_repeated|rational": "d7b0889b22dd5fc9",
    "bos_repeated_discovered|efr": "00bb190c957274e1",
    "bos_repeated_discovered|rational": "6c46d37c4fe77657",
    "ex1_discovered|all": "b883d560a3bf0cdd",
    "ex1_discovered|efr": "973be4db9a19f152",
    "ex1_discovered|rational": "b13f1e2ea3e33143",
    "ex1_initial|all": "44f367ad71e9e4a2",
    "ex1_initial|efr": "a96bc95a28a01934",
    "ex1_initial|rational": "a40ffb6206a0ca6c",
    "ex2_full|all": "50ca126c5ae1bd5c",
    "ex2_full|efr": "3cc275f72209ea8d",
    "ex2_full|rational": "1b29e915c16f0e0f",
    "ex2_initial|all": "0d41a3afcf8362c1",
    "ex2_initial|efr": "fc0f0984fe494d68",
    "ex2_initial|rational": "40d38acabaa7f8f0",
    "ex2_nonrat|all": "25862a9fe5361577",
    "ex2_nonrat|efr": "feafbdab355f7db0",
    "ex2_nonrat|rational": "8e0626473fde9d3f",
    "ex2_rsc|all": "3ea111ae0ddb8b81",
    "ex2_rsc|efr": "4b4df8283b17c8ae",
    "ex2_rsc|rational": "dc7b3d96679dd6fa",
    "fig14|all": "4a77dc2a2fb8e163",
    "fig14|efr": "10b3db15fdadd23c",
    "fig14|rational": "10b3db15fdadd23c",
    "matching_pennies|all": "7d66e722c342988a",
    "matching_pennies|efr": "7d66e722c342988a",
    "matching_pennies|rational": "7d66e722c342988a",
    "nature_coin|all": "4d0c9c36fa006735",
    "nature_coin|efr": "4d0c9c36fa006735",
    "nature_coin|rational": "4d0c9c36fa006735",
    "trivial_single|all": "81922253f0514aa5",
    "trivial_single|efr": "3a52d573bbf176f4",
    "trivial_single|rational": "3a52d573bbf176f4",
    "nature#0|all": "56ff005b1f5e79ed",
    "nature#0|efr": "bf336b47062e2e37",
    "nature#0|rational": "95abcc90c7ca278e",
    "nature#1|all": "f092b0d230fc9b31",
    "nature#1|efr": "898ae9c14bd5dca1",
    "nature#1|rational": "b8e38331118452a5",
    "nature#2|all": "ee1c6146e96c8449",
    "nature#2|efr": "f836a42033034283",
    "nature#2|rational": "f836a42033034283",
    "3p#0|all": "6b2ea62dece96003",
    "3p#0|efr": "cf10d29ecbf2376b",
    "3p#0|rational": "cf10d29ecbf2376b",
    "3p#1|all": "d74dbbe1a17ce1a8",
    "3p#1|efr": "098bf3ef7a1bb88b",
    "3p#1|rational": "098bf3ef7a1bb88b",
    "3p#2|all": "0e700ec73e4b39e5",
    "3p#2|efr": "05ed977d10b7c222",
    "3p#2|rational": "05ed977d10b7c222",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_supergame_outputs_are_pinned(case):
    name, option = case.split("|")
    assert supergame_digest(pinned_game(name), POLICY[option]) == PINNED[case]


def test_successors_are_built_without_public_construction(monkeypatch):
    g0 = ex2_initial()
    calls = []
    init = Game.__init__

    def counted_init(self, *args):
        calls.append("__init__")
        init(self, *args)

    monkeypatch.setattr(Game, "__init__", counted_init)
    monkeypatch.setattr(Game, "canonical_key",
                        lambda self: calls.append("canonical_key"))
    sg = build_supergame(g0, "all")
    trace = run_discovery(g0, "all", seed=0)
    assert len(sg.states) == 4 and len(trace.states) > 1
    assert calls == []
