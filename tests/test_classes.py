"""Realization-class tables against a per-vector reference, and two
relabelings of a game that must leave every result unchanged.

The engine builds each player's class table by a branch over its decision-set
positions (``_Classes``).  The reference here classifies every action vector
one by one instead: its key is the decision sets it reaches, by the public
``reaches``, and its actions there.

The relabelings change only names: reversing every node's declared action
order reorders each menu, and permuting node ids reorders the decision sets
and so every vector position.  Neither changes the game.
"""

import importlib.util
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ugt.core import NATURE, Game, InfoSet, NodeData, validate_game
from ugt.discovery import build_supergame
from ugt.equilibrium import (
    check_sce_behavior, check_sce_pure, construct_sce_efr, lift_pure)
from ugt.fixtures import FIXTURES, load
from ugt.gamedoc import parse_game
from ugt.randgen import generate_random_game, random_profile
from ugt.rationalizability import _classes, efr
from ugt.strategies import (
    BehaviorStrategy, PureStrategy, _requirements, acting_players, reaches,
    strategy_vectors, vector_strategy)

SMALL_FIXTURES = sorted(n for n in FIXTURES
                        if not n.startswith("bos_repeated"))
SHAPES = {"plain": {}, "nature": dict(nature=True), "3p": dict(players=3)}


def generated(shape, draws):
    return [generate_random_game(seed=seed, depth=3, branching=2,
                                 tree_count=3, **SHAPES[shape])
            for seed in range(draws)]


def reference_table(g, j):
    """Player j's classes by classifying each action vector: per vector (in
    ``strategy_vectors`` order) its class, and per class, numbered by first
    appearance, its first member, reached positions and size.  Nature reaches
    every position."""
    sets = g.decision_sets(j)
    make = vector_strategy(g, j)
    ids: dict[tuple, int] = {}
    of, first, reached, size = [], [], [], []
    for v in strategy_vectors(g, j):
        s = {j: make(v)}
        at = tuple(k for k, x in enumerate(sets)
                   if j == NATURE or reaches(g, s, x))
        c = ids.setdefault((at, tuple(v[k] for k in at)), len(ids))
        if c == len(first):
            first.append(v)
            reached.append(at)
            size.append(0)
        size[c] += 1
        of.append(c)
    return of, first, reached, size


def assert_tables_match_reference(g) -> int:
    """The class table of every acting player equals the reference, and
    it lists the members of one class, of every class and of seeded random
    class sets as the reference's vectors of those classes.  Returns the
    number of tables checked."""
    players = acting_players(g)
    for j in players:
        table = _classes(g, j)
        of, first, reached, size = reference_table(g, j)
        assert table.first == first, j
        assert list(table.reached) == reached, j
        assert table.size == size, j
        vectors = strategy_vectors(g, j)
        for c in range(len(first)):
            assert table.members(frozenset({c})) == [
                v for v, k in zip(vectors, of) if k == c], (j, c)
        assert table.members(frozenset(range(len(first)))) == vectors, j
        rng = random.Random(len(vectors) * len(first) + j)
        for _ in range(4):
            alive = frozenset(rng.sample(range(len(first)),
                                         rng.randint(0, len(first))))
            assert table.members(alive) == [
                v for v, k in zip(vectors, of) if k in alive], (j, alive)
    return len(players)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_tables_match_reference(name):
    assert assert_tables_match_reference(load(name))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_generated_tables_match_reference(shape):
    checked = 0
    for g in generated(shape, 20):
        checked += assert_tables_match_reference(g)
        checked += assert_tables_match_reference(
            permute_node_ids(g, random.Random(len(g.nodes)))[0])
    assert checked >= 80


def grid_games():
    """The admitted games of the benchmark's ``random_grid`` corpus."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_grid_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return [parse_game(gg.text) for gg in module.RandomGrid({}).setup(1)]
    finally:
        del sys.modules[spec.name]


def test_grid_tables_match_reference_in_every_supergame_state():
    games = grid_games()
    assert len(games) == 46
    checked = 0
    for g0 in games:
        for g in build_supergame(g0, "all").states:
            checked += assert_tables_match_reference(g)
    assert checked > 2 * sum(len(acting_players(g)) for g in games)


# ---------------------------------------------------------------------------
# relabelings


def reverse_actions(g):
    """g with every node's declared actions in reverse order, and the map of
    its information sets (unchanged)."""
    nodes = {n: NodeData(nd.parent, nd.players,
                         {i: a[::-1] for i, a in nd.actions.items()},
                         nd.children, nd.payoffs)
             for n, nd in g.nodes.items()}
    return Game(g.players, g.trees, nodes, g.info), lambda h: h


def permute_node_ids(g, rng):
    """g with its node ids shuffled, and the map of its information sets
    (nature's synthetic ones included) onto the relabeled game's."""
    ids = sorted(g.nodes)
    new = dict(zip(ids, rng.sample(ids, len(ids))))

    def move(h):
        return InfoSet(h.player, h.host,
                       tuple(sorted(map(new.get, h.members))))

    nodes = {new[n]: NodeData(None if nd.parent is None else new[nd.parent],
                              nd.players, nd.actions,
                              {p: new[c] for p, c in nd.children.items()},
                              nd.payoffs)
             for n, nd in g.nodes.items()}
    trees = {t: [new[n] for n in ns] for t, ns in g.trees.items()}
    info = {(i, t, new[n]): move(h) for (i, t, n), h in g.info.items()}
    return Game(g.players, trees, nodes, info), move


def relabeled_profile(s, move):
    return {j: PureStrategy.make(j, {move(h): a for h, a in sj.choices})
            for j, sj in s.items()}


def invariants(g, s, move):
    """What a relabeling must keep, read through the set map move: class
    counts and sizes, EFR survivors as choice maps, SCE verdicts on s, the
    supergames' shapes and the construction's outcome."""
    out = {}
    for i in acting_players(g):
        table = _classes(g, i)
        out["classes", i] = (len(table.first), sorted(table.size))
    out["efr"] = {i: {frozenset((move(h), a) for h, a in x.choices)
                      for x in xs} for i, xs in efr(g).surviving().items()}
    for name, check, pi in (("pure", check_sce_pure, s),
                            ("behavior", check_sce_behavior,
                             lift_pure(g, s))):
        v = check(g, pi)
        out[name] = (v.holds, v.violated_condition, v.player)
    for policy in ("all", "efr"):
        sg = build_supergame(g, policy)
        out[policy] = (len(sg.states),
                       sum(len(e) for e in sg.edges.values()),
                       sum(map(sg.is_absorbing, range(len(sg.states)))))
    try:
        out["construct"] = construct_sce_efr(g)[1].holds
    except NotImplementedError:
        out["construct"] = "more than two players"
    except ValueError:
        out["construct"] = "not rationalizable self-confirming"
    return out


def relabel_cases():
    games = [(name, load(name)) for name in SMALL_FIXTURES]
    for shape in sorted(SHAPES):
        games += [("%s-%d" % (shape, k), g)
                  for k, g in enumerate(generated(shape, 25))]
    return games


@pytest.mark.parametrize("relabel", ["reverse_actions", "permute_node_ids"])
def test_relabeling_changes_no_result(relabel):
    moved = 0
    for k, (name, g) in enumerate(relabel_cases()):
        rng = random.Random(k)
        if relabel == "reverse_actions":
            g2, move = reverse_actions(g)
        else:
            g2, move = permute_node_ids(g, rng)
        assert validate_game(g2).ok, name
        s = random_profile(g, seed=k)
        want = invariants(g, s, move)
        assert invariants(g2, relabeled_profile(s, move), lambda h: h) \
            == want, name
        # the relabeling really moved something the engine reads
        moved += any(g2.decision_sets(i) != list(map(move, g.decision_sets(i)))
                     or [g2.set_actions(h) for h in g2.decision_sets(i)]
                     != [g.set_actions(h) for h in g.decision_sets(i)]
                     for i in g.players)
    assert moved >= 20


def reach_reads_later_position(g, i) -> bool:
    """Whether the reach of one of player i's decision sets reads i's
    action at a later vector position."""
    return any(p > k for k, h in enumerate(g.decision_sets(i))
               for m in h.members
               for j, _, p, _ in _requirements(g, h.host)[m] if j == i)


def test_permuted_ids_reach_out_of_position_order():
    """Some permuted game has a decision set whose reach reads a later
    vector position, so its table comes from the sorted branch."""
    later = Counter(reach_reads_later_position(
        permute_node_ids(g, random.Random(k))[0], i)
        for k, (_, g) in enumerate(relabel_cases()) for i in g.players)
    assert later[True] >= 3 and later[False]


# ---------------------------------------------------------------------------
# positive affine payoff changes


def affine_payoffs(g, i, scale, shift):
    """g with player i's payoffs x replaced by scale * x + shift."""
    nodes = {n: NodeData(nd.parent, nd.players, nd.actions, nd.children,
                         {j: scale * x + shift if j == i else x
                          for j, x in nd.payoffs.items()})
             for n, nd in g.nodes.items()}
    return Game(g.players, g.trees, nodes, g.info)


def uniform_profile(g):
    """Every acting player mixes uniformly at each of its decision sets."""
    return {j: BehaviorStrategy.make(j, {
        h: {a: Fraction(1, len(g.set_actions(h))) for a in g.set_actions(h)}
        for h in g.decision_sets(j)}) for j in acting_players(g)}


def payoff_invariants(g, s):
    """The SCE verdicts on s, its behavior lift and the uniform profile, and
    the construction's profile and verdict (or its refusal)."""
    out = {}
    for name, check, pi in (("pure", check_sce_pure, s),
                            ("lift", check_sce_behavior, lift_pure(g, s)),
                            ("uniform", check_sce_behavior,
                             uniform_profile(g))):
        v = check(g, pi)
        out[name] = (v.holds, v.violated_condition, v.player)
    try:
        pi, v = construct_sce_efr(g)
        out["construct"] = (pi, v.holds, v.violated_condition, v.player)
    except (NotImplementedError, ValueError) as e:
        out["construct"] = type(e).__name__
    return out


def test_positive_affine_payoff_change_keeps_sce_results():
    """Rescaling one player's payoffs by a positive fraction and shifting
    them changes no SCE verdict and not the constructed equilibrium."""
    cases = [(name, load(name)) for name in sorted(FIXTURES)]
    for shape in sorted(SHAPES):
        cases += [("%s-%d" % (shape, k), g)
                  for k, g in enumerate(generated(shape, 8))]
    built = holds = 0
    for k, (name, g) in enumerate(cases):
        s = random_profile(g, seed=k)
        want = payoff_invariants(g, s)
        built += isinstance(want["construct"], tuple)
        holds += sum(want[c][0] for c in ("pure", "lift", "uniform"))
        for i in g.players:
            scaled = affine_payoffs(g, i, Fraction(2, 5 + i),
                                    Fraction(-7, 3 + i))
            assert payoff_invariants(scaled, s) == want, (name, i)
    # both outcomes of each check and of the construction occur
    assert built >= 5 and len(cases) - built >= 5
    assert 0 < holds < 3 * len(cases)
