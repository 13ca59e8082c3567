"""``validate_game`` against the per-key reference validator it replaced.

The two must agree on every game: the same report, check for check and
witness for witness, or the same ``StructuralError`` message.  The corpus
is the bundled fixtures, generated games of several shapes, seeded mutants
that rewrite a few information sets (most of which fail some axiom), and
seeded structural mutants, on which ``validate_game`` may raise nothing but
``StructuralError``.
"""

import dataclasses
import inspect
import random

import pytest

import ugt
from reference_validate import reference_validate_game
from ugt.core import Game, InfoSet, StructuralError, validate_game
from ugt.discovery import DiscoverySupergame
from ugt.fixtures import FIXTURES, load
from ugt.randgen import GenParams, generate_random_game

SHAPES = [
    GenParams(),
    GenParams(depth=3, branching=3),
    GenParams(nature=True, depth=3),
    GenParams(players=3, depth=3),
    GenParams(tree_count=5, depth=4),
    GenParams(players=3, tree_count=5, depth=3, nature=True),
]


def corpus() -> list[Game]:
    games = [load(name) for name in sorted(FIXTURES)]
    games += [generate_random_game(p, seed=s) for p in SHAPES for s in range(3)]
    return games


def outcome(validate, g: Game):
    """The report, or the message of the StructuralError raised."""
    try:
        return validate(g)
    except StructuralError as e:
        return "StructuralError: %s" % e


def info_mutants(g: Game, rng: random.Random, count: int):
    """Games with one to three info entries rewritten, each to another set
    of the same player, to a singleton in a random tree, or to the key's
    own node in a random tree that has it."""
    keys = sorted(g.info)
    trees = sorted(g.trees)
    for _ in range(count):
        info = dict(g.info)
        for key in rng.sample(keys, rng.randint(1, min(3, len(keys)))):
            i, _, n = key
            pick = rng.random()
            if pick < 0.4:
                info[key] = rng.choice(g.info_sets(i))
            elif pick < 0.8:
                u = rng.choice(trees)
                info[key] = InfoSet(i, u, (rng.choice(sorted(g.trees[u])),))
            else:
                u = rng.choice([u for u in trees if n in g.trees[u]])
                info[key] = InfoSet(i, u, (n,))
        try:
            yield Game(g.players, g.trees, g.nodes, info)
        except StructuralError:
            continue


def structural_mutants(g: Game, rng: random.Random, count: int):
    """Games with one fault in their trees: a node's parent rewired, a child
    dropped from a successor map, a terminal's payoff removed, a subtree
    taken out of a tree (with the info entries that name its nodes there),
    or an action label renamed to one its player has elsewhere."""
    ids = sorted(g.nodes)
    for _ in range(count):
        nodes, trees, info = dict(g.nodes), dict(g.trees), dict(g.info)
        n = rng.choice(ids)
        nd = nodes[n]
        kind = rng.randrange(5)
        if kind == 0:
            nodes[n] = dataclasses.replace(nd, parent=rng.choice([None] + ids))
        elif kind == 1 and nd.children:
            drop = rng.choice(sorted(nd.children))
            nodes[n] = dataclasses.replace(nd, children={
                p: c for p, c in nd.children.items() if p != drop})
        elif kind == 2 and nd.payoffs:
            drop = rng.choice(sorted(nd.payoffs))
            nodes[n] = dataclasses.replace(nd, payoffs={
                i: v for i, v in nd.payoffs.items() if i != drop})
        elif kind == 3 and nd.players:
            k = rng.randrange(len(nd.players))
            i = nd.players[k]
            old = rng.choice(nd.actions[i])
            new = rng.choice(sorted({a for x in nodes.values()
                                     for a in x.actions.get(i, ())}))
            nodes[n] = dataclasses.replace(
                nd, actions={**nd.actions, i: tuple(
                    new if a == old else a for a in nd.actions[i])},
                children={p[:k] + (new if p[k] == old else p[k],) + p[k + 1:]: c
                          for p, c in nd.children.items()})
        else:
            t = rng.choice(sorted(tr for tr, ns in trees.items() if n in ns))
            gone = {n, *g.descendants_in(t, n)}
            trees[t] = trees[t] - gone
            info = {(i, u, m): h for (i, u, m), h in info.items()
                    if not (u == t and m in gone)
                    and not (h.host == t and gone & set(h.members))}
        try:
            yield Game(g.players, trees, nodes, info)
        except StructuralError:
            continue


def test_agrees_with_reference_on_the_corpus():
    for g in corpus():
        assert validate_game(g) == reference_validate_game(g)


def test_agrees_with_reference_on_info_mutants():
    rng = random.Random(20130)
    failing = 0
    for g in corpus():
        for m in info_mutants(g, rng, 14):
            got = validate_game(m)
            assert got == reference_validate_game(m), \
                [(c.name, c.witnesses) for c in got.failed()]
            failing += not got.ok
    # most mutants break some axiom; the failing reports are what counts
    assert failing >= 300


def test_structural_mutants_get_a_report_or_the_reference_error():
    rng = random.Random(2013)
    raised = 0
    for g in corpus():
        for m in structural_mutants(g, rng, 16):
            got = outcome(validate_game, m)
            assert got == outcome(reference_validate_game, m)
            raised += isinstance(got, str)
    assert raised >= 300


def exports_taking(kind) -> list[str]:
    """Every function ugt exports whose first parameter takes a kind, so
    that a new export of that sort comes with its entry check."""
    return sorted(
        name for name, f in vars(ugt).items()
        if inspect.isfunction(f) and next(iter(inspect.signature(
            f, eval_str=True).parameters.values())).annotation is kind)


GAME_FIRST = exports_taking(Game)
SUPERGAME_FIRST = exports_taking(DiscoverySupergame)


def test_the_exports_taking_a_game_are_found():
    assert {"validate_game", "efr", "efr_oracle", "construct_sce_efr",
            "build_supergame", "discovery_relations"} <= set(GAME_FIRST)
    assert SUPERGAME_FIRST == ["self_confirming_games", "supergame_dot"]


@pytest.mark.parametrize("junk", ["junk", None, 7])
@pytest.mark.parametrize("name", GAME_FIRST)
def test_a_non_game_is_a_type_error(name, junk):
    """A non-game first argument raises the entry check's TypeError before
    any other argument is read (the others are None)."""
    f = getattr(ugt, name)
    required = sum(p.default is p.empty
                   for p in inspect.signature(f).parameters.values())
    with pytest.raises(TypeError, match="expected a Game"):
        f(junk, *[None] * (required - 1))


@pytest.mark.parametrize("junk", ["junk", None, 7])
@pytest.mark.parametrize("name", SUPERGAME_FIRST)
def test_a_non_supergame_is_a_type_error(name, junk):
    """A non-supergame first argument raises the entry check's TypeError
    (the other arguments are None)."""
    f = getattr(ugt, name)
    required = sum(p.default is p.empty
                   for p in inspect.signature(f).parameters.values())
    with pytest.raises(TypeError, match="expected a DiscoverySupergame"):
        f(junk, *[None] * (required - 1))
