"""``validate_game`` against the per-key reference validator it replaced.

The two must agree on every game: the same report, check for check and
witness for witness, or the same ``StructuralError`` message.  The corpus
is the bundled fixtures, generated games of several shapes, seeded mutants
that rewrite a few information sets (most of which fail some axiom), and
seeded structural mutants, on which ``validate_game`` may raise nothing but
``StructuralError``.  The tables the validator reads are checked too: the
restricted actions against their definition, and the one ``InfoSet``
object per distinct set that the constructors give, which may make the
validator faster but never changes its report.  Last come the entry
checks of the public functions.
"""

import dataclasses
import inspect
import itertools
import random
import re
from fractions import Fraction

import pytest

import ugt
from reference_validate import reference_validate_game
from test_randgen import grid_draws
from ugt.core import (
    NATURE, Game, InfoSet, NodeData, StructuralError, validate_game)
from ugt.discovery import DiscoverySupergame
from ugt.fixtures import FIXTURES, load
from ugt.gamedoc import parse_game, serialize_game
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
    # one draw of every benchmark grid cell as well: the shapes whose set-up
    # the validator's speed matters for
    for g in corpus() + grid_draws(1):
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


def with_fresh_sets(g: Game) -> Game:
    """g with a new ``InfoSet`` at every key, so that no two keys share an
    object."""
    return Game(g.players, g.trees, g.nodes,
                {k: InfoSet(h.player, h.host, h.members)
                 for k, h in g.info.items()})


def distinct_objects(g: Game) -> bool:
    """Whether g has exactly one object per distinct set."""
    return len({id(h) for h in g.info.values()}) == len(set(g.info.values()))


def test_shared_set_objects_do_not_change_the_report():
    rng = random.Random(20130)
    for g in corpus():
        assert validate_game(with_fresh_sets(g)) == validate_game(g)
        for m in info_mutants(g, rng, 14):
            assert validate_game(with_fresh_sets(m)) == validate_game(m)


def test_constructors_give_one_object_per_distinct_set():
    generated = corpus()[len(FIXTURES):] + grid_draws(1)
    parsed = [load(name) for name in sorted(FIXTURES)]
    parsed += [parse_game(serialize_game(g)) for g in generated]
    assert all(map(distinct_objects, generated + parsed))
    # keys do share sets: one object per key would fail the check above
    assert any(len(g.info) > len(set(g.info.values())) for g in generated)


def declared_restriction(g: Game, t, n, i) -> tuple:
    """``actions_in`` by its definition: i's declared labels, in declared
    order, that appear at i's index in the profiles of n's children inside
    t; () at a non-mover, KeyError at a mover's node outside t."""
    nd = g.nodes[n]
    if i not in nd.players:
        return ()
    if n not in g.trees[t]:
        raise KeyError(n)
    k = sorted(nd.players).index(i)
    seen = {p[k] for p, c in nd.children.items() if c in g.trees[t]}
    return tuple(a for a in nd.actions[i] if a in seen)


def test_a_mover_listed_twice_is_a_structural_problem():
    """A node whose players tuple names player 1 twice is malformed: the
    player has one information set there, and a profile would not say
    which entry is its move.  Both validators report it alike."""
    labels = ("a", "b")
    kids = {p: c for c, p in enumerate(itertools.product(labels, labels), 1)}
    nodes = {c: NodeData(parent=0, payoffs={1: Fraction(c)})
             for c in kids.values()}
    nodes[0] = NodeData(parent=None, players=(1, 1), actions={1: labels},
                        children=kids)
    trees = {"T": set(nodes), "S": {0, 1, 2}}
    g = Game([1], trees, nodes, {(1, t, n): InfoSet(1, t, (n,))
                                 for t, ns in trees.items() for n in ns})
    for check in (validate_game, reference_validate_game):
        with pytest.raises(StructuralError) as e:
            check(g)
        assert e.value.problems == [
            "node 0: active players [1, 1] name a player twice"]


def test_actions_in_keeps_its_results_and_errors():
    for g in corpus() + grid_draws(1):
        for t in g.trees:
            for n in g.nodes:
                for i in (NATURE, *g.players):
                    try:
                        want = declared_restriction(g, t, n, i)
                    except KeyError:
                        with pytest.raises(KeyError):
                            g.actions_in(t, n, i)
                        continue
                    assert g.actions_in(t, n, i) == want, (t, n, i)
        mover = next(n for n in g.nodes if g.nodes[n].players)
        i = g.nodes[mover].players[0]
        for args in (("no such tree", mover, i), (g.tbar, -1, i)):
            with pytest.raises(KeyError):
                g.actions_in(*args)


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


def wrong_kinds() -> dict:
    """Per call with one argument of the wrong kind, the start of the
    TypeError it raises (each used to leak a raw error or, for a float
    seed, to pass)."""
    g = load("ex2_initial")
    sg = ugt.build_supergame(g, "efr")
    seed = "seed must be an int"
    policy = "not an iterable of profiles"
    return {
        "generate_random_game(5)": (
            lambda: generate_random_game(5), "params must be a GenParams"),
        "generate_random_game(seed='x')": (
            lambda: generate_random_game(seed="x"), seed),
        "generate_random_game(seed=1.5)": (
            lambda: generate_random_game(seed=1.5), seed),
        "generate_random_game(seed=True)": (
            lambda: generate_random_game(seed=True), seed),
        "random_profile(g, seed=None)": (
            lambda: ugt.random_profile(g, seed=None), seed),
        "random_profile(g, seed=1.5)": (
            lambda: ugt.random_profile(g, seed=1.5), seed),
        "parse_game(5)": (lambda: parse_game(5), "a game document is text"),
        "parse_game(None)": (
            lambda: parse_game(None), "a game document is text"),
        "serialize_game(g, provenance=5)": (
            lambda: serialize_game(g, provenance=5),
            "provenance must be a mapping"),
        "serialize_game(g, provenance=[('a', 1)])": (
            lambda: serialize_game(g, provenance=[("a", 1)]),
            "provenance must be a mapping"),
        "supergame_dot(sg, labels=5)": (
            lambda: ugt.supergame_dot(sg, labels=5),
            "labels must be a mapping"),
        "run_discovery(g, 'efr', seed='x')": (
            lambda: ugt.run_discovery(g, "efr", seed="x"), seed),
        "run_discovery(g, 'efr', seed=1.5)": (
            lambda: ugt.run_discovery(g, "efr", seed=1.5), seed),
        "run_discovery(g, 'efr', seed=True)": (
            lambda: ugt.run_discovery(g, "efr", seed=True), seed),
        "run_discovery(g, 'efr', f=5)": (
            lambda: ugt.run_discovery(g, "efr", f=5), "f must be callable"),
        "allowed_profiles(g, lambda h: 5)": (
            lambda: ugt.allowed_profiles(g, lambda h: 5), policy),
        "build_supergame(g, lambda h: 5)": (
            lambda: ugt.build_supergame(g, lambda h: 5), policy),
        "run_discovery(g, lambda h: 5)": (
            lambda: ugt.run_discovery(g, lambda h: 5), policy),
    }


@pytest.mark.parametrize("call", sorted(wrong_kinds()))
def test_an_argument_of_the_wrong_kind_is_a_type_error(call):
    run, message = wrong_kinds()[call]
    with pytest.raises(TypeError, match=re.escape(message)):
        run()


def test_the_right_kinds_still_pass():
    g = load("ex2_initial")
    text = serialize_game(g, provenance={"source": "test"})
    assert parse_game(text.encode()) == g
    assert ugt.supergame_dot(ugt.build_supergame(g, "efr"),
                             labels={g: "start"}).count("start")
    assert ugt.random_profile(g, seed=2 ** 70) == \
        ugt.random_profile(g, seed=2 ** 70)
    assert ugt.run_discovery(g, "efr", f=lambda h, profiles: [
        (s, 1) for s in profiles]).absorbing
    assert ugt.allowed_profiles(g, lambda h: iter([])) == []
