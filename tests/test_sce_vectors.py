"""The SCE layer on vectors and class tables, each part against its
object-world definition: live nodes by one walk, witnesses built on first
read, and the construction's behavior form read off the class table."""

import functools
import gc
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_classes import SHAPES, generated
from test_efr import centipede, chain
from ugt import discovery, strategies
from ugt.core import NATURE
from ugt.discovery import allowed_profiles
from ugt.equilibrium import (
    _class_behavior,
    _kernels_reach,
    _live_nodes,
    _normal_form,
    _restricted_nash,
    check_sce_behavior,
    check_sce_efr,
    check_sce_pure,
    construct_sce_efr,
    is_rationalizable_self_confirming,
    lift_pure,
    uniform_nature,
)
from ugt.fixtures import FIXTURES, load
from ugt.gamedoc import parse_game, serialize_game
from ugt.randgen import random_profile
from ugt.rationalizability import _class_rounds, _classes
from ugt.strategies import (
    BehaviorStrategy,
    MixedStrategy,
    PureStrategy,
    acting_players,
    has_nature,
    kernel_vector,
    kuhn_convert,
    vector_strategy,
)


@functools.cache
def corpus():
    """(label, game) for every fixture, ten generated games of each shape,
    chain(12) and centipede(12)."""
    return ([(name, load(name)) for name in FIXTURES]
            + [((shape, k), g) for shape in sorted(SHAPES)
               for k, g in enumerate(generated(shape, 10))]
            + [("chain", chain(12)), ("centipede", centipede(12))])


def uniform(g, j):
    """Player j's behavior strategy mixing uniformly at every set."""
    return BehaviorStrategy.make(j, {
        h: dict.fromkeys(g.set_actions(h), Fraction(1, len(g.set_actions(h))))
        for h in g.decision_sets(j)})


# ---------------------------------------------------------------------------
# the construction's behavior form


def kuhn_reference(g, i, weights):
    """``kuhn_convert`` of the mixture that weights the first members of
    player i's classes, as PureStrategy objects."""
    make, table = vector_strategy(g, i), _classes(g, i)
    return kuhn_convert(g, i, MixedStrategy.make(
        {make(table.first[c]): w for c, w in weights.items()}))


def nash_weights(g):
    """Per real player, the weights the construction puts on its alive
    classes: the restricted Nash equilibrium of the normal form over the
    classes' first members, nature playing uniformly."""
    alive = {i: sorted(cs) for i, cs in _class_rounds(g)[-1].items()}
    pools = {i: [_classes(g, i).first[c] for c in alive[i]]
             for i in g.players}
    nature = {NATURE: kernel_vector(g, uniform_nature(g), NATURE)} \
        if has_nature(g) else {}
    got = _restricted_nash(pools, _normal_form(g, pools, nature))
    return {i: {alive[i][x]: w for x, w in ws.items()}
            for i, ws in got.items()}


def assert_class_behavior_is_kuhn(g, label):
    """The class-table conversion equals ``kuhn_convert`` on the
    restricted-Nash weights (one or two players), on each alive class
    alone, and uniformly over the alive classes and over all classes."""
    cases = []
    if len(g.players) <= 2:
        cases += nash_weights(g).items()
    alive = _class_rounds(g)[-1]
    for i in g.players:
        n = len(_classes(g, i).first)
        cases += [(i, {c: Fraction(1)}) for c in sorted(alive[i])]
        cases += [(i, dict.fromkeys(alive[i], Fraction(1, len(alive[i])))),
                  (i, dict.fromkeys(range(n), Fraction(1, n)))]
    for i, weights in cases:
        assert _class_behavior(g, i, weights) == \
            kuhn_reference(g, i, weights), (label, i, weights)
    return len(cases)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_class_behavior_is_kuhn_convert(name):
    assert assert_class_behavior_is_kuhn(load(name), name)


def test_generated_and_family_class_behavior_is_kuhn_convert():
    for label, g in corpus():
        if label not in FIXTURES:
            assert assert_class_behavior_is_kuhn(g, label)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_class_behavior_is_kuhn_convert_on_drawn_weights(data):
    label, g = data.draw(st.sampled_from(corpus()))
    i = data.draw(st.sampled_from(sorted(g.players)))
    alive = sorted(_class_rounds(g)[-1][i])
    raw = data.draw(st.lists(st.integers(0, 6), min_size=len(alive),
                             max_size=len(alive)).filter(any))
    weights = {c: Fraction(x, sum(raw)) for c, x in zip(alive, raw)}
    assert _class_behavior(g, i, weights) == kuhn_reference(g, i, weights)


def construct_or_refusal(g):
    try:
        return construct_sce_efr(g)
    except (ValueError, NotImplementedError) as e:
        return type(e), str(e), is_rationalizable_self_confirming(g)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_construction_takes_no_object_detour(name, monkeypatch):
    """The construction and its RSC test build no PureStrategy from a
    vector and walk no ``reaches``, yet return what they did before."""
    g = load(name)
    want = construct_or_refusal(g)

    def refuse(*args):
        raise AssertionError("object-world detour")

    monkeypatch.setattr(discovery, "vector_strategy", refuse)
    monkeypatch.setattr(strategies, "reaches", refuse)
    assert construct_or_refusal(parse_game(serialize_game(g))) == want


# ---------------------------------------------------------------------------
# live nodes


def reference_live_nodes(g, kernels, t):
    """The nodes of t that ``_kernels_reach`` accepts, one by one."""
    return [n for n in sorted(g.trees[t])
            if _kernels_reach(g, kernels, t, (n,))]


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


def kernel_profiles(g):
    """Pure, behavior and mixed kernel profiles of every acting player,
    nature included, each also cut down to one player and to none."""
    players = acting_players(g)
    a, b = random_profile(g, seed=1), random_profile(g, seed=2)
    third = Fraction(1, 3)
    mixed = {j: MixedStrategy.make({a[j]: third, b[j]: 1 - third})
             if a[j] != b[j] else MixedStrategy.degenerate(a[j])
             for j in players}
    full = [{j: kernel_vector(g, x[j], j) for j in players}
            for x in (random_profile(g, seed=0),
                      {j: uniform(g, j) for j in players}, mixed)]
    return full + [{j: k[j]} for k in full for j in players] + [{}]


def assert_live_nodes_match_reference(g, label):
    checked = 0
    for kernels in kernel_profiles(g):
        for t in g.trees:
            assert _live_nodes(g, kernels, t) == \
                reference_live_nodes(g, kernels, t), (label, t)
            checked += 1
        # a kernel missing where play reads it raises alike
        for j, k in kernels.items():
            for p in range(len(k)):
                cut = {**kernels, j: k[:p] + (None,) + k[p + 1:]}
                for t in g.trees:
                    assert outcome(_live_nodes, g, cut, t) == outcome(
                        reference_live_nodes, g, cut, t), (label, j, p, t)
    return checked


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_live_nodes_match_per_node_reach(name):
    assert assert_live_nodes_match_reference(load(name), name)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_generated_live_nodes_match_per_node_reach(shape):
    for k, g in enumerate(generated(shape, 10)):
        assert assert_live_nodes_match_reference(g, (shape, k))


def test_a_missing_read_kernel_raises_in_both():
    g = load("ex2_rsc")
    kernels = {j: kernel_vector(g, s, j)
               for j, s in random_profile(g).items()}
    cut = {**kernels, 1: (None,) * len(kernels[1])}
    got = outcome(_live_nodes, g, cut, g.tbar)
    assert got[0] is TypeError
    assert got == outcome(reference_live_nodes, g, cut, g.tbar)


# ---------------------------------------------------------------------------
# witnesses built on first read


def eager_witnesses(g, witnesses):
    """The witness dict built at once from a verdict's stored vectors:
    restricted behavior strategies, and for pure witnesses each point-mass
    behavior strategy as a pure one."""
    def behavior(j, v):
        return BehaviorStrategy.make(j, {h: k for h, k in zip(
            g.decision_sets(j), v) if k is not None})

    out = {i: [[({j: behavior(j, v) for j, v in p.items()}, w)
                for p, w in group] for group in groups]
           for i, groups in witnesses.groups.items()}
    if not witnesses.pure:
        return out
    return {i: [({j: PureStrategy.make(j, {h: a for h, ((a, _),)
                                           in x.kernels})
                  for j, x in p.items()}, w) for p, w in group]
            for i, [group] in out.items()}


def holding_verdicts(g):
    """Holding verdicts of every check on a few profiles of g."""
    out = []
    for k in range(4):
        s = random_profile(g, seed=k)
        out += [check_sce_pure(g, s), check_sce_behavior(g, lift_pure(g, s))]
    unif = {j: uniform(g, j) for j in g.players}
    out += [check_sce_behavior(g, unif), check_sce_efr(g, unif)]
    try:
        out.append(construct_sce_efr(g)[1])
    except (ValueError, NotImplementedError):
        pass
    return [v for v in out if v.holds]


def test_lazy_witnesses_equal_the_eager_build():
    held = groups = 0
    for label, g in corpus():
        for v in holding_verdicts(g):
            w = v.witnesses
            assert "data" not in vars(w), label
            # pickled before and after the first read
            early = pickle.loads(pickle.dumps(v))
            eager = eager_witnesses(g, w)
            assert w == eager and eager == w and dict(w) == eager, label
            assert list(w) == list(eager) == list(g.players)
            assert early == v and pickle.loads(pickle.dumps(v)) == v
            assert repr(w) == repr(eager)
            held += 1
            groups += not w.pure and any(len(x) > 1 for x in eager.values())
    assert held >= 100 and groups


def test_verdicts_leave_the_game_freeable():
    """A verdict holds no reference to its game: with the cycle collector
    off, dropping the game frees it, and the witnesses build afterwards."""
    text = serialize_game(load("ex2_rsc"))
    collecting = gc.isenabled()
    gc.disable()
    try:
        g = parse_game(text)
        s = next(s for s in allowed_profiles(g, "efr")
                 if check_sce_pure(g, s).holds)
        verdicts = [check_sce_pure(g, s),
                    check_sce_behavior(g, lift_pure(g, s)),
                    construct_sce_efr(g)[1]]
        eager = [eager_witnesses(g, v.witnesses) for v in verdicts]
        ref = weakref.ref(g)
        del g
        assert ref() is None
        assert [v.witnesses for v in verdicts] == eager
        assert all(v.holds for v in verdicts)
    finally:
        if collecting:
            gc.enable()
