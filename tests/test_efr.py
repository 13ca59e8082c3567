import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from operator import eq, ge, gt

import pytest

from test_classes import reference_table
from ugt import lp, rationalizability
from ugt.cli import main
from ugt.core import NATURE, Game, InfoSet, NodeData, validate_game
from ugt.discovery import build_supergame
from ugt.equilibrium import check_sce_pure, construct_sce_efr
from ugt.fixtures import load
from ugt.gamedoc import serialize_game
from ugt.lp import solve_feasibility
from ugt.randgen import generate_random_game
from ugt.rationalizability import (
    _class_rounds,
    _classes,
    _contexts,
    efr,
)
from ugt.reference import (
    OracleCapExceeded,
    _allowed_profiles,
    best_reply_exists,
    efr_oracle,
    restrict_strategy,
)
from ugt.strategies import (
    PureStrategy,
    acting_players,
    has_nature,
    opposing_profiles,
    play_table,
    pure_strategies,
    reach_probability,
    reaches,
    realization_equivalent,
    realized_tbar_path,
    set_positions,
    strategy_vectors,
)


def h(i, host, members):
    return InfoSet(i, host, members)


def actions(strategies, target):
    return {s.action_at(target) for s in strategies}


def outcomes(result, g):
    paths = set()
    for s1 in result[1]:
        for s2 in result.get(2, [PureStrategy(2, ())]):
            paths.add(tuple(realized_tbar_path(g, {1: s1, 2: s2})))
    return paths


# ---------------------------------------------------------------------------
# worked fixtures


def test_ex1_initial_outcome():
    g = load("ex1_initial")
    trace = efr(g)
    r = trace.surviving()
    assert actions(r[1], h(1, "T", (0,))) == {"l1"}
    assert len(r[2]) == 1
    assert r[2][0].action_at(h(2, "Tbar", (1,))) == "m2"
    assert r[2][0].action_at(h(2, "T", (1,))) == "r2"
    assert outcomes(r, g) == {(0, 1, 4)}
    # round 0 is the full strategy set
    assert len(trace.rounds[0][1]) == 2
    assert len(trace.rounds[0][2]) == 6


def test_ex1_discovered_forces_outside_action():
    g = load("ex1_discovered")
    r = efr(g).surviving()
    assert len(r[1]) == 1
    assert r[1][0].action_at(h(1, "Tbar", (0,))) == "r1"
    assert r[1][0].action_at(h(1, "T", (0,))) == "l1"
    assert outcomes(r, g) == {(0, 2)}


def test_ex2_initial_outcome():
    g = load("ex2_initial")
    r = efr(g).surviving()
    assert len(r[1]) == 1 and len(r[2]) == 1
    assert r[1][0].action_at(h(1, "Tpp", (0,))) == "l1"
    assert r[1][0].action_at(h(1, "Tpp", (3,))) == "z1"
    assert r[2][0].action_at(h(2, "Tp", (1,))) == "m2"
    assert r[2][0].action_at(h(2, "T", (1,))) == "r2"
    assert outcomes(r, g) == {(0, 1, 4)}


def test_ex2_rsc_root_action_flips():
    g = load("ex2_rsc")
    r = efr(g).surviving()
    assert actions(r[1], h(1, "Tbar", (0,))) == {"r1"}
    assert actions(r[1], h(1, "Tp", (0,))) == {"r1"}
    assert actions(r[1], h(1, "Tpp", (0,))) == {"l1"}
    # the set after the own excluded action is never reached, so both
    # continuations survive there
    assert actions(r[1], h(1, "Tbar", (3,))) == {"y1", "z1"}
    assert len(r[1]) == 2 and len(r[2]) == 1
    assert outcomes(r, g) == {(0, 2)}


def test_ex2_nonrat_outcome():
    g = load("ex2_nonrat")
    r = efr(g).surviving()
    assert len(r[1]) == 1 and len(r[2]) == 1
    assert r[2][0].action_at(h(2, "Tbar", (1,))) == "l2"
    assert r[2][0].action_at(h(2, "Tpp", (1,))) == "l2"
    assert r[2][0].action_at(h(2, "Tp", (1,))) == "m2"
    assert outcomes(r, g) == {(0, 1, 3, 7)}


def test_ex2_full_outcome():
    g = load("ex2_full")
    r = efr(g).surviving()
    assert actions(r[1], h(1, "Tbar", (0,))) == {"l1"}
    assert actions(r[1], h(1, "Tp", (0,))) == {"r1"}
    assert actions(r[2], h(2, "Tbar", (1,))) == {"l2"}
    assert outcomes(r, g) == {(0, 1, 3, 7)}


def test_bos_aware_forward_induction_rounds():
    g = load("bos_aware")
    trace = efr(g)
    root, stage = h(1, "G", (0,)), h(1, "G", (2,))
    r1 = trace.rounds[1]
    # entering and then playing the low action dies immediately
    assert all(not (s.action_at(root) == "in" and s.action_at(stage) == "S")
               for s in r1[1])
    assert len(r1[1]) == 3
    # player 2 then reads entry as the high action
    assert actions(trace.rounds[2][2], h(2, "G", (2,))) == {"b"}
    # which makes staying out irrational
    final = trace.surviving()
    assert len(final[1]) == 1
    assert final[1][0].action_at(root) == "in"
    assert final[1][0].action_at(stage) == "B"
    assert outcomes(final, g) == {(0, 2, 3)}
    assert trace.fixpoint_round == 4


def test_fig14_unique_outcome():
    g = load("fig14")
    r = efr(g).surviving()
    assert actions(r[1], h(1, "T1", (0,))) == {"M"}
    assert actions(r[2], h(2, "T3", (2,))) == {"b"}
    assert outcomes(r, g) == {(0, 2, 7)}


def test_bos_repeated_exit_strategy_survives():
    g = load("bos_repeated")
    r = efr(g).surviving()
    assert any(s.action_at(h(1, "Tbar", (0,))) == "out"
               and s.action_at(h(1, "Tbar", (1,))) == "i2a"
               and s.action_at(h(1, "Tbar", (11,))) == "B2a"
               for s in r[1])
    assert "b2a" in actions(r[2], h(2, "Tbar", (11,)))


def test_trivial_and_matching_pennies():
    r = efr(load("trivial_single")).surviving()
    assert len(r[1]) == 1 and r[1][0].action_at(h(1, "G", (0,))) == "a"
    r = efr(load("matching_pennies")).surviving()
    assert len(r[1]) == 2 and len(r[2]) == 2  # everything is rationalizable


def test_nature_coin_both_guesses_survive():
    r = efr(load("nature_coin")).surviving()
    assert actions(r[1], h(1, "G", (1, 2))) == {"u", "d"}


# ---------------------------------------------------------------------------
# trace structure


@pytest.mark.parametrize("name", [
    "ex1_initial", "ex1_discovered", "ex2_initial", "ex2_rsc", "ex2_nonrat",
    "ex2_full", "bos_aware", "bos_repeated", "bos_repeated_discovered",
    "fig14", "matching_pennies", "trivial_single", "nature_coin"])
def test_rounds_shrink_monotonically(name):
    g = load(name)
    trace = efr(g)
    for prev, cur in zip(trace.rounds, trace.rounds[1:]):
        for i in g.players:
            assert set(cur[i]) <= set(prev[i])
            assert cur[i]
    assert trace.rounds[-1] == trace.rounds[-2]
    assert trace.fixpoint_round == len(trace.rounds) - 1


@pytest.mark.parametrize("name,sizes", [
    ("bos_repeated", [(2048, 16), (1280, 16), (1280, 8), (640, 8), (640, 8)]),
    ("bos_repeated_discovered",
     [(2048, 128), (1280, 128), (1280, 32), (384, 32), (384, 16), (128, 16),
      (128, 16)]),
])
def test_big_fixture_rounds_pinned(name, sizes):
    g = load(name)
    trace = efr(g)
    assert [(len(rd[1]), len(rd[2])) for rd in trace.rounds] == sizes
    assert trace.fixpoint_round == len(sizes) - 1


# ---------------------------------------------------------------------------
# best_reply_exists as a standalone operation


def test_best_reply_exists_direct():
    g = load("ex1_initial")
    target = h(2, "Tbar", (1,))
    [s_l1] = [s for s in efr(g).surviving()[1]]
    m2 = PureStrategy.make(2, {target: "m2", h(2, "T", (1,)): "r2"})
    l2 = PureStrategy.make(2, {target: "l2", h(2, "T", (1,)): "l2"})
    allowed = [{1: s_l1}]
    assert best_reply_exists(g, 2, target, m2, allowed)
    assert not best_reply_exists(g, 2, target, l2, allowed)
    with pytest.raises(ValueError):
        best_reply_exists(g, 2, target, m2, [])
    with pytest.raises(ValueError):  # a set of player 2, asked of player 1
        best_reply_exists(g, 1, target, s_l1, allowed)
    # y1 at 1@Tpp{3} is never a best reply, yet it holds vacuously for a
    # strategy that avoids the set with r1
    g = load("ex2_initial")
    first, later = h(1, "Tpp", (0,)), h(1, "Tpp", (3,))
    y1 = next(s for s in pure_strategies(g, 1)
              if s.action_at(first) == "l1" and s.action_at(later) == "y1")
    allowed = [p for p in ({2: s} for s in pure_strategies(g, 2))
               if reaches(g, p, later)]
    assert not best_reply_exists(g, 1, later, y1, allowed)
    assert best_reply_exists(g, 1, later, y1.replace({first: "r1"}), allowed)


def test_best_reply_exists_rejects_nonreaching_profile():
    g = load("ex1_initial")
    target = h(2, "Tbar", (1,))
    m2 = PureStrategy.make(2, {target: "m2", h(2, "T", (1,)): "r2"})
    r1 = PureStrategy.make(1, {h(1, "T", (0,)): "r1"})
    with pytest.raises(ValueError):
        best_reply_exists(g, 2, target, m2, [{1: r1}])


def test_best_reply_exists_rejects_malformed_strategies():
    g = load("ex1_initial")
    target = h(2, "Tbar", (1,))
    [s_l1] = efr(g).surviving()[1]
    m2 = PureStrategy.make(2, {target: "m2", h(2, "T", (1,)): "r2"})
    with pytest.raises(ValueError):
        best_reply_exists(g, 2, target, m2, [{1: PureStrategy.make(1, {})}])
    with pytest.raises(ValueError):
        best_reply_exists(g, 2, target, PureStrategy.make(2, {}),
                          [{1: s_l1}])
    with pytest.raises(ValueError):  # s_i owned by another player
        best_reply_exists(g, 2, target, s_l1, [{1: s_l1}])
    with pytest.raises(ValueError):  # an action the set does not offer
        best_reply_exists(g, 2, target, m2.replace({target: "zz"}),
                          [{1: s_l1}])


# ---------------------------------------------------------------------------
# oracle agreement


@pytest.mark.parametrize("name", [
    "ex1_initial", "ex1_discovered", "ex2_initial", "ex2_rsc", "ex2_nonrat",
    "bos_aware", "fig14", "matching_pennies", "trivial_single", "nature_coin"])
def test_oracle_matches_engine(name):
    g = load(name)
    fast = efr(g).surviving()
    slow = efr_oracle(g)
    for i in g.players:
        assert set(fast[i]) == set(slow[i]), name


def test_oracle_cap_enforced():
    with pytest.raises(OracleCapExceeded):
        efr_oracle(load("bos_repeated"), cap=100)
    with pytest.raises(OracleCapExceeded):
        efr_oracle(load("ex2_full"), cap=1000)


@pytest.mark.parametrize("cap", ["x", None, 1.5, True])
def test_oracle_cap_must_be_an_int(cap):
    # "x" and None used to leak a raw TypeError, and 1.5 passed as a cap
    with pytest.raises(TypeError, match="cap must be an int"):
        efr_oracle(load("ex1_initial"), cap=cap)


@pytest.mark.parametrize("players,nature", [(2, True), (3, False), (3, True)])
def test_oracle_matches_engine_on_generated_shapes(players, nature):
    checked = shrunk = 0
    for k in range(30):
        g = generate_random_game(seed=k, players=players, nature=nature,
                                 depth=2, branching=2 + (k % 2),
                                 tree_count=2 + (k % 3 == 0))
        try:
            slow = efr_oracle(g)
        except OracleCapExceeded:
            continue
        checked += 1
        trace = efr(g)
        fast = trace.surviving()
        for i in g.players:
            assert set(fast[i]) == set(slow[i]), k
        shrunk += trace.fixpoint_round > 1
    assert checked >= 25 and shrunk >= 5


# ---------------------------------------------------------------------------
# the class engine: rounds keep or drop whole realization classes

FIXTURE_NAMES = [
    "ex1_initial", "ex1_discovered", "ex2_initial", "ex2_rsc", "ex2_nonrat",
    "ex2_full", "bos_aware", "bos_repeated", "bos_repeated_discovered",
    "fig14", "matching_pennies", "trivial_single", "nature_coin"]
SMALL_FIXTURES = [n for n in FIXTURE_NAMES if not n.startswith("bos_repeated")]
GENERATED = {"nature": dict(players=2, nature=True), "3p": dict(players=3)}


def generated_games(shape, draws=12):
    return [generate_random_game(seed=seed, depth=2, branching=2 + seed % 2,
                                 tree_count=2 + (seed % 3 == 0),
                                 **GENERATED[shape])
            for seed in range(draws)]


def exhaustive_classes(g, i, pool):
    """The pool split by exhaustive realization equivalence."""
    opposing = opposing_profiles(g, i)
    classes = []
    for x in pool:
        for c in classes:
            if realization_equivalent(g, i, x, c[0], opposing):
                c.append(x)
                break
        else:
            classes.append([x])
    return classes


# strategies x opposing profiles of a player whose classes are compared
# exhaustively; both players of the repeated battle of the sexes are over it
CLASS_CHECK_CAP = 2500


def assert_rounds_are_unions_of_classes(g):
    trace = efr(g)
    checked = 0
    for i in g.players:
        pool = pure_strategies(g, i)
        if len(pool) * len(opposing_profiles(g, i)) > CLASS_CHECK_CAP:
            continue
        checked += 1
        classes = exhaustive_classes(g, i, pool)
        for rd in trace.rounds:
            alive = set(rd[i])
            for c in classes:
                assert len(alive.intersection(c)) in (0, len(c))
    return checked


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_rounds_are_unions_of_classes(name):
    checked = assert_rounds_are_unions_of_classes(load(name))
    assert checked or name not in SMALL_FIXTURES


@pytest.mark.parametrize("shape", sorted(GENERATED))
def test_generated_rounds_are_unions_of_classes(shape):
    games = generated_games(shape)
    checked = sum(assert_rounds_are_unions_of_classes(g) for g in games)
    assert checked >= 2 * len(games)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_trace_is_built_once_from_class_rounds(name):
    """Each round lists the very objects of round 0, and the trace is the
    same whether the engine's consumers ran before it or not."""
    g = load(name)
    trace = efr(g)
    for i in g.players:
        first = {id(s) for s in trace.rounds[0][i]}
        assert all(id(s) in first for rd in trace.rounds for s in rd[i])
    late = load(name)
    build_supergame(late, "efr")
    assert efr(late) == trace


@pytest.fixture
def made(monkeypatch):
    """The action vectors efr turns into PureStrategy objects, in order."""
    vectors = []
    real = rationalizability.vector_strategy

    def counting(g, i):
        make = real(g, i)

        def counted(v):
            vectors.append(v)
            return make(v)
        return counted

    monkeypatch.setattr(rationalizability, "vector_strategy", counting)
    return vectors


def test_round_sizes_build_no_strategy(made):
    g = load("bos_repeated")
    trace = efr(g)
    sizes = [{i: len(rd[i]) for i in g.players} for rd in trace.rounds]
    assert sizes == [{1: 2048, 2: 16}, {1: 1280, 2: 16}, {1: 1280, 2: 8},
                     {1: 640, 2: 8}, {1: 640, 2: 8}]
    for rd, alive in zip(sizes, _class_rounds(g)):
        for i in g.players:
            assert rd[i] == sum(_classes(g, i).size[c] for c in alive[i])
    # rounds with the same classes compare without building either
    assert trace.rounds[-1] == trace.rounds[-2]
    assert trace.rounds[0][1] != trace.rounds[-1][1]
    assert made == []
    # the survivors alone build only themselves: 640 + 8
    survivors = {i: list(pool) for i, pool in trace.surviving().items()}
    assert len(made) == 648
    # every round read: each pure strategy built once, the survivors' very
    # objects reused
    for rd in trace.rounds:
        for i in g.players:
            list(rd[i])
    assert sorted(made) == sorted(v for i in g.players
                                  for v in strategy_vectors(g, i))
    for i in g.players:
        first = {id(s) for s in trace.rounds[0][i]}
        assert all(id(s) in first for s in survivors[i])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rounds_read_as_lists(name):
    g = load(name)
    trace = efr(g)
    for rd in trace.rounds:
        for i in g.players:
            seq = rd[i]
            as_list = list(seq)
            assert len(seq) == len(as_list)
            assert seq == as_list and as_list == seq
            assert seq != as_list + [None]
            assert seq[0] is as_list[0] and seq[-1] is as_list[-1]
            assert seq[1:] == as_list[1:] and as_list[0] in seq
            assert repr(seq) == repr(as_list)
            with pytest.raises(TypeError):
                hash(seq)
    # another parse compares member by member
    other = efr(load(name))
    assert other.rounds == trace.rounds
    assert other.surviving() == trace.surviving()


def assert_reads_stay_in_reached_positions(g):
    """Every play-out of every tree reads a real player's action vector only
    at positions its realization class reaches, the premise that lets one
    member decide for its class.  A walk down each tree fixes the actions
    read so far; the vectors that agree with them are exactly those with a
    play-out through the node.  Returns the number of reads checked."""
    checked = 0
    of = {j: reference_table(g, j)[0] for j in acting_players(g)}
    for t in g.trees:
        table = play_table(g, t)
        stack = [(g.root(t), {})]
        while stack:
            n, fixed = stack.pop()
            pairs = table.get(n, ())
            for j, p in pairs:
                if j == NATURE:
                    continue
                own = [(q, a) for (k, q), a in fixed.items() if k == j]
                table_j = _classes(g, j)
                for v, c in zip(strategy_vectors(g, j), of[j]):
                    if all(v[q] == a for q, a in own):
                        assert p in table_j.reached[c], (t, n, j, v)
                        checked += 1
            for prof, child in g.children_in(t, n).items():
                nxt = dict(fixed)
                if all(nxt.setdefault(jp, a) == a
                       for jp, a in zip(pairs, prof)):
                    stack.append((child, nxt))
    return checked


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_reads_stay_in_reached_positions(name):
    assert assert_reads_stay_in_reached_positions(load(name))


@pytest.mark.parametrize("shape", ["plain", "nature", "3p"])
def test_generated_reads_stay_in_reached_positions(shape):
    assert sum(assert_reads_stay_in_reached_positions(generate_random_game(
        seed=seed, depth=3, branching=2, tree_count=3,
        **GENERATED.get(shape, {}))) for seed in range(20))


def play(g, t, prof):
    """The terminal node of tree t under a profile of action vectors."""
    table, n = play_table(g, t), g.root(t)
    while n in table:
        n = g.children_in(t, n)[tuple(prof[j][p] for j, p in table[n])]
    return n


def assert_columns_lose_no_play(g):
    """Every column of the opponents' alive members (each opponent's keys
    in pool order) reaches the set, and plays the host tree against every
    own class, exactly like the kept column of their classes' first
    members; the kept columns are a subsequence of all of them.  Returns
    the number of member columns checked."""
    ctxs = _contexts(g)
    tables = {j: _classes(g, j) for j in acting_players(g)}
    of = {j: reference_table(g, j)[0] for j in tables}
    checked = 0
    for rd in _class_rounds(g):
        for i in g.players:
            for hh in g.decision_sets(i):
                ctx = ctxs[hh]
                view = ctx.view
                kept = ctx.columns(tables,
                                   tuple(rd[j] for j in view.opponents))
                members = [[(v, tables[j].first[c]) for v, c in zip(
                    strategy_vectors(g, j), of[j]) if c in rd[j]]
                           for j in view.opponents]
                expanded = [c for c in itertools.product(*(
                    dict.fromkeys(get(v) for v, _ in vs)
                    for get, vs in zip(view.opp_keys, members)))
                    if ctx.column_reaches(c)]
                rest = iter(expanded)
                assert all(c in rest for c in kept), hh
                # per opponent, one member per (key, first member's key)
                pairs = [dict(((get(v), get(f)), (v, f)) for v, f in vs[::-1])
                         for get, vs in zip(view.opp_keys, members)]
                for combo in itertools.product(*(p.values() for p in pairs)):
                    col = tuple(get(v) for get, (v, _) in
                                zip(view.opp_keys, combo))
                    first = tuple(get(f) for get, (_, f) in
                                  zip(view.opp_keys, combo))
                    assert ctx.column_reaches(col) == \
                        ctx.column_reaches(first), (hh, col)
                    checked += 1
                    if not ctx.column_reaches(col):
                        continue
                    assert first in kept, (hh, col)
                    for own in tables[i].first:
                        assert play(g, hh.host, {i: own, **{
                            j: v for j, (v, _) in zip(view.opponents, combo)
                        }}) == play(g, hh.host, {i: own, **{
                            j: f for j, (_, f) in zip(view.opponents, combo)
                        }}), (hh, col, own)
    return checked


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_columns_lose_no_play(name):
    assert assert_columns_lose_no_play(load(name))


@pytest.mark.parametrize("shape", ["plain", "nature", "3p"])
def test_generated_columns_lose_no_play(shape):
    assert sum(assert_columns_lose_no_play(generate_random_game(
        seed=seed, depth=3, branching=2, tree_count=3,
        **GENERATED.get(shape, {}))) for seed in range(20))


def one_shot(pay, cols):
    """Players 1 and 2 move at once: 1 picks a row of pay, 2 a column of
    cols; 1 gets the row's entry there and 2 is indifferent."""
    labels = {1: tuple(pay), 2: tuple(cols)}
    nodes, children = {}, {}
    for n, (a, b) in enumerate(itertools.product(*labels.values()), start=1):
        children[(a, b)] = n
        nodes[n] = NodeData(parent=0, payoffs={
            1: Fraction(pay[a][labels[2].index(b)]), 2: Fraction(0)})
    nodes[0] = NodeData(parent=None, players=(1, 2), actions=labels,
                        children=children)
    info = {(i, "G", n): InfoSet(i, "G", (n,)) for i in (1, 2) for n in nodes}
    return Game((1, 2), {"G": nodes}, nodes, info)


def test_best_reply_only_to_a_mixed_belief_survives():
    """Player 1's D is beaten under every point belief on player 2's L, M
    and R, yet is a best reply to (1/2, 1/2, 0); player 2 is indifferent."""
    pay = {"A": (3, 0, 0), "B": (0, 3, 0), "C": (0, 0, 3), "D": (2, 2, -10)}
    g = one_shot(pay, ("L", "M", "R"))
    root = h(1, "G", (0,))
    d = PureStrategy(1, ((root, "D"),))
    col = {b: {2: PureStrategy(2, ((h(2, "G", (0,)), b),))} for b in "LMR"}
    assert not any(best_reply_exists(g, 1, root, d, [p]) for p in col.values())
    assert best_reply_exists(g, 1, root, d, [col["L"], col["M"]])
    assert actions(efr(g).surviving()[1], root) == set(pay)


def test_row_beaten_only_by_a_mixed_row_is_dropped_by_the_simplex(
        monkeypatch):
    """Player 1's C = (1, 1) against L and R is strictly dominated by
    1/2 A + 1/2 B, where A = (3, 0) and B = (0, 3), but by neither pure
    row, so no pure test decides it: EFR drops it after one simplex call,
    the only one it makes."""
    pay = {"A": (3, 0), "B": (0, 3), "C": (1, 1)}
    g = one_shot(pay, ("L", "R"))
    root = h(1, "G", (0,))
    calls = []
    simplex = lp.solve_feasibility

    def spy(n, *system):
        x = simplex(n, *system)
        calls.append((n, sorted(map(tuple, system[2])), x))
        return x

    monkeypatch.setattr(lp, "solve_feasibility", spy)
    assert actions(efr(g).surviving()[1], root) == {"A", "B"}
    # C's rows against the others and itself, no belief making it optimal
    assert calls == [(2, [(-1, 2), (0, 0), (2, -1)], None)]
    cols = [{2: PureStrategy(2, ((h(2, "G", (0,)), b),))} for b in "LR"]
    assert [best_reply_exists(g, 1, root, PureStrategy(1, ((root, a),)),
                              cols) for a in pay] == [True, True, False]


def test_efr_on_chain_makes_no_simplex_call(monkeypatch):
    """chain(60) has one column at every set, so the one-column test
    decides each set and efr never reaches the simplex."""
    calls = []

    def spy(n, *system):
        calls.append(n)
        return None

    monkeypatch.setattr(lp, "solve_feasibility", spy)
    efr(chain(60))
    assert calls == []


def assert_rounds_match_per_strategy_reference(g):
    """Strategy s survives round k+1 exactly when it has a best reply at
    every set it reaches, under the support that the oracle's
    best-rationalization rule (``_allowed_profiles``) reads off rounds
    0..k, nature's whole pool included.  Each set's support level never
    falls from one round to the next."""
    trace = efr(g)
    nature = {NATURE: pure_strategies(g, NATURE)} if has_nature(g) else {}
    pools = [{**rd, **nature} for rd in trace.rounds]
    shrunk = False
    level = {}
    for k in range(trace.fixpoint_round):
        for i in g.players:
            allowed = {}
            for hh in g.decision_sets(i):
                m, profiles = _allowed_profiles(g, i, hh, pools, k)
                assert level.get(hh, 0) <= m <= k, (k, hh)
                level[hh] = m
                for p in profiles.values():
                    assert list(p) == [j for j in acting_players(g) if j != i]
                    assert all(restrict_strategy(g, s, hh.host) == s
                               for s in p.values())
                    assert reaches(g, p, hh)
                allowed[hh] = list(profiles.values())
            want = [s for s in trace.rounds[k][i]
                    if all(best_reply_exists(g, i, hh, s, allowed[hh])
                           for hh in g.decision_sets(i)
                           if reaches(g, {i: s}, hh))]
            assert trace.rounds[k + 1][i] == want, (k, i)
            shrunk |= len(want) < len(trace.rounds[k][i])
    return shrunk


@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_fixture_rounds_match_per_strategy_reference(name):
    assert_rounds_match_per_strategy_reference(load(name))


@pytest.mark.parametrize("shape", sorted(GENERATED))
def test_generated_rounds_match_per_strategy_reference(shape):
    shrunk = sum(map(assert_rounds_match_per_strategy_reference,
                     generated_games(shape)))
    assert shrunk >= 3


# ---------------------------------------------------------------------------
# the payoff matrix kernel against a replay-from-root reference


def reference_matrix(g, ctx, v, aid):
    """The matrix of ``_SetContext._matrix`` built the direct way: every
    continuation plays every allowed column from the host tree's root, and
    rows of Fraction payoffs are deduplicated as they are.  A row's verdict
    is a column where it is unbeaten, else the plain simplex over the rows
    no other row weakly dominates, with none of the engine's shortcuts.
    Returns each continuation's row index, the rows and a verdict per
    row."""
    cells = [dict(ctx.view.profile(c)) for c in ctx._allowed[aid]]
    w = list(v)
    index, at = {}, {}
    for combo in itertools.product(*ctx.dev.values()):
        for p, a in zip(ctx.dev, combo):
            w[p] = a
        for prof in cells:
            prof[ctx.i] = tuple(w)
        row = tuple(g.nodes[play(g, ctx.h.host, prof)].payoffs[ctx.i]
                    for prof in cells)
        at[combo] = index.setdefault(row, len(index))
    rows = list(index)
    col_max = tuple(map(max, zip(*rows)))
    kept = [r for r in rows
            if not any(o != r and all(map(ge, o, r)) for o in rows)]
    n = len(col_max)
    verdicts = [any(map(eq, r, col_max)) or solve_feasibility(
        n, [[1] * n], [1], [[x - y for x, y in zip(o, r)] for o in kept],
        [0] * len(kept)) is not None for r in rows]
    return at, rows, verdicts


def follow(tree, w):
    """The row of terminal ids that the vector w's actions select in the
    branch tree of ``_SetContext._matrix``."""
    while type(tree) is list:
        position, branches = tree
        tree = branches[w[position]]
    return tree


def assert_matrices_match_reference(g):
    """Every matrix the engine can build for the first members of each
    player's classes, over every column set its rounds allowed, matches the
    reference: each continuation, followed down the branch tree, selects a
    row of terminal ids whose distinct row equals its reference row up to
    the context's integer scale; the engine lists exactly the rows of terminal
    ids the continuations select; the distinct rows are the reference's as
    multisets; and the verdicts are the reference's.
    Returns the number of matrices checked."""
    efr(g)
    ctxs = _contexts(g)
    checked = 0
    for i in g.players:
        table = _classes(g, i)
        for k, hh in enumerate(g.decision_sets(i)):
            ctx, t = ctxs[hh], hh.host
            scale = math.lcm(*(g.nodes[n].payoffs[i].denominator
                               for n in g.trees[t] if g.terminal_in(t, n)))

            def scaled(rs):
                return sorted(tuple(x * scale for x in r) for r in rs)

            seen = set()
            for v, reached in zip(table.first, table.reached):
                if k not in reached:
                    continue
                for aid in list(ctx._allowed):
                    if (ctx.prefix_key(v), aid) in seen:
                        continue
                    seen.add((ctx.prefix_key(v), aid))
                    tree, of, rows, _, _ = ctx._matrix(v, aid)
                    want_at, want_rows, verdicts = \
                        reference_matrix(g, ctx, v, aid)
                    assert sorted(rows) == scaled(want_rows), hh
                    assert all(type(x) is int for r in rows for x in r)
                    selected = set()
                    for combo, r in want_at.items():
                        w = list(v)
                        for p, a in zip(ctx.dev, combo):
                            w[p] = a
                        ids = follow(tree, w)
                        selected.add(ids)
                        assert rows[of[ids]] == tuple(
                            x * scale for x in want_rows[r]), (hh, combo)
                        assert ctx.optimal_for_some_belief(tuple(w), aid) \
                            == verdicts[r], (hh, combo)
                    assert set(of) == selected, hh
                    checked += 1
    return checked


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_matrices_match_reference(name):
    assert assert_matrices_match_reference(load(name))


@pytest.mark.parametrize("shape", ["plain", "nature", "3p"])
def test_generated_matrices_match_reference(shape):
    assert sum(assert_matrices_match_reference(generate_random_game(
        seed=seed, depth=3, branching=2, tree_count=3,
        **GENERATED.get(shape, {}))) for seed in range(12))


def simultaneous_deviation_game():
    """Players 1 and 2 move at once at the root (U/D, l/r); after U they
    move at once again, player 1 not knowing 2's first move (a/b against
    c/d after l, e/f after r).
    Player 1's root set and its second set are both met at simultaneous
    nodes, and payoffs have denominators 2, 3 and 5."""
    nodes, info = {}, {}
    first = {(x, y): n for n, (x, y) in enumerate(
        itertools.product("UD", "lr"), start=1)}
    nodes[0] = NodeData(parent=None, players=(1, 2),
                        actions={1: ("U", "D"), 2: ("l", "r")},
                        children=first)
    z = 5
    for (x, y), n in first.items():
        if x == "D":
            nodes[n] = NodeData(parent=0, payoffs={
                1: Fraction(1 + (y == "r"), 2), 2: Fraction(1, 3)})
            continue
        second, menu = {}, ("c", "d") if y == "l" else ("e", "f")
        for a, c in itertools.product("ab", menu):
            second[(a, c)] = z
            nodes[z] = NodeData(parent=n, payoffs={
                1: Fraction(3 * (a == "a") + (c in "df") + (y == "r"), 3),
                2: Fraction(2 * (c in "ce") + (a == "b"), 5)})
            z += 1
        nodes[n] = NodeData(parent=0, players=(1, 2),
                            actions={1: ("a", "b"), 2: menu},
                            children=second)
    after_u = tuple(first[("U", y)] for y in "lr")
    for n in nodes:
        for i in (1, 2):
            members = after_u if i == 1 and n in after_u else (n,)
            info[(i, "G", n)] = InfoSet(i, "G", members)
    return Game((1, 2), {"G": nodes}, nodes, info)


def test_deviation_sets_met_at_simultaneous_nodes():
    g = simultaneous_deviation_game()
    assert validate_game(g).ok
    ctx = _contexts(g)[h(1, "G", (0,))]
    table = play_table(g, "G")
    met = [n for n, pairs in table.items() if len(pairs) == 2
           and any(j == 1 and p in ctx.dev for j, p in pairs)]
    assert len(ctx.dev) == 2 and len(met) == 3
    assert assert_matrices_match_reference(g) >= 3
    assert {i: set(s) for i, s in efr(g).surviving().items()} == \
        {i: set(s) for i, s in efr_oracle(g).items()}


@pytest.mark.parametrize("name", ["ex2_full", "bos_aware", "nature_coin"])
def test_efr_ignores_a_positive_affine_payoff_change(name):
    """Rescaling each player's payoffs by a fraction and shifting them
    changes the contexts' integer scales, not a round."""
    g = load(name)
    change = {i: (Fraction(2, 7 + i), Fraction(1, 3 + i)) for i in g.players}
    nodes = {n: replace(nd, payoffs={i: change[i][0] * x + change[i][1]
                                     for i, x in nd.payoffs.items()})
             for n, nd in g.nodes.items()}
    scaled = Game(g.players, g.trees, nodes, g.info)
    assert efr(scaled).rounds == efr(g).rounds
    assert assert_matrices_match_reference(scaled)


# ---------------------------------------------------------------------------
# known answers from theory

# pure profiles above which a generated game is not drawn into a corpus
THEORY_PROFILE_CAP = 20000


def backward_induction_terminal(g):
    """The terminal of the only tree that backward induction picks; every
    decision node has one mover, and randgen's payoffs are distinct per
    player, so each maximum is unique."""
    t = g.tbar

    def solve(n):
        kids = g.children_in(t, n)
        if not kids:
            return n
        [i] = g.nodes[n].players
        return max(map(solve, kids.values()),
                   key=lambda z: g.nodes[z].payoffs[i])
    return solve(g.root(t))


def test_efr_plays_backward_induction_in_perfect_information():
    """In a generic one-tree game of perfect information, every profile of
    EFR survivors plays to the backward-induction terminal (Battigalli
    1997, JET 74)."""
    checked = 0
    for players, depth, branching, seed in itertools.product(
            (2, 3), (2, 3, 4), (2, 3), range(30)):
        g = generate_random_game(seed=seed, players=players, depth=depth,
                                 branching=branching, tree_count=1)
        assert len(g.trees) == 1 and not has_nature(g)
        if math.prod(len(strategy_vectors(g, i)) for i in g.players) \
                > THEORY_PROFILE_CAP:
            continue
        z = backward_induction_terminal(g)
        surv = efr(g).surviving()
        for combo in itertools.product(*(surv[i] for i in g.players)):
            path = realized_tbar_path(g, dict(zip(g.players, combo)))
            assert path[-1] == z, (players, depth, branching, seed)
        checked += 1
    assert checked >= 300


def one_shot_game(menus, pay):
    """One tree whose root is a simultaneous move of every player over the
    given menus, each profile leading to a terminal with the payoffs
    pay(profile); every set, the terminal ones too, is a singleton, so
    each player observes the whole play."""
    players = tuple(range(1, len(menus) + 1))
    nodes, children = {}, {}
    for n, prof in enumerate(itertools.product(*menus), start=1):
        children[prof] = n
        nodes[n] = NodeData(parent=0, payoffs=dict(zip(players, map(
            Fraction, pay(prof)))))
    nodes[0] = NodeData(parent=None, players=players,
                        actions=dict(zip(players, map(tuple, menus))),
                        children=children)
    info = {(i, "G", n): InfoSet(i, "G", (n,)) for i in players for n in nodes}
    return Game(players, {"G": nodes}, nodes, info)


def deviate(prof, i, b):
    """The action profile prof with position i's action replaced by b."""
    return prof[:i] + (b,) + prof[i + 1:]


def strictly_undominated(menus, u):
    """Per position, its actions that survive iterated strict dominance by
    pure actions; u(i, prof) is the payoff at position i."""
    alive = [list(m) for m in menus]
    while True:
        new = []
        for i, mine in enumerate(alive):
            against = list(itertools.product(*(
                m if j != i else [None] for j, m in enumerate(alive))))
            row = {a: [u(i, deviate(p, i, a)) for p in against] for a in mine}
            new.append([a for a in mine if not any(
                all(map(gt, row[b], row[a])) for b in mine)])
        if new == alive:
            return alive
        alive = new


def test_one_shot_games_give_nash_and_dominance():
    """In a one-shot game with observed play, a pure profile is
    self-confirming exactly when it is a Nash equilibrium (Fudenberg &
    Levine 1993, Econometrica 61); every EFR survivor survives iterated
    strict dominance by pure strategies, and every best reply to a point
    belief on the opponents' survivors is a survivor (Pearce 1984).  With
    two players, ``construct_sce_efr`` holds and returns a Nash equilibrium
    of the whole game: no pure deviation earns more than its kernels."""
    rng = random.Random(17)
    nash_seen = constructed = 0
    for k in range(300):
        n = 2 if k % 3 else 3
        menus = [["a%d_%d" % (i, x) for x in range(rng.randint(2, 3))]
                 for i in range(1, n + 1)]
        table = {prof: [rng.randint(-3, 3) for _ in menus]
                 for prof in itertools.product(*menus)}
        g = one_shot_game(menus, table.__getitem__)
        assert validate_game(g).ok
        root = [h(i, "G", (0,)) for i in g.players]

        def u(i, prof):
            return table[prof][i]

        def best_replies(i, prof):
            pay = {b: u(i, deviate(prof, i, b)) for b in menus[i]}
            return {b for b, x in pay.items() if x == max(pay.values())}

        for combo in itertools.product(*(pure_strategies(g, i)
                                         for i in g.players)):
            prof = tuple(s.action_at(x) for s, x in zip(combo, root))
            nash = all(prof[i] in best_replies(i, prof) for i in range(n))
            nash_seen += nash
            assert check_sce_pure(g, dict(zip(g.players, combo))).holds \
                == nash, (k, prof)
        surv = efr(g).surviving()
        alive = [actions(surv[i], x) for i, x in zip(g.players, root)]
        undominated = strictly_undominated(menus, u)
        for i in range(n):
            assert alive[i] <= set(undominated[i]), (k, i)
            for prof in itertools.product(*(
                    alive[j] if j != i else [None] for j in range(n))):
                assert best_replies(i, prof) <= alive[i], (k, i, prof)
        if n == 2:
            pi, verdict = construct_sce_efr(g)
            assert verdict.holds, k
            mix = [dict(pi[i].as_dict()[x]) for i, x in zip(g.players, root)]

            def value(i, dists):
                return sum(p * q * u(i, (a, b)) for a, p in dists[0].items()
                           for b, q in dists[1].items())

            for i in range(2):
                for b in menus[i]:
                    dev = [{b: 1} if j == i else d for j, d in enumerate(mix)]
                    assert value(i, dev) <= value(i, mix), (k, i, b)
            constructed += 1
    assert nash_seen >= 400 and constructed == 200


# ---------------------------------------------------------------------------
# closed-form games at a size where no product over pure strategies fits


def chain(d):
    """One player moves at nodes 0..d-1 in a row, stopping (``s<k>``) or
    continuing (``c<k>``) at node k, an action name of its own at each
    node.  Stopping at k pays k and continuing at the last node pays d, at
    node 2d, the unique best terminal."""
    nodes = {}
    for k in range(d):
        stop, cont = "s%d" % k, "c%d" % k
        nodes[k] = NodeData(parent=k - 1 if k else None, players=(1,),
                            actions={1: (stop, cont)},
                            children={(stop,): d + k,
                                      (cont,): k + 1 if k + 1 < d else 2 * d})
        nodes[d + k] = NodeData(parent=k, payoffs={1: Fraction(k)})
    nodes[2 * d] = NodeData(parent=d - 1, payoffs={1: Fraction(d)})
    info = {(1, "G", n): InfoSet(1, "G", (n,)) for n in nodes}
    return Game((1,), {"G": nodes}, nodes, info)


def centipede(d):
    """Rosenthal's (1981) centipede with d nodes, d even: player 1 moves at
    the even nodes and player 2 at the odd ones, taking (``t<k>``) or
    passing (``p<k>``) at node k.  Taking at k pays the mover k + 2 and the
    other k; passing at the last node pays its mover d and the other d + 2.
    Each player's payoffs differ at every terminal."""
    nodes = {}
    for k in range(d):
        take, move = "t%d" % k, "p%d" % k
        i, other = (1, 2) if k % 2 == 0 else (2, 1)
        nodes[k] = NodeData(parent=k - 1 if k else None, players=(i,),
                            actions={i: (take, move)},
                            children={(take,): d + k,
                                      (move,): k + 1 if k + 1 < d else 2 * d})
        nodes[d + k] = NodeData(parent=k, payoffs={
            i: Fraction(k + 2), other: Fraction(k)})
    nodes[2 * d] = NodeData(parent=d - 1, payoffs={
        2: Fraction(d), 1: Fraction(d + 2)})
    info = {(i, "G", n): InfoSet(i, "G", (n,)) for i in (1, 2) for n in nodes}
    return Game((1, 2), {"G": nodes}, nodes, info)


def run_cli(g, argv, tmp_path, capsys):
    """``ugt`` with argv and then the path of g's document: its status and
    standard output."""
    path = tmp_path / "scaled.game.json"
    path.write_text(serialize_game(g))
    status = main([*argv, str(path)])
    return status, capsys.readouterr().out


def test_chain_keeps_one_class_that_plays_to_the_end(deadline, tmp_path,
                                                     capsys):
    """2^60 pure strategies in 61 realization classes; only continuing
    everywhere is optimal at every node."""
    d = 60
    g = chain(d)
    assert validate_game(g).ok
    assert len(_classes(g, 1).first) == d + 1
    [s] = efr(g).surviving()[1]
    assert realized_tbar_path(g, {1: s}) == [*range(d), 2 * d]
    assert len(build_supergame(g, "efr").states) == 1
    status, out = run_cli(g, ["--json", "efr"], tmp_path, capsys)
    assert status == 0
    [only] = json.loads(out)["surviving"]["1"]
    assert [c["action"] for c in only["choices"]] == \
        ["c%d" % k for k in range(d)]


def test_centipede_player_1_takes_at_the_root(deadline, tmp_path, capsys):
    """2^20 pure strategies per player in 21 realization classes; every
    surviving class of player 1 takes at the root (Battigalli 1997, JET
    74), and the root's take is the class of 2^19 strategies."""
    d = 40
    g = centipede(d)
    assert validate_game(g).ok
    for i in g.players:
        assert len(_classes(g, i).first) == d // 2 + 1
    table, alive = _classes(g, 1), _class_rounds(g)[-1][1]
    root = set_positions(g, 1)[h(1, "G", (0,))]
    assert alive and all(table.first[c][root] == "t0" for c in alive)
    assert len(build_supergame(g, "efr").states) == 1
    # the text form: the JSON one would list all 2^20 survivors
    status, out = run_cli(g, ["efr"], tmp_path, capsys)
    assert status == 0
    assert "player 1: %d surviving" % 2 ** (d // 2 - 1) in out.splitlines()


def test_centipede_sce_takes_at_the_root(deadline, tmp_path, capsys):
    """The constructed self-confirming equilibrium in EFR conjectures holds
    on centipede(40), where each player has 2^20 pure strategies, and
    player 1 takes at the root; the CLI finishes too."""
    g = centipede(40)
    pi, verdict = construct_sce_efr(g)
    assert verdict.holds
    assert pi[1].prob(h(1, "G", (0,)), "t0") == 1
    status, out = run_cli(g, ["--json", "construct-sce"], tmp_path, capsys)
    assert status == 0 and json.loads(out)["holds"]


def test_chain_sce_plays_to_the_end(deadline):
    """On chain(60), with 2^60 pure strategies, the constructed
    equilibrium holds and reaches the unique best terminal, node 2d, for
    sure."""
    d = 60
    g = chain(d)
    pi, verdict = construct_sce_efr(g)
    assert verdict.holds
    assert reach_probability(g, pi, ("G", 2 * d)) == 1


# chain(100) under a recursion limit of 60: no engine routine may recurse on
# the game's depth
LOW_LIMIT = """
import json, sys
from fractions import Fraction
from test_efr import chain
from ugt.discovery import build_supergame, run_discovery
from ugt.equilibrium import construct_sce_efr
from ugt.rationalizability import efr
from ugt.strategies import behavior_payoff, realized_tbar_path

g, short = chain(100), chain(50)
sys.setrecursionlimit(60)
[s] = efr(g).surviving()[1]
uniform = tuple({a: Fraction(1, 2) for a in g.set_actions(h)}
                for h in g.decision_sets(1))
print(json.dumps({
    "path": realized_tbar_path(g, {1: s}),
    "supergame": len(build_supergame(g, "efr").states),
    "discovery": len(run_discovery(g, "efr", seed=0).states),
    "payoff": str(behavior_payoff(g, 1, "G", {1: uniform})),
    "sce": construct_sce_efr(short)[1].holds}))
"""


def test_deep_chain_needs_no_recursion(deadline):
    """Under a recursion limit of 60, the engine lists chain(100)'s one
    survivor, builds its EFR supergame, runs discovery and pays uniform
    kernels, and an equilibrium is constructed on chain(50)."""
    src = os.path.dirname(os.path.dirname(rationalizability.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.path.dirname(__file__)]))
    run = subprocess.run([sys.executable, "-c", LOW_LIMIT],
                         capture_output=True, env=env)
    assert run.returncode == 0, run.stderr.decode()
    d = 100
    # stopping at k pays k with probability 2^-(k+1); the end pays d
    pay = sum(Fraction(k, 2 ** (k + 1)) for k in range(d)) \
        + Fraction(d, 2 ** d)
    assert json.loads(run.stdout) == {
        "path": [*range(d), 2 * d], "supergame": 1, "discovery": 1,
        "payoff": str(pay), "sce": True}
