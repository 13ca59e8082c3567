import itertools
import math
from dataclasses import replace
from fractions import Fraction
from operator import eq, ge

import pytest

from ugt.core import NATURE, Game, InfoSet, NodeData, validate_game
from ugt.discovery import build_supergame
from ugt.fixtures import (
    bos_aware,
    bos_repeated,
    ex1_discovered,
    ex1_initial,
    ex2_full,
    ex2_initial,
    ex2_nonrat,
    ex2_rsc,
    fig14,
    load,
    matching_pennies,
    nature_coin,
    trivial_single,
)
from ugt.randgen import generate_random_game
from ugt.rationalizability import (
    OracleCapExceeded,
    _class_rounds,
    _classes,
    _contexts,
    best_reply_exists,
    efr,
    efr_oracle,
    efr_sets,
)
from ugt.strategies import (
    PureStrategy,
    acting_players,
    opposing_profiles,
    play_table,
    pure_strategies,
    reaches,
    realization_equivalent,
    realized_tbar_path,
    restrict_strategy,
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
    g = ex1_initial()
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
    g = ex1_discovered()
    r = efr_sets(g)
    assert len(r[1]) == 1
    assert r[1][0].action_at(h(1, "Tbar", (0,))) == "r1"
    assert r[1][0].action_at(h(1, "T", (0,))) == "l1"
    assert outcomes(r, g) == {(0, 2)}


def test_ex2_initial_outcome():
    g = ex2_initial()
    r = efr_sets(g)
    assert len(r[1]) == 1 and len(r[2]) == 1
    assert r[1][0].action_at(h(1, "Tpp", (0,))) == "l1"
    assert r[1][0].action_at(h(1, "Tpp", (3,))) == "z1"
    assert r[2][0].action_at(h(2, "Tp", (1,))) == "m2"
    assert r[2][0].action_at(h(2, "T", (1,))) == "r2"
    assert outcomes(r, g) == {(0, 1, 4)}


def test_ex2_rsc_root_action_flips():
    g = ex2_rsc()
    r = efr_sets(g)
    assert actions(r[1], h(1, "Tbar", (0,))) == {"r1"}
    assert actions(r[1], h(1, "Tp", (0,))) == {"r1"}
    assert actions(r[1], h(1, "Tpp", (0,))) == {"l1"}
    # the set after the own excluded action is never reached, so both
    # continuations survive there
    assert actions(r[1], h(1, "Tbar", (3,))) == {"y1", "z1"}
    assert len(r[1]) == 2 and len(r[2]) == 1
    assert outcomes(r, g) == {(0, 2)}


def test_ex2_nonrat_outcome():
    g = ex2_nonrat()
    r = efr_sets(g)
    assert len(r[1]) == 1 and len(r[2]) == 1
    assert r[2][0].action_at(h(2, "Tbar", (1,))) == "l2"
    assert r[2][0].action_at(h(2, "Tpp", (1,))) == "l2"
    assert r[2][0].action_at(h(2, "Tp", (1,))) == "m2"
    assert outcomes(r, g) == {(0, 1, 3, 7)}


def test_ex2_full_outcome():
    g = ex2_full()
    r = efr_sets(g)
    assert actions(r[1], h(1, "Tbar", (0,))) == {"l1"}
    assert actions(r[1], h(1, "Tp", (0,))) == {"r1"}
    assert actions(r[2], h(2, "Tbar", (1,))) == {"l2"}
    assert outcomes(r, g) == {(0, 1, 3, 7)}


def test_bos_aware_forward_induction_rounds():
    g = bos_aware()
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
    g = fig14()
    r = efr_sets(g)
    assert actions(r[1], h(1, "T1", (0,))) == {"M"}
    assert actions(r[2], h(2, "T3", (2,))) == {"b"}
    assert outcomes(r, g) == {(0, 2, 7)}


def test_bos_repeated_exit_strategy_survives():
    g = bos_repeated()
    r = efr_sets(g)
    assert any(s.action_at(h(1, "Tbar", (0,))) == "out"
               and s.action_at(h(1, "Tbar", (1,))) == "i2a"
               and s.action_at(h(1, "Tbar", (11,))) == "B2a"
               for s in r[1])
    assert "b2a" in actions(r[2], h(2, "Tbar", (11,)))


def test_trivial_and_matching_pennies():
    r = efr_sets(trivial_single())
    assert len(r[1]) == 1 and r[1][0].action_at(h(1, "G", (0,))) == "a"
    r = efr_sets(matching_pennies())
    assert len(r[1]) == 2 and len(r[2]) == 2  # everything is rationalizable


def test_nature_coin_both_guesses_survive():
    r = efr_sets(nature_coin())
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


@pytest.mark.parametrize("name", ["ex1_initial", "bos_aware", "ex2_rsc"])
def test_belief_constraint_levels(name):
    g = load(name)
    trace = efr(g)
    seen = {}
    for k, cons in enumerate(trace.belief_constraints):
        for hh, c in cons.items():
            assert 0 <= c.level <= k
            assert c.profiles
            assert c.level >= seen.get(hh, 0)  # supports never fall back
            seen[hh] = c.level


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
    for cons in trace.belief_constraints:
        for hh, c in cons.items():
            opponents = [j for j in acting_players(g) if j != c.player]
            for p in c.profiles:
                assert list(p) == opponents
                for j, s in p.items():
                    assert isinstance(s, PureStrategy) and s.owner == j
                    assert restrict_strategy(g, s, hh.host) == s
                assert reaches(g, p, hh)


# ---------------------------------------------------------------------------
# best_reply_exists as a standalone operation


def test_best_reply_exists_direct():
    g = ex1_initial()
    target = h(2, "Tbar", (1,))
    [s_l1] = [s for s in efr_sets(g)[1]]
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
    g = ex2_initial()
    first, later = h(1, "Tpp", (0,)), h(1, "Tpp", (3,))
    y1 = next(s for s in pure_strategies(g, 1)
              if s.action_at(first) == "l1" and s.action_at(later) == "y1")
    allowed = [p for p in ({2: s} for s in pure_strategies(g, 2))
               if reaches(g, p, later)]
    assert not best_reply_exists(g, 1, later, y1, allowed)
    assert best_reply_exists(g, 1, later, y1.replace({first: "r1"}), allowed)


def test_best_reply_exists_rejects_nonreaching_profile():
    g = ex1_initial()
    target = h(2, "Tbar", (1,))
    m2 = PureStrategy.make(2, {target: "m2", h(2, "T", (1,)): "r2"})
    r1 = PureStrategy.make(1, {h(1, "T", (0,)): "r1"})
    with pytest.raises(ValueError):
        best_reply_exists(g, 2, target, m2, [{1: r1}])


def test_best_reply_exists_rejects_malformed_strategies():
    g = ex1_initial()
    target = h(2, "Tbar", (1,))
    [s_l1] = efr_sets(g)[1]
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
    fast = efr_sets(g)
    slow = efr_oracle(g)
    for i in g.players:
        assert set(fast[i]) == set(slow[i]), name


def test_oracle_cap_enforced():
    with pytest.raises(OracleCapExceeded):
        efr_oracle(bos_repeated(), cap=100)
    with pytest.raises(OracleCapExceeded):
        efr_oracle(ex2_full(), cap=1000)


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


def assert_reads_stay_in_reached_positions(g):
    """Every play-out of every tree reads a real player's action vector only
    at positions its realization class reaches, the premise that lets one
    member decide for its class.  A walk down each tree fixes the actions
    read so far; the vectors that agree with them are exactly those with a
    play-out through the node.  Returns the number of reads checked."""
    checked = 0
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
                for v, c in table_j.of.items():
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
    checked = 0
    for rd in _class_rounds(g):
        for i in g.players:
            for hh in g.decision_sets(i):
                ctx = ctxs[hh]
                kept = ctx.columns(tables,
                                   tuple(rd[j] for j in ctx.opponents))
                members = [[(v, tables[j].first[c])
                            for v, c in tables[j].of.items() if c in rd[j]]
                           for j in ctx.opponents]
                expanded = [c for c in itertools.product(*(
                    dict.fromkeys(get(v) for v, _ in vs)
                    for get, vs in zip(ctx.opp_keys, members)))
                    if ctx.column_reaches(c)]
                rest = iter(expanded)
                assert all(c in rest for c in kept), hh
                # per opponent, one member per (key, first member's key)
                pairs = [dict(((get(v), get(f)), (v, f)) for v, f in vs[::-1])
                         for get, vs in zip(ctx.opp_keys, members)]
                for combo in itertools.product(*(p.values() for p in pairs)):
                    col = tuple(get(v) for get, (v, _) in
                                zip(ctx.opp_keys, combo))
                    first = tuple(get(f) for get, (_, f) in
                                  zip(ctx.opp_keys, combo))
                    assert ctx.column_reaches(col) == \
                        ctx.column_reaches(first), (hh, col)
                    checked += 1
                    if not ctx.column_reaches(col):
                        continue
                    assert first in kept, (hh, col)
                    for own in tables[i].first:
                        assert play(g, hh.host, {i: own, **{
                            j: v for j, (v, _) in zip(ctx.opponents, combo)
                        }}) == play(g, hh.host, {i: own, **{
                            j: f for j, (_, f) in zip(ctx.opponents, combo)
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


def test_best_reply_only_to_a_mixed_belief_survives():
    """Player 1's D is beaten under every point belief on player 2's L, M
    and R, yet is a best reply to (1/2, 1/2, 0); player 2 is indifferent."""
    pay = {"A": (3, 0, 0), "B": (0, 3, 0), "C": (0, 0, 3), "D": (2, 2, -10)}
    labels = {1: tuple(pay), 2: ("L", "M", "R")}
    nodes, children = {}, {}
    for n, (a, b) in enumerate(itertools.product(*labels.values()), start=1):
        children[(a, b)] = n
        nodes[n] = NodeData(parent=0, payoffs={
            1: Fraction(pay[a][labels[2].index(b)]), 2: Fraction(0)})
    nodes[0] = NodeData(parent=None, players=(1, 2), actions=labels,
                        children=children)
    info = {(i, "G", n): InfoSet(i, "G", (n,)) for i in (1, 2) for n in nodes}
    g = Game((1, 2), {"G": nodes}, nodes, info)
    root = h(1, "G", (0,))
    d = PureStrategy(1, ((root, "D"),))
    col = {b: {2: PureStrategy(2, ((h(2, "G", (0,)), b),))}
           for b in labels[2]}
    assert not any(best_reply_exists(g, 1, root, d, [p]) for p in col.values())
    assert best_reply_exists(g, 1, root, d, [col["L"], col["M"]])
    assert actions(efr_sets(g)[1], root) == set(pay)


def assert_rounds_match_per_strategy_reference(g):
    """Strategy s survives round k+1 exactly when it has a best reply,
    under round k's belief constraints, at every set it reaches."""
    trace = efr(g)
    shrunk = False
    for k, cons in enumerate(trace.belief_constraints):
        for i in g.players:
            want = [s for s in trace.rounds[k][i]
                    if all(best_reply_exists(g, i, hh, s, cons[hh].profiles)
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
    rows of Fraction payoffs are deduplicated as they are.  Returns each
    continuation's row index, the rows, the undominated rows and a verdict
    per row."""
    cells = [dict(ctx._profiles[c]) for c in ctx._allowed[aid]]
    w = list(v)
    index, at = {}, {}
    for combo in itertools.product(*ctx.menus):
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
    verdicts = [any(map(eq, r, col_max)) or ctx._lp(r, kept) for r in rows]
    return at, rows, kept, verdicts


def assert_matrices_match_reference(g):
    """Every matrix the engine can build for the first members of each
    player's classes, over every column set its rounds allowed, matches the
    reference: the same partition of continuations, rows and undominated
    rows equal up to the context's integer scale, and the same verdicts.
    Returns the number of matrices checked."""
    efr(g)
    ctxs = _contexts(g)
    checked = 0
    for i in g.players:
        for hh in g.decision_sets(i):
            ctx, t = ctxs[hh], hh.host
            scale = math.lcm(*(g.nodes[n].payoffs[i].denominator
                               for n in g.trees[t] if g.terminal_in(t, n)))
            seen = set()
            for v in _classes(g, i).first:
                for aid in list(ctx._allowed):
                    if not ctx.strategy_reaches(v) or \
                            (ctx.prefix_key(v), aid) in seen:
                        continue
                    seen.add((ctx.prefix_key(v), aid))
                    at, rows, _, kept, _ = ctx._matrix(v, aid)
                    want_at, want_rows, want_kept, verdicts = \
                        reference_matrix(g, ctx, v, aid)
                    assert at == want_at, hh
                    assert rows == [tuple(x * scale for x in r)
                                    for r in want_rows], hh
                    assert kept == [tuple(x * scale for x in r)
                                    for r in want_kept], hh
                    assert all(type(x) is int for r in rows for x in r)
                    for combo, r in at.items():
                        w = list(v)
                        for p, a in zip(ctx.dev, combo):
                            w[p] = a
                        assert ctx.optimal_for_some_belief(tuple(w), aid) \
                            == verdicts[r], (hh, combo)
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
    assert {i: set(s) for i, s in efr_sets(g).items()} == \
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
