import random
from fractions import Fraction

import pytest

from ugt.core import InfoSet, NATURE, t_partial_game
from ugt.fixtures import FIXTURES, load
from ugt.randgen import generate_random_game
from ugt.reference import (
    BeliefSystem,
    check_belief_system,
    conditioned_belief,
    expected_payoff_at,
    is_rational_at,
    occurring_info_sets,
    occurs,
    path_info_sets,
    point_belief,
    restrict_strategy,
)
from ugt.strategies import (
    BehaviorStrategy,
    MixedStrategy,
    PureStrategy,
    acting_players,
    behavior_payoff,
    deviation_sets,
    kernel_vector,
    kuhn_convert,
    opposing_profiles,
    pure_strategies,
    reach_probability,
    reaches,
    realization_equivalent,
    realized_tbar_path,
    strategy_vectors,
    vector_strategy,
)

F = Fraction


def strat(g, i, mapping):
    return PureStrategy.make(i, mapping)


def ex1_profile():
    """Player 1 plays l1; player 2 plays m2 when aware, r2 when not."""
    g = load("ex1_initial")
    h1 = InfoSet(1, "T", (0,))
    s1 = strat(g, 1, {h1: "l1"})
    s2 = strat(g, 2, {InfoSet(2, "Tbar", (1,)): "m2",
                      InfoSet(2, "T", (1,)): "r2"})
    return g, s1, s2


def test_pure_strategy_enumeration_counts():
    g = load("ex1_initial")
    assert len(pure_strategies(g, 1)) == 2
    assert len(pure_strategies(g, 2)) == 6
    rep = load("bos_repeated")
    assert len(pure_strategies(rep, 1)) == 2 ** 11
    assert len(pure_strategies(rep, 2)) == 2 ** 4


def test_pure_strategies_of_unknown_player():
    g = load("ex1_initial")
    with pytest.raises(ValueError):
        pure_strategies(g, 7)
    # nature is valid in every game: one empty strategy where it never moves
    assert pure_strategies(g, NATURE) == [PureStrategy(NATURE, ())]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_vector_strategy_is_one_maker_per_player(name):
    g = load(name)
    for i in acting_players(g):
        make = vector_strategy(g, i)
        assert vector_strategy(g, i) is make
        sets = g.decision_sets(i)
        vectors = strategy_vectors(g, i)
        made = list(map(make, vectors))
        assert made == pure_strategies(g, i)
        assert made == [PureStrategy.make(i, dict(zip(sets, v)))
                        for v in vectors]


def test_realization_equivalent_rejects_other_players_strategies():
    # a strategy of player 2 passed for player 1 used to leak a raw KeyError
    g = load("fig14")
    x, y = pure_strategies(g, 1)[0], pure_strategies(g, 2)[0]
    assert realization_equivalent(g, 1, x, x)
    for a, b in ((x, y), (y, x), (x, "junk")):
        with pytest.raises(ValueError):
            realization_equivalent(g, 1, a, b)


def test_nature_strategies_use_synthetic_sets():
    g = load("nature_coin")
    nats = pure_strategies(g, NATURE)
    assert len(nats) == 2
    assert all(h.player == NATURE for s in nats for h, _ in s.choices)


# -- reaches -----------------------------------------------------------------


def test_reaches_root_set_always():
    g, s1, s2 = ex1_profile()
    assert reaches(g, {1: s1, 2: s2}, InfoSet(1, "T", (0,)))


def test_reaches_follows_induced_actions_per_tree():
    g, s1, s2 = ex1_profile()
    s = {1: s1, 2: s2}
    # within T the induced play is (l1, r2)
    assert reaches(g, s, ("T", 5))
    assert not reaches(g, s, ("T", 3))
    # within Tbar the induced play is (l1, m2)
    assert reaches(g, s, ("Tbar", 4))
    assert not reaches(g, s, ("Tbar", 3))


def test_reaches_partial_profile_is_existential():
    g, s1, _ = ex1_profile()
    assert reaches(g, {1: s1}, ("Tbar", 3))
    assert reaches(g, {1: s1}, ("Tbar", 4))
    assert not reaches(g, {1: s1}, ("Tbar", 2))


def test_reaches_unknown_target_raises():
    g, s1, s2 = ex1_profile()
    with pytest.raises(KeyError):
        reaches(g, {1: s1, 2: s2}, ("T", 4))


# -- occurs ------------------------------------------------------------------


def test_occurs_lifts_to_upmost_tree():
    g, s1, s2 = ex1_profile()
    s = {1: s1, 2: s2}
    # the discovery terminal occurs, its T̄ path being realized
    assert occurs(g, s, InfoSet(1, "Tbar", (4,)))
    # node copies occur via the upmost-tree counterpart
    assert occurs(g, s, ("T", 1))
    assert not occurs(g, s, ("T", 5))
    assert reaches(g, s, ("T", 5))


def test_occurs_via_any_carrying_node():
    g, s1, s2 = ex1_profile()
    # player 2's poor-tree set occurs because the T̄ node after l1 carries it
    # in tree T and that node's T̄ copy is realized
    assert occurs(g, {1: s1, 2: s2}, InfoSet(2, "T", (1,)))


def test_occurs_equals_reaches_single_tree():
    g = load("bos_aware")
    for s1 in pure_strategies(g, 1):
        for s2 in pure_strategies(g, 2):
            s = {1: s1, 2: s2}
            for t in g.trees:
                for n in sorted(g.trees[t]):
                    assert occurs(g, s, (t, n)) == reaches(g, s, (t, n))


def test_occurring_info_sets_examples():
    g, s1, s2 = ex1_profile()
    s = {1: s1, 2: s2}
    occ = occurring_info_sets(g, s, 1, "occur")
    assert occ == {InfoSet(1, "T", (0,)), InfoSet(1, "Tbar", (4,))}
    reach = occurring_info_sets(g, s, 1, "reach")
    assert InfoSet(1, "T", (5,)) in reach
    assert InfoSet(1, "Tbar", (4,)) in reach
    with pytest.raises(ValueError):
        occurring_info_sets(g, s, 1, "observe")


def test_occurring_sets_repeated_game_out_path():
    g = load("bos_repeated")
    choices = {}
    for h in g.decision_sets(1):
        acts = g.set_actions(h)
        pick = next((a for a in acts if a in
                     ("out", "i2a", "B2a", "i2b", "B2b", "B1", "B2s", "i2s")),
                    acts[0])
        choices[h] = pick
    s1 = PureStrategy.make(1, choices)
    s2 = PureStrategy.make(2, {h: g.set_actions(h)[0]
                               for h in g.decision_sets(2)})
    occ = occurring_info_sets(g, {1: s1, 2: s2}, 2, "occur")
    assert InfoSet(2, "Tbar", (11,)) in occ
    assert InfoSet(2, "Tbar", (12,)) in occ
    assert realized_tbar_path(g, {1: s1, 2: s2}) == [0, 1, 11, 12]


def test_path_info_sets_are_upmost_anchored():
    g, s1, s2 = ex1_profile()
    assert path_info_sets(g, {1: s1, 2: s2}, 1) == \
        {InfoSet(1, "T", (0,)), InfoSet(1, "Tbar", (4,))}
    assert path_info_sets(g, {1: s1, 2: s2}, 2) == \
        {InfoSet(2, "Tbar", (1,)), InfoSet(2, "Tbar", (4,))}


# -- reach probabilities -----------------------------------------------------


def test_reach_probability_coin_flip():
    g, _, s2 = ex1_profile()
    h1 = InfoSet(1, "T", (0,))
    pi1 = BehaviorStrategy.make(1, {h1: {"l1": F(1, 2), "r1": F(1, 2)}})
    assert reach_probability(g, {1: pi1, 2: s2}, ("T", 1)) == F(1, 2)
    assert reach_probability(g, {1: pi1, 2: s2}, ("Tbar", 4)) == F(1, 2)
    assert reach_probability(g, {1: pi1, 2: s2}, ("T", 2)) == F(1, 2)
    with pytest.raises(ValueError):  # a kernel summing to 1/2
        BehaviorStrategy.make(1, {h1: {"l1": F(1, 2)}})


def test_reach_probability_degenerate_mixed_matches_reaches():
    g, s1, s2 = ex1_profile()
    sigma = MixedStrategy.degenerate(s1)
    for t in g.trees:
        for n in sorted(g.trees[t]):
            p = reach_probability(g, {1: sigma, 2: s2}, (t, n))
            assert p == (1 if reaches(g, {1: s1, 2: s2}, (t, n)) else 0)


def test_reach_probability_offpath_mixture_indistinguishable():
    g = load("ex1_initial")
    h1 = InfoSet(1, "T", (0,))
    a = PureStrategy.make(1, {h1: "r1"})
    # same on-path choice, only one strategy of the pair exists here, so
    # mix two identical plans with different bookkeeping via player 2
    hbar, ht = InfoSet(2, "Tbar", (1,)), InfoSet(2, "T", (1,))
    s2a = PureStrategy.make(2, {hbar: "m2", ht: "l2"})
    s2b = PureStrategy.make(2, {hbar: "m2", ht: "r2"})
    sigma2 = MixedStrategy.make({s2a: F(1, 3), s2b: F(2, 3)})
    for bad in ({s2a: F(1, 3), s2b: F(1, 3)}, {a: F(1, 2), s2a: F(1, 2)}):
        with pytest.raises(ValueError):  # a bad sum, then mixed owners
            MixedStrategy.make(bad)
    # player 1 ends the game; the off-path difference inside T never shows
    for n in (0, 2):
        assert reach_probability(g, {1: a, 2: sigma2}, ("Tbar", n)) == \
            reach_probability(g, {1: a, 2: s2a}, ("Tbar", n))


def test_reach_probability_with_nature():
    g = load("nature_coin")
    s0 = pure_strategies(g, NATURE)[0]
    assert s0.action_at(InfoSet(NATURE, "G", (0,))) == "heads"
    h = InfoSet(1, "G", (1, 2))
    pi = BehaviorStrategy.make(1, {h: {"u": F(1, 4), "d": F(3, 4)}})
    assert reach_probability(g, {0: s0, 1: pi}, ("G", 3)) == F(1, 4)
    assert reach_probability(g, {0: s0, 1: pi}, ("G", 5)) == 0


# -- Kuhn conversion ---------------------------------------------------------


def test_degenerate_mixed_to_behavior_is_pointwise():
    g, s1, _ = ex1_profile()
    pi = kuhn_convert(g, 1, MixedStrategy.degenerate(s1))
    assert pi.prob(InfoSet(1, "T", (0,)), "l1") == 1
    for x in (MixedStrategy.degenerate(s1), pi):
        with pytest.raises(ValueError):  # player 1's strategy as player 2's
            kuhn_convert(g, 2, x)


def test_kuhn_convert_refuses_a_pure_strategy():
    g, s1, _ = ex1_profile()
    with pytest.raises(ValueError, match="x is not a mixed or behavior"):
        kuhn_convert(g, 1, s1)


def test_uniform_behavior_two_chained_sets_quarter_weights():
    g = t_partial_game(load("ex2_full"), "Tbar")
    h_root = InfoSet(1, "Tbar", (0,))
    h_next = InfoSet(1, "Tbar", (3,))
    pi = BehaviorStrategy.make(1, {h_root: {"l1": F(1, 2), "r1": F(1, 2)},
                                   h_next: {"y1": F(1, 2), "z1": F(1, 2)}})
    sigma = kuhn_convert(g, 1, pi)
    assert len(sigma.weights) == 4
    assert all(w == F(1, 4) for _, w in sigma.weights)


@pytest.mark.parametrize("name,i", [
    ("ex1_initial", 1), ("ex1_initial", 2),
    ("ex2_initial", 1), ("ex2_initial", 2),
    ("ex2_rsc", 1), ("ex2_full", 2),
    ("bos_aware", 1), ("bos_aware", 2),
    ("bos_repeated", 2), ("bos_repeated_discovered", 2),
    ("fig14", 1), ("fig14", 2),
    ("matching_pennies", 1), ("trivial_single", 1), ("nature_coin", 1),
])
def test_kuhn_round_trip_preserves_reach(name, i):
    g = load(name)
    sets = g.decision_sets(i)
    # mostly deterministic kernels with one mixed set keeps supports small
    kernels = {}
    for k, h in enumerate(sets):
        acts = g.set_actions(h)
        if k == 0 and len(acts) > 1:
            kernels[h] = {acts[0]: F(1, 3), acts[1]: F(2, 3)}
        else:
            kernels[h] = {acts[-1]: F(1)}
    pi = BehaviorStrategy.make(i, kernels)
    sigma = kuhn_convert(g, i, pi)
    assert realization_equivalent(g, i, pi, sigma)
    back = kuhn_convert(g, i, sigma)
    assert realization_equivalent(g, i, sigma, back)


def test_mixed_to_behavior_uniform_on_unreached():
    g = load("ex1_initial")
    h1 = InfoSet(1, "T", (0,))
    sigma = MixedStrategy.degenerate(PureStrategy.make(1, {h1: "r1"}))
    # player 2 is someone else; convert a player-2 mixture that never
    # reaches its own sets?  Player 2's sets are always reachable by some
    # opponent play, so the uniform branch fires only for own exclusions:
    hbar, ht = InfoSet(2, "Tbar", (1,)), InfoSet(2, "T", (1,))
    s2 = PureStrategy.make(2, {hbar: "m2", ht: "l2"})
    pi2 = kuhn_convert(g, 2, MixedStrategy.degenerate(s2))
    assert pi2.prob(hbar, "m2") == 1
    assert pi2.prob(ht, "l2") == 1
    pi1 = kuhn_convert(g, 1, sigma)
    assert pi1.prob(h1, "r1") == 1


# -- expected payoff and rationality ----------------------------------------


def p2_profiles(g):
    return [{2: s} for s in pure_strategies(g, 2)]


def test_root_dominance_for_every_belief():
    g = load("ex1_initial")
    h1 = InfoSet(1, "T", (0,))
    l1 = PureStrategy.make(1, {h1: "l1"})
    r1 = PureStrategy.make(1, {h1: "r1"})
    for p in p2_profiles(g):
        belief = point_belief(p)
        assert expected_payoff_at(g, 1, h1, l1, belief) > \
            expected_payoff_at(g, 1, h1, r1, belief)


def test_terminal_set_payoff_is_constant():
    g = load("ex1_initial")
    h = InfoSet(1, "Tbar", (4,))
    s1 = PureStrategy.make(1, {InfoSet(1, "T", (0,)): "l1"})
    for p in p2_profiles(g):
        if reaches(g, p, h):
            assert expected_payoff_at(g, 1, h, s1, point_belief(p)) == 0


def test_belief_support_must_reach():
    g = load("ex1_initial")
    h = InfoSet(2, "Tbar", (1,))
    s2 = pure_strategies(g, 2)[0]
    bad = point_belief({1: PureStrategy.make(
        1, {InfoSet(1, "T", (0,)): "r1"})})
    with pytest.raises(ValueError):
        expected_payoff_at(g, 2, h, s2, bad)


def test_m2_is_uniquely_rational_when_aware():
    g = load("ex1_initial")
    h = InfoSet(2, "Tbar", (1,))
    reaching = point_belief({1: PureStrategy.make(
        1, {InfoSet(1, "T", (0,)): "l1"})})
    for s2 in pure_strategies(g, 2):
        rational = is_rational_at(g, 2, h, s2, reaching)
        assert rational == (s2.action_at(h) == "m2")


def test_rationality_vacuous_off_path():
    g = load("ex1_initial")
    h = InfoSet(2, "Tbar", (1,))
    # player 2 always reaches his own set, so test with player 1 instead
    h4 = InfoSet(1, "Tbar", (4,))
    r1 = PureStrategy.make(1, {InfoSet(1, "T", (0,)): "r1"})
    belief = point_belief({2: pure_strategies(g, 2)[0]})
    assert not reaches(g, {1: r1}, h4)
    assert is_rational_at(g, 1, h4, r1, belief)
    assert h.player == 2


def test_deviation_sets_cover_continuations():
    g = load("ex2_full")
    h = InfoSet(1, "Tbar", (0,))
    assert deviation_sets(g, 1, h) == [h, InfoSet(1, "Tbar", (3,))]
    h3 = InfoSet(1, "Tbar", (3,))
    assert deviation_sets(g, 1, h3) == [h3]


def test_rationality_ignores_unrelated_sets():
    # changing the strategy away from h and its successors cannot change
    # the verdict at h
    g = load("ex2_full")
    h = InfoSet(1, "Tbar", (3,))
    belief = point_belief({2: pure_strategies(g, 2)[0]})
    base = {x: g.set_actions(x)[0] for x in g.decision_sets(1)}
    s = PureStrategy.make(1, base)
    flipped = dict(base)
    flipped[InfoSet(1, "T", (0,))] = "r1"
    s_alt = PureStrategy.make(1, flipped)
    assert is_rational_at(g, 1, h, s, belief) == \
        is_rational_at(g, 1, h, s_alt, belief)


# -- belief systems ----------------------------------------------------------


def test_belief_conditioning_checked():
    g = t_partial_game(load("ex2_full"), "Tbar")
    h_root = InfoSet(1, "Tbar", (0,))
    h_next = InfoSet(1, "Tbar", (3,))
    s2_l = next(s for s in pure_strategies(g, 2)
                if s.action_at(InfoSet(2, "Tbar", (1,))) == "l2")
    s2_m = next(s for s in pure_strategies(g, 2)
                if s.action_at(InfoSet(2, "Tbar", (1,))) == "m2")
    good = BeliefSystem(1, {
        h_root: [({2: s2_l}, F(1, 2)), ({2: s2_m}, F(1, 2))],
        h_next: [({2: s2_l}, F(1))],
    })
    assert check_belief_system(g, good) == []
    # a genuine clash needs two distinct reaching profiles at the later set;
    # the coordination game supplies them
    ba = load("bos_aware")
    h0, h2 = InfoSet(1, "G", (0,)), InfoSet(1, "G", (2,))
    s2b, s2s = pure_strategies(ba, 2)
    clash = BeliefSystem(1, {
        h0: [({2: s2b}, F(1))],
        h2: [({2: s2s}, F(1))],
    })
    assert check_belief_system(ba, clash) != []
    agree = BeliefSystem(1, {
        h0: [({2: s2b}, F(1))],
        h2: [({2: s2b}, F(1))],
    })
    assert check_belief_system(ba, agree) == []


def test_conditioned_belief_none_on_zero_mass():
    g = load("ex1_initial")
    h = InfoSet(2, "Tbar", (1,))
    r1 = PureStrategy.make(1, {InfoSet(1, "T", (0,)): "r1"})
    assert conditioned_belief(g, [({1: r1}, F(1))], h) is None


def test_restrict_strategy_drops_unreachable_hosts():
    g = load("ex2_initial")
    s2 = pure_strategies(g, 2)[0]
    r = restrict_strategy(g, s2, "T")
    assert all(h.host == "T" for h, _ in r.choices)
    r2 = restrict_strategy(g, s2, "Tp")
    assert {h.host for h, _ in r2.choices} <= {"T", "Tp"}


def test_opposing_profiles_include_nature():
    g = load("nature_coin")
    opp = opposing_profiles(g, 1)
    assert len(opp) == 2
    assert all(set(p) == {NATURE} for p in opp)


# -- the kernel-vector payoff evaluator --------------------------------------


def random_behavior(g, j, rng):
    """Random kernels at every decision set of j, with point masses and
    zero-probability actions among them."""
    kernels = {}
    for h in g.decision_sets(j):
        acts = g.set_actions(h)
        weights = [rng.choice((0, 0, 1, 2)) for _ in acts]
        if not any(weights):
            weights[rng.randrange(len(acts))] = 1
        kernels[h] = {a: F(w, sum(weights)) for a, w in zip(acts, weights)}
    return BehaviorStrategy.make(j, kernels)


GENERATED = {"nature": dict(players=2, nature=True), "3p": dict(players=3)}


@pytest.mark.parametrize("case", sorted(FIXTURES) + [
    "%s#%d" % (shape, seed) for shape in GENERATED for seed in range(4)])
def test_behavior_payoff_matches_terminal_sum(case):
    # reference: the sum over the tree's terminals of payoff times reach
    # probability, with pure strategies mixed in as point masses
    name, _, seed = case.partition("#")
    g = load(name) if not seed else generate_random_game(
        seed=int(seed), depth=3, branching=2, tree_count=3, **GENERATED[name])
    rng = random.Random(case)
    for draw in range(3):
        pi = {j: random_behavior(g, j, rng) if draw == 0 or rng.random() < 0.7
              else rng.choice(pure_strategies(g, j))
              for j in acting_players(g)}
        kernels = {j: kernel_vector(g, x, j) for j, x in pi.items()}
        for t in g.trees:
            for i in g.players:
                assert behavior_payoff(g, i, t, kernels) == \
                    terminal_sum(g, i, t, pi), (t, i)
    # expected_payoff_at evaluates a behavior strategy against a belief
    # over pure opposing profiles the same way
    for i in g.players:
        b = random_behavior(g, i, rng)
        for h in g.decision_sets(i):
            opp = {j: rng.choice(pure_strategies(g, j))
                   for j in acting_players(g) if j != i}
            assert expected_payoff_at(g, i, h, b, point_belief(opp),
                                      validate=False) == \
                terminal_sum(g, i, h.host, {**opp, i: b}), h


def terminal_sum(g, i, t, pi):
    return sum((g.nodes[z].payoffs[i] * reach_probability(g, pi, (t, z))
                for z in g.trees[t] if g.terminal_in(t, z)), F(0))
