import gc
import itertools
import random
import weakref

import pytest

from test_classes import reference_table
from ugt.core import Game, InfoSet, NATURE, NodeData, validate_game
from ugt.discovery import (
    allowed_profiles, awareness_tree, build_supergame, discovered_version)
from ugt.equilibrium import (
    awareness_diagnostics,
    check_sce_behavior,
    check_sce_efr,
    check_sce_pure,
    construct_sce_efr,
    is_rationalizable_self_confirming,
    lift_pure,
)
from ugt.fixtures import FIXTURES, load
from ugt.gamedoc import parse_game, serialize_game
from ugt.lp import solve_feasibility
from ugt.randgen import generate_random_game, random_profile
from ugt.rationalizability import _class_rounds, _classes, efr
from ugt.reference import (
    expected_payoff_at,
    local_deviations,
    path_info_sets,
    restrict_strategy,
)
from ugt.strategies import (
    BehaviorStrategy,
    MixedStrategy,
    PureStrategy,
    ONE,
    ZERO,
    _checked_vectors,
    acting_players,
    action_vector,
    behavior_payoff,
    behavior_to_mixed,
    kernel_vector,
    kuhn_convert,
    mixed_to_behavior,
    opposing_profiles,
    play_out,
    play_table,
    pure_strategies,
    reaches,
    realization_equivalent,
    realized_tbar_path,
    strategy_vectors,
)
from ugt import equilibrium
from ugt.equilibrium import (
    SceVerdict,
    _normal_form,
    _sce_views,
    _positive_classes,
    uniform_nature,
)
from fractions import Fraction


def h(i, host, members):
    return InfoSet(i, host, members)


def pick(g, i, choices):
    for s in pure_strategies(g, i):
        if all(s.action_at(hh) == a for hh, a in choices.items()):
            return s
    raise AssertionError("no such strategy")


def uniform_at(g, i, sets):
    kernels = {}
    for hh in sets:
        actions = g.set_actions(hh)
        kernels[hh] = {a: Fraction(1, len(actions)) for a in actions}
    return BehaviorStrategy.make(i, kernels)


# ---------------------------------------------------------------------------
# pure-profile verdicts on the worked fixtures


def test_ex1_initial_rational_play_breaks_awareness():
    g = load("ex1_initial")
    s = {1: pick(g, 1, {h(1, "T", (0,)): "l1"}),
         2: pick(g, 2, {h(2, "Tbar", (1,)): "m2", h(2, "T", (1,)): "r2"})}
    v = check_sce_pure(g, s)
    assert not v.holds and v.violated_condition == "awareness" and v.player == 1


def test_ex1_initial_outside_option_is_irrational():
    g = load("ex1_initial")
    s = {1: pick(g, 1, {h(1, "T", (0,)): "r1"}),
         2: pick(g, 2, {h(2, "Tbar", (1,)): "m2", h(2, "T", (1,)): "r2"})}
    v = check_sce_pure(g, s)
    assert not v.holds and v.violated_condition == "rationality"
    assert v.player == 1


def test_ex1_discovered_outside_option_holds():
    g = load("ex1_discovered")
    s = {1: pick(g, 1, {h(1, "Tbar", (0,)): "r1"}),
         2: pick(g, 2, {h(2, "Tbar", (1,)): "m2"})}
    v = check_sce_pure(g, s)
    assert v.holds
    assert all(v.witnesses[i] for i in g.players)
    bad = {1: pick(g, 1, {h(1, "Tbar", (0,)): "l1"}), 2: s[2]}
    v = check_sce_pure(g, bad)
    assert not v.holds and v.violated_condition == "rationality"


def test_ex2_rsc_efr_profile_is_self_confirming():
    g = load("ex2_rsc")
    r = efr(g).surviving()
    for s1 in r[1]:
        assert check_sce_pure(g, {1: s1, 2: r[2][0]}).holds


def test_ex2_initial_efr_profile_breaks_awareness():
    g = load("ex2_initial")
    r = efr(g).surviving()
    v = check_sce_pure(g, {1: r[1][0], 2: r[2][0]})
    assert not v.holds and v.violated_condition == "awareness" and v.player == 1


def test_bos_aware_forward_induction_profile_holds():
    g = load("bos_aware")
    s = {1: pick(g, 1, {h(1, "G", (0,)): "in", h(1, "G", (2,)): "B"}),
         2: pick(g, 2, {h(2, "G", (2,)): "b"})}
    assert check_sce_pure(g, s).holds


def test_matching_pennies_has_no_pure_equilibrium():
    g = load("matching_pennies")
    for s1 in pure_strategies(g, 1):
        for s2 in pure_strategies(g, 2):
            v = check_sce_pure(g, {1: s1, 2: s2})
            assert not v.holds and v.violated_condition == "rationality"


def test_nature_coin_pure_profiles():
    g = load("nature_coin")
    target = h(1, "G", (1, 2))
    heads = pick(g, NATURE, {h(NATURE, "G", (0,)): "heads"})
    tails = pick(g, NATURE, {h(NATURE, "G", (0,)): "tails"})
    up = pick(g, 1, {target: "u"})
    down = pick(g, 1, {target: "d"})
    # the confirmed terminal belief reveals the realized coin, so only the
    # matching guess is rational against it
    assert check_sce_pure(g, {NATURE: heads, 1: up}).holds
    assert check_sce_pure(g, {NATURE: tails, 1: down}).holds
    assert not check_sce_pure(g, {NATURE: heads, 1: down}).holds
    assert not check_sce_pure(g, {NATURE: tails, 1: up}).holds
    with pytest.raises(ValueError):
        check_sce_pure(g, {1: up})
    # a behavior strategy is not pure, not even a point mass
    point = BehaviorStrategy.make(1, {target: {"u": ONE}})
    for bad in ({NATURE: uniform_nature(g), 1: up}, {NATURE: heads, 1: point}):
        with pytest.raises(ValueError):
            check_sce_pure(g, bad)


# ---------------------------------------------------------------------------
# behavior-profile verdicts


def test_matching_pennies_uniform_behavior_holds():
    g = load("matching_pennies")
    pi = {i: uniform_at(g, i, g.decision_sets(i)) for i in g.players}
    v = check_sce_behavior(g, pi)
    assert v.holds
    assert check_sce_efr(g, pi).holds


def test_ex1_initial_behavior_awareness_violation():
    g = load("ex1_initial")
    s = {1: pick(g, 1, {h(1, "T", (0,)): "l1"}),
         2: pick(g, 2, {h(2, "Tbar", (1,)): "m2", h(2, "T", (1,)): "r2"})}
    for check in (check_sce_behavior, check_sce_efr):
        v = check(g, lift_pure(g, s))
        assert not v.holds and v.violated_condition == "awareness"
        assert v.player == 1


def test_nature_defaults_to_uniform():
    g = load("nature_coin")
    [target] = g.decision_sets(1)
    for a in g.set_actions(target):
        own = {1: BehaviorStrategy.make(1, {target: {a: 1}})}
        explicit = {**own, NATURE: uniform_nature(g)}
        for check in (check_sce_behavior, check_sce_efr):
            assert check(g, own) == check(g, explicit)
        assert awareness_diagnostics(g, own) == \
            awareness_diagnostics(g, explicit)


def test_mixed_profiles_check_through_their_behavior_form():
    g = load("matching_pennies")
    pi = {i: uniform_at(g, i, g.decision_sets(i)) for i in g.players}
    mixed = {i: behavior_to_mixed(g, pi[i]) for i in g.players}
    assert len(mixed[1].support()) == 2
    for check in (check_sce_behavior, check_sce_efr):
        v = check(g, mixed)
        assert v.holds and v == check(g, pi)


def test_unavailable_actions_are_rejected():
    # an action the set does not offer used to pass silently as a kernel,
    # and to leak a raw KeyError from the mixed conversion
    g = load("matching_pennies")
    [h1] = g.decision_sets(1)
    two = uniform_at(g, 2, g.decision_sets(2))
    for kernel in ({"zz": 1}, {"zz": Fraction(1, 2), "H": Fraction(1, 2)}):
        bad = BehaviorStrategy.make(1, {h1: kernel})
        with pytest.raises(ValueError):
            kernel_vector(g, bad, 1)
        for check in (check_sce_behavior, check_sce_efr,
                      awareness_diagnostics):
            with pytest.raises(ValueError):
                check(g, {1: bad, 2: two})
    heads = pick(g, 1, {h1: "H"})
    for bad in (PureStrategy.make(1, {h1: "zz"}), PureStrategy.make(1, {})):
        sigma = MixedStrategy.make({heads: Fraction(1, 2),
                                    bad: Fraction(1, 2)})
        with pytest.raises(ValueError):
            mixed_to_behavior(g, sigma)
        with pytest.raises(ValueError):
            check_sce_behavior(g, {1: sigma, 2: two})
    g = load("nature_coin")
    [coin] = g.decision_sets(NATURE)
    for bad in (PureStrategy.make(NATURE, {coin: "edge"}),
                PureStrategy.make(NATURE, {})):
        with pytest.raises(ValueError):
            construct_sce_efr(g, MixedStrategy.degenerate(bad))


def test_confirmed_beliefs_respect_observed_play():
    # player 1 sees l2 being played at their second move inside their own
    # tree, so a conjecture making y1 optimal there is not confirmed
    g = load("ex2_initial")
    s = {1: pick(g, 1, {h(1, "Tpp", (0,)): "l1", h(1, "Tpp", (3,)): "y1"}),
         2: pick(g, 2, {h(2, "Tp", (1,)): "l2", h(2, "T", (1,)): "l2"})}
    for check in (check_sce_pure,
                  lambda gg, ss: check_sce_behavior(gg, lift_pure(gg, ss))):
        v = check(g, s)
        assert not v.holds and v.violated_condition == "rationality"
        assert v.player == 1


def test_off_path_conjectures_are_free():
    # the opponent's unreached choice is never observed, so r1 stays
    # rational under the conjecture that entering would have met m2, no
    # matter what the opponent would actually have played
    g = load("ex1_discovered")
    s1 = pick(g, 1, {h(1, "Tbar", (0,)): "r1"})
    for a in ("l2", "m2", "r2"):
        s = {1: s1, 2: pick(g, 2, {h(2, "Tbar", (1,)): a})}
        assert check_sce_pure(g, s).holds
        assert check_sce_behavior(g, lift_pure(g, s)).holds


def consistent_across_trees(g, s_j):
    """Whether a pure strategy reads the same action for a decision node no
    matter which tree's information set governs it.  The pure and behavior
    checks agree on such strategies; otherwise a player's modeled play can
    drift from the objective path, which only the behavior check pins down.
    Nature's sets are one synthetic singleton per tree and node.
    """
    tbar = g.tbar
    j = s_j.owner

    def at(t, n):
        return s_j.action_at(InfoSet(NATURE, t, (n,)) if j == NATURE
                             else g.info[(j, t, n)])

    for t in g.trees:
        if t == tbar:
            continue
        for n in sorted(g.trees[t]):
            if g.terminal_in(t, n) or j not in g.nodes[n].players:
                continue
            want = at(tbar, n)
            if want in g.actions_in(t, n, j) and at(t, n) != want:
                return False
    return True


def reference_check_sce_pure(g: Game, s) -> SceVerdict:
    """The pure check on the object world, kept as an independent
    reference: it enumerates and restricts every opposing pure strategy
    and plays deviations out node by node."""
    _checked_vectors(g, s, action_vector, _sce_views(g))
    witnesses: dict = {}
    for i in g.players:
        occ = sorted(path_info_sets(g, s, i), key=g._set_sort_key)
        hosts = {x.host for x in occ}
        if len(hosts) != 1:
            return SceVerdict(False, "awareness", i,
                              detail="occurring hosts %s" % sorted(hosts))
        tstar = hosts.pop()
        own = set(g.decision_sets(i))
        ends = [hh for hh in occ if g.terminal_in(hh.host, hh.members[0])]
        assert len(ends) == 1, "pure play must end in exactly one set"
        # restriction acts per player, so restricting and deduplicating
        # each pool first lists the restricted profiles in the order of
        # their first appearance in the product of the full pools
        others = [j for j in acting_players(g) if j != i]
        pools = [list(dict.fromkeys(restrict_strategy(g, x, tstar)
                                    for x in pure_strategies(g, j)))
                 for j in others]
        cand = [rp for rp in (dict(zip(others, combo))
                              for combo in itertools.product(*pools))
                if reaches(g, rp, ends[0])]
        assert cand, "the true opposing play always confirms itself"

        def value(strat, p):
            return g.nodes[play_out(g, tstar, {**p, i: strat})].payoffs[i]

        rows = []
        for hh in occ:
            if hh not in own or not reaches(g, {i: s[i]}, hh):
                continue
            base = [value(s[i], p) for p in cand]
            for dev in local_deviations(g, i, hh, s[i]):
                rows.append([value(dev, p) - b for p, b in zip(cand, base)])
        n = len(cand)
        x = solve_feasibility(n, a_eq=[[ONE] * n], b_eq=[ONE],
                              a_ub=rows, b_ub=[ZERO] * len(rows))
        if x is None:
            return SceVerdict(False, "rationality", i)
        witnesses[i] = [(p, w) for p, w in zip(cand, x) if w > 0]
    return SceVerdict(True, witnesses=witnesses)


def assert_agrees_with_reference(g, s, v):
    ref = reference_check_sce_pure(g, s)
    assert (v.holds, v.violated_condition, v.player, v.witnesses) == \
        (ref.holds, ref.violated_condition, ref.player, ref.witnesses), s


def fixture_profiles(g):
    """The first 60 pure profiles, in product order, whose real players'
    strategies are consistent across trees."""
    players = acting_players(g)
    pools = [pure_strategies(g, j) for j in players]
    profiles = (dict(zip(players, combo))
                for combo in itertools.product(*pools))
    return list(itertools.islice(
        (s for s in profiles
         if all(consistent_across_trees(g, s[j]) for j in g.players)), 60))


AGREEMENT_FIXTURES = [
    "ex1_initial", "ex1_discovered", "ex2_initial", "ex2_rsc", "ex2_nonrat",
    "ex2_full", "bos_aware", "matching_pennies", "trivial_single",
    "nature_coin", "fig14"]


@pytest.mark.parametrize("name", AGREEMENT_FIXTURES)
def test_pure_and_degenerate_behavior_checks_agree(name):
    g = load(name)
    profiles = fixture_profiles(g)
    for s in profiles:
        a = check_sce_pure(g, s)
        b = check_sce_behavior(g, lift_pure(g, s))
        assert a.holds == b.holds, s
        assert_agrees_with_reference(g, s, a)
    assert profiles


GENERATED = {"nature": dict(players=2, nature=True), "3p": dict(players=3)}


def generated_profiles(shape):
    """(game, profile) pairs of 20 random profiles on each of 10 generated
    games of the shape, kept when every acting player's strategy is
    consistent across trees: random nature plans that differ between
    trees split the pure and behavior checks legitimately."""
    out = []
    for seed in range(10):
        g = generate_random_game(seed=seed, depth=3, branching=2,
                                 tree_count=3, **GENERATED[shape])
        for k in range(20):
            s = random_profile(g, seed=k)
            if all(consistent_across_trees(g, s[j])
                   for j in acting_players(g)):
                out.append((g, s))
    return out


@pytest.mark.parametrize("shape", sorted(GENERATED))
def test_pure_and_degenerate_behavior_checks_agree_on_generated_games(shape):
    checked = failed = 0
    for g, s in generated_profiles(shape):
        checked += 1
        a = check_sce_pure(g, s)
        b = check_sce_behavior(g, lift_pure(g, s))
        assert a.holds == b.holds, s
        assert_agrees_with_reference(g, s, a)
        failed += not a.holds
    assert checked >= 40 and 0 < failed < checked


def assert_witnesses_hold(g, s, witnesses):
    """A holding verdict's witness beliefs, checked without the LP: each
    is a distribution over opposing profiles that reach the end of play,
    and no local deviation at an occurring decision set the player's own
    strategy reaches pays more against it."""
    for i in g.players:
        belief = witnesses[i]
        assert sum(w for _, w in belief) == 1 and all(w > 0 for _, w in belief)
        occ = path_info_sets(g, s, i)
        ends = [hh for hh in occ if g.terminal_in(hh.host, hh.members[0])]
        assert all(reaches(g, p, hz) for p, _ in belief for hz in ends)
        for hh in occ:
            if hh not in g.decision_sets(i) or not reaches(g, {i: s[i]}, hh):
                continue
            base = expected_payoff_at(g, i, hh, s[i], belief)
            for dev in local_deviations(g, i, hh, s[i]):
                assert expected_payoff_at(g, i, hh, dev, belief) <= base


def as_pure(x):
    """The pure strategy of a point-mass behavior strategy."""
    return PureStrategy.make(x.owner, {h: a for h, ((a, _),) in x.kernels})


def test_witnesses_check_without_the_lp():
    pairs = [(g, s) for g in map(load, AGREEMENT_FIXTURES)
             for s in fixture_profiles(g)]
    pairs += [pair for shape in sorted(GENERATED)
              for pair in generated_profiles(shape)]
    held = 0
    for g, s in pairs:
        v = check_sce_pure(g, s)
        if v.holds:
            held += 1
            assert_witnesses_hold(g, s, v.witnesses)
        b = check_sce_behavior(g, lift_pure(g, s))
        if b.holds:
            # one path of play, so one group per player
            assert_witnesses_hold(g, s, {
                i: [({j: as_pure(x) for j, x in p.items()}, w)
                    for p, w in group]
                for i, [group] in b.witnesses.items()})
    assert held >= 90


def reference_completions(fixed, free):
    """The full product that ``_fills`` prunes, kept as its reference: the
    kernel profiles that copy fixed and fill each free (player, position,
    menu) with one entry of its menu, in product order."""
    out = []
    for combo in itertools.product(*[menu for _, _, menu in free]):
        full = {j: list(v) for j, v in fixed.items()}
        for (j, p, _), d in zip(free, combo):
            full[j][p] = d
        out.append({j: tuple(v) for j, v in full.items()})
    return out


def is_subsequence(part, whole):
    """Whether part's entries occur in whole, in the same order."""
    rest = iter(whole)
    return all(any(x == y for y in rest) for x in part)


def test_fills_lose_no_play(monkeypatch):
    """Every fill the SCE checks list (opposing candidates and own
    deviations) is an entry of the full product, in its order, and every
    entry of the product plays tree t like some listed fill: equal
    payoffs for every player against each pure strategy of the players
    the fill leaves free, which are distinct only where t reads them."""
    calls = []
    fills = equilibrium._fills

    def record(g, t, fixed, free):
        out = fills(g, t, fixed, free)
        calls.append((g, t, fixed, free, out))
        return out

    monkeypatch.setattr(equilibrium, "_fills", record)
    games = [load(name) for name in sorted(FIXTURES)]
    games += [generate_random_game(seed=seed, depth=3, branching=2,
                                   tree_count=3, **shape)
              for shape in (dict(), *GENERATED.values()) for seed in range(4)]
    rng = random.Random(3)
    for g in games:
        players = acting_players(g)
        pools = {j: pure_strategies(g, j) for j in players}
        for _ in range(3):
            s = {j: rng.choice(pools[j]) for j in players}
            check_sce_pure(g, s)
            check_sce_behavior(g, lift_pure(g, s))
            check_sce_behavior(g, random_behavior(g, rng))
    pruned = mixed = 0
    for g, t, fixed, free, listed in calls:
        menus = [[{a: ONE} for a in g.set_actions(g.decision_sets(j)[p])]
                 for j, p in free]
        product = reference_completions(
            fixed, [(j, p, menu) for (j, p), menu in zip(free, menus)])
        assert is_subsequence(listed, product)
        reads: dict = {}
        for pairs in play_table(g, t).values():
            for j, p in pairs:
                reads.setdefault(j, set()).add(p)
        others = [j for j in acting_players(g)
                  if j not in fixed and j in reads]
        # one pure strategy per distinct choice at the positions t reads
        pools = [list({tuple(v[p] for p in sorted(reads[j])):
                       tuple({a: ONE} for a in v)
                       for v in strategy_vectors(g, j)}.values())
                 for j in others]
        opposing = [dict(zip(others, combo))
                    for combo in itertools.product(*pools)]

        def plays(k):
            return tuple(behavior_payoff(g, i, t, {**k, **o})
                         for o in opposing for i in g.players)

        kept = set(map(plays, listed))
        assert all(plays(k) in kept for k in product)
        pruned += len(listed) < len(product)
        mixed += any(len(d) > 1 for v in fixed.values() for d in v if d)
    assert pruned > 50 and mixed > 50, (pruned, mixed)


def test_inconsistent_strategy_splits_the_checks():
    # player 1 enters from the richest tree's root but the copy of that
    # choice inside player 2's poorer view opts out, so 2's confirmed
    # kernels cannot reach the end of play that actually occurs: the
    # behavior check rejects what the path-based pure check accepts
    g = load("ex2_rsc")
    s = {1: pick(g, 1, {h(1, "Tbar", (0,)): "r1", h(1, "Tp", (0,)): "l1",
                        h(1, "T", (0,)): "l1", h(1, "Tpp", (0,)): "l1"}),
         2: pick(g, 2, {h(2, "Tp", (1,)): "l2", h(2, "T", (1,)): "l2"})}
    assert check_sce_pure(g, s).holds
    v = check_sce_behavior(g, lift_pure(g, s))
    assert not v.holds
    assert v.violated_condition == "belief-confirmation" and v.player == 2


# ---------------------------------------------------------------------------
# the EFR refinement


def test_ex1_discovered_efr_profile_passes_refinement():
    g = load("ex1_discovered")
    r = efr(g).surviving()
    pi = lift_pure(g, {1: r[1][0], 2: r[2][0]})
    v = check_sce_efr(g, pi)
    assert v.holds
    assert check_sce_behavior(g, pi).holds  # refinement implies the base


def test_efr_support_violation_detected():
    # playing l2 in the poorer tree is behaviorally invisible here, so the
    # base check holds, but the support leaves the rationalizable set
    g = load("ex1_discovered")
    s = {1: pick(g, 1, {h(1, "Tbar", (0,)): "r1"}),
         2: pick(g, 2, {h(2, "Tbar", (1,)): "m2", h(2, "T", (1,)): "l2"})}
    pi = lift_pure(g, s)
    assert check_sce_behavior(g, pi).holds
    v = check_sce_efr(g, pi)
    assert not v.holds and v.violated_condition == "efr-support"
    assert v.player == 2


def lift_each(g, s):
    """lift_pure entry by entry, each under its strategy's owner, so that a
    foreign entry stays foreign."""
    return {j: lift_pure(g, {x.owner: x})[x.owner] for j, x in s.items()}


@pytest.mark.parametrize("check", ["pure", "behavior", "efr"])
def test_sce_checks_reject_incomplete_profiles(check):
    # each used to leak a raw KeyError from deep inside the check
    run = {"pure": check_sce_pure, "behavior": check_sce_behavior,
           "efr": check_sce_efr}[check]
    g = load("ex1_initial")
    s1, s2 = pure_strategies(g, 1)[0], pure_strategies(g, 2)[0]
    for s in ({1: s1}, {1: s1, 2: s1}, {1: s1, 2: PureStrategy.make(2, {})}):
        with pytest.raises(ValueError):
            run(g, s if check == "pure" else lift_each(g, s))
    # entries that are no strategy of their player, and for the pure check
    # a mixed strategy of its own
    mixed = {j: MixedStrategy.degenerate(x) for j, x in ((1, s1), (2, s2))}
    bad = [{1: "junk", 2: s2}, {1: s1, 2: mixed[1]}]
    if check == "pure":
        bad.append({1: s1, 2: mixed[2]})
    for s in bad:
        with pytest.raises(ValueError):
            run(g, s)
    # a set that no play can reach may be missing, except for the EFR
    # support condition, whose mixed conversion reads every set
    g = load("ex1_discovered")
    s = {1: PureStrategy.make(1, {h(1, "Tbar", (0,)): "r1"}),
         2: pick(g, 2, {h(2, "Tbar", (1,)): "m2"})}
    if check == "efr":
        with pytest.raises(ValueError):
            run(g, lift_pure(g, s))
    else:
        assert run(g, s if check == "pure" else lift_pure(g, s)).holds


def test_lift_pure_rejects_non_pure_entries():
    # the first two used to leak a raw AttributeError, and the third was
    # lifted under the wrong key
    g = load("ex1_initial")
    s1, s2 = pure_strategies(g, 1)[0], pure_strategies(g, 2)[0]
    for s in ({1: "junk", 2: s2}, {1: s1, 2: MixedStrategy.degenerate(s2)},
              {1: s1, 2: s1}):
        with pytest.raises(ValueError):
            lift_pure(g, s)
    lifted = lift_pure(g, {1: s1, 2: s2})
    assert {j: b.owner for j, b in lifted.items()} == {1: 1, 2: 2}


def test_awareness_diagnostics_rejects_incomplete_profiles():
    # used to leak a raw KeyError on a missing or foreign strategy
    g = load("ex1_initial")
    s1, s2 = pure_strategies(g, 1)[0], pure_strategies(g, 2)[0]
    for s in ({1: s1}, {2: s2}, {1: s1, 2: s1},
              {1: s1, 2: PureStrategy.make(2, {})}):
        for pi in (s, lift_each(g, s)):
            with pytest.raises(ValueError):
                awareness_diagnostics(g, pi)
    for pi in ({1: "junk", 2: s2}, {1: s1, 2: MixedStrategy.degenerate(s1)}):
        with pytest.raises(ValueError):
            awareness_diagnostics(g, pi)
    assert awareness_diagnostics(g, {1: s1, 2: s2}).per_player_constant[1]
    # a set that no play can reach may be missing
    g = load("ex1_discovered")
    s = {1: PureStrategy.make(1, {h(1, "Tbar", (0,)): "r1"}),
         2: pick(g, 2, {h(2, "Tbar", (1,)): "m2"})}
    assert awareness_diagnostics(g, lift_pure(g, s)).per_player_constant[1]


PROFILE_TAKERS = {
    "realized_tbar_path": realized_tbar_path,
    "discovered_version": discovered_version,
    "awareness_tree": lambda g, s: awareness_tree(g, s, 1),
    "check_sce_pure": check_sce_pure,
    "check_sce_behavior": check_sce_behavior,
    "check_sce_efr": check_sce_efr,
    "lift_pure": lift_pure,
    "awareness_diagnostics": awareness_diagnostics,
}


@pytest.mark.parametrize("game", ["ex1_initial", "nature_coin"])
@pytest.mark.parametrize("name", sorted(PROFILE_TAKERS))
@pytest.mark.parametrize("profile", ["junk", None, 7])
def test_profile_that_is_no_mapping_raises_type_error(game, name, profile):
    # each used to leak an AttributeError, or a TypeError from a stray
    # membership test on the argument
    with pytest.raises(TypeError, match="maps players to strategies"):
        PROFILE_TAKERS[name](load(game), profile)


def test_bos_repeated_discovered_equilibrium():
    g = load("bos_repeated_discovered")
    s1 = pick(g, 1, {h(1, "Tbar", (0,)): "in", h(1, "Tbar", (2,)): "B1",
                     h(1, "Tbar", (3, 4)): "i2b", h(1, "Tbar", (21, 23)): "B2b"})
    s2 = next(s for s in pure_strategies(g, 2)
              if realized_tbar_path(g, {1: s1, 2: s}) == [0, 2, 3, 21, 30])
    v = check_sce_efr(g, lift_pure(g, {1: s1, 2: s2}))
    assert v.holds


def vector_classes(g, i):
    """Each of player i's action vectors -> its class in ``_classes``, by
    the per-vector reference that ``test_classes`` checks the table
    against."""
    return dict(zip(strategy_vectors(g, i), reference_table(g, i)[0]))


def test_realization_key_matches_exhaustive_equivalence():
    # the class number is the realization key: equal exactly for
    # realization-equivalent strategies
    games = [load(name) for name in
             ("ex1_initial", "bos_aware", "nature_coin", "fig14")]
    fixtures = len(games)
    # generated games with nature and with three players, each player
    # checked where the exhaustive comparison stays small
    games += [generate_random_game(seed=seed, depth=2, branching=2,
                                   tree_count=3, **shape)
              for shape in GENERATED.values() for seed in range(12)]
    checked = 0
    for k, g in enumerate(games):
        for i in g.players:
            pool = pure_strategies(g, i)
            opposing = opposing_profiles(g, i)
            if k >= fixtures:
                if len(pool) ** 2 * len(opposing) > 2048:
                    continue
                checked += 1
            of = vector_classes(g, i)
            for x in pool:
                for y in pool:
                    same = of[action_vector(g, x, i)] == \
                        of[action_vector(g, y, i)]
                    assert same == realization_equivalent(g, i, x, y,
                                                          opposing)
    assert checked >= 40


def random_behavior(g, rng):
    """A behavior profile of every acting player, each kernel on a random
    nonempty subset of the actions."""
    pi = {}
    for j in acting_players(g):
        kernels = {}
        for hh in g.decision_sets(j):
            support = rng.sample(g.set_actions(hh),
                                 rng.randint(1, len(g.set_actions(hh))))
            weights = [rng.randint(1, 4) for _ in support]
            kernels[hh] = {a: Fraction(w, sum(weights))
                           for a, w in zip(support, weights)}
        pi[j] = BehaviorStrategy.make(j, kernels)
    return pi


def test_positive_classes_match_the_mixed_conversion():
    # reference: the classes of the support members of the canonical mixed
    # conversion, each looked up through its action vector
    games = [load(name) for name in sorted(FIXTURES)]
    games += [generate_random_game(seed=seed, depth=2, branching=2,
                                   tree_count=3, **shape)
              for shape in GENERATED.values() for seed in range(6)]
    rng = random.Random(5)
    efr_dead = 0
    for g in games:
        players = acting_players(g)
        pools = {j: pure_strategies(g, j) for j in players}
        survivors = efr(g).surviving()
        profiles = []
        for i in g.players:
            alive = set(survivors[i])
            dead = [x for x in pools[i] if x not in alive]
            for x in survivors[i][:2] + dead[:2]:
                s = {j: rng.choice(pools[j]) for j in players}
                s[i] = x
                profiles.append(lift_pure(g, s))
        profiles += [random_behavior(g, rng) for _ in range(3)]
        of = {i: vector_classes(g, i) for i in g.players}
        for pi in profiles:
            for i in g.players:
                want = {of[i][action_vector(g, x, i)]
                        for x in kuhn_convert(g, i, pi[i]).support()}
                got = _positive_classes(_classes(g, i),
                                        kernel_vector(g, pi[i], i))
                assert got == want
                efr_dead += not got <= _class_rounds(g)[-1][i]
    assert efr_dead > 0


# ---------------------------------------------------------------------------
# construction


def test_construct_requires_rationalizable_self_confirming_game():
    assert not is_rationalizable_self_confirming(load("ex1_initial"))
    assert not is_rationalizable_self_confirming(load("ex2_initial"))
    with pytest.raises(ValueError):
        construct_sce_efr(load("ex1_initial"))
    assert is_rationalizable_self_confirming(load("ex1_discovered"))
    assert is_rationalizable_self_confirming(load("ex2_rsc"))


def test_rationalizable_self_confirming_matches_its_definition():
    """On every state of each EFR supergame: a game is rationalizable
    self-confirming exactly when every profile of rationalizable
    strategies meets each player's sets along the realized richest-tree
    path in one host tree."""
    games = [load(n) for n in sorted(FIXTURES)
             if not n.startswith("bos_repeated")]
    for shape in (dict(), dict(nature=True), dict(players=3)):
        games += [generate_random_game(seed=seed, depth=3, branching=2,
                                       tree_count=3, **shape)
                  for seed in range(8)]
    verdicts = []
    for g0 in games:
        for g in build_supergame(g0, "efr").states:
            want = all(
                len({g.info[(i, g.tbar, n)].host
                     for n in realized_tbar_path(g, s)
                     if (i, g.tbar, n) in g.info}) == 1
                for s in allowed_profiles(g, "efr") for i in g.players)
            assert is_rationalizable_self_confirming(g) == want
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_construct_ex1_discovered_is_forced():
    g = load("ex1_discovered")
    pi, v = construct_sce_efr(g)
    assert v.holds
    assert pi[1].prob(h(1, "Tbar", (0,)), "r1") == 1
    assert pi[2].prob(h(2, "Tbar", (1,)), "m2") == 1


def test_construct_bos_aware_forward_induction():
    g = load("bos_aware")
    pi, v = construct_sce_efr(g)
    assert v.holds
    assert pi[1].prob(h(1, "G", (0,)), "in") == 1
    assert pi[1].prob(h(1, "G", (2,)), "B") == 1
    assert pi[2].prob(h(2, "G", (2,)), "b") == 1


@pytest.mark.parametrize("name", [
    "ex1_discovered", "ex2_rsc", "ex2_full", "bos_aware", "matching_pennies",
    "trivial_single", "fig14", "bos_repeated_discovered", "nature_coin"])
def test_construct_passes_its_own_check(name):
    g = load(name)
    pi, v = construct_sce_efr(g)
    assert v.holds, (name, v.violated_condition, v.player)


@pytest.mark.parametrize("name", [
    "ex1_discovered", "ex2_rsc", "ex2_full", "bos_aware", "matching_pennies",
    "trivial_single", "fig14", "bos_repeated_discovered", "nature_coin"])
def test_class_cells_pay_like_their_members(name):
    # the construction plays one cell per profile of surviving realization
    # classes, on the classes' first members; each profile of surviving
    # strategies must earn its cell's payoffs, weighted by nature's draws
    g = load(name)
    players = list(g.players)
    alive = _class_rounds(g)[-1]
    index = {i: {c: x for x, c in enumerate(sorted(alive[i]))}
             for i in players}
    pools = {i: [_classes(g, i).first[c] for c in sorted(alive[i])]
             for i in players}
    nature, draws = {}, [({}, Fraction(1))]
    if NATURE in acting_players(g):
        uniform = uniform_nature(g)
        nature = {NATURE: kernel_vector(g, uniform, NATURE)}
        draws = [({NATURE: s0}, w)
                 for s0, w in behavior_to_mixed(g, uniform).weights]
    u = _normal_form(g, pools, nature)
    survivors = efr(g).surviving()
    of = {i: vector_classes(g, i) for i in players}
    for combo in itertools.product(*[survivors[i] for i in players]):
        cell = tuple(index[i][of[i][action_vector(g, x, i)]]
                     for i, x in zip(players, combo))
        want = [Fraction(0)] * len(players)
        for s0, w in draws:
            z = play_out(g, g.tbar, {**s0, **dict(zip(players, combo))})
            for k, i in enumerate(players):
                want[k] += w * g.nodes[z].payoffs[i]
        assert u[cell] == tuple(want)


def test_construct_checks_its_nature_argument():
    g = load("nature_coin")
    # a real player's mixture used to leak a raw KeyError
    with pytest.raises(ValueError):
        construct_sce_efr(g, MixedStrategy.degenerate(pure_strategies(g, 1)[0]))
    # one given for a game where nature never moves used to be ignored
    coin = MixedStrategy.degenerate(pure_strategies(g, NATURE)[0])
    with pytest.raises(ValueError):
        construct_sce_efr(load("matching_pennies"), coin)
    pi, v = construct_sce_efr(g, coin)
    assert pi[NATURE] == mixed_to_behavior(g, coin)
    assert pi[NATURE].prob(h(NATURE, "G", (0,)), "heads") == 1
    assert v.holds


def test_construct_refuses_three_players_after_the_rsc_check(monkeypatch):
    def no_payoffs(*args):
        raise AssertionError("payoff work before the refusal")

    monkeypatch.setattr(equilibrium, "_normal_form", no_payoffs)
    games = [generate_random_game(seed=seed, depth=2, branching=2,
                                  tree_count=3, players=3)
             for seed in (1, 0)]
    assert not is_rationalizable_self_confirming(games[0])
    with pytest.raises(ValueError):
        construct_sce_efr(games[0])
    assert is_rationalizable_self_confirming(games[1])
    with pytest.raises(NotImplementedError):
        construct_sce_efr(games[1])


def test_construct_matching_pennies_mixes():
    g = load("matching_pennies")
    pi, v = construct_sce_efr(g)
    assert v.holds
    for i in g.players:
        [target] = g.decision_sets(i)
        for a in g.set_actions(target):
            assert pi[i].prob(target, a) == Fraction(1, 2)


def rock_paper_scissors_lizard_spock():
    """The zero-sum cyclic game on five actions, moved simultaneously in
    one tree: its only equilibrium mixes all five uniformly."""
    moves = ("rock", "paper", "scissors", "lizard", "spock")
    beats = {("scissors", "paper"), ("paper", "rock"), ("rock", "lizard"),
             ("lizard", "spock"), ("spock", "scissors"),
             ("scissors", "lizard"), ("lizard", "paper"), ("paper", "spock"),
             ("spock", "rock"), ("rock", "scissors")}
    labels = {i: tuple(a + str(i) for a in moves) for i in (1, 2)}
    nodes, children = {}, {}
    for n, (a, b) in enumerate(itertools.product(moves, moves), start=1):
        children[(a + "1", b + "2")] = n
        u = 1 if (a, b) in beats else -1 if (b, a) in beats else 0
        nodes[n] = NodeData(parent=0,
                            payoffs={1: Fraction(u), 2: Fraction(-u)})
    nodes[0] = NodeData(parent=None, players=(1, 2), actions=labels,
                        children=children)
    info = {(i, "G", n): InfoSet(i, "G", (n,)) for i in (1, 2) for n in nodes}
    return Game((1, 2), {"G": nodes}, nodes, info)


def test_construct_rock_paper_scissors_lizard_spock():
    g = rock_paper_scissors_lizard_spock()
    assert validate_game(g).ok
    assert all(len(efr(g).surviving()[i]) == 5 for i in g.players)
    pi, v = construct_sce_efr(g)
    assert v.holds
    for i in g.players:
        [target] = g.decision_sets(i)
        assert all(pi[i].prob(target, a) == Fraction(1, 5)
                   for a in g.set_actions(target))


def test_game_caches_die_with_the_game():
    # the EFR trace and the other caches live in the game's index, which
    # holds no reference back to the game, so with the cycle collector off
    # reference counting alone frees a dropped game
    text = serialize_game(load("ex2_rsc"))
    collecting = gc.isenabled()
    gc.disable()
    try:
        g = parse_game(text)
        assert efr(g) is efr(g)
        _, v = construct_sce_efr(g)
        assert v.holds
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        if collecting:
            gc.enable()
    # each parse pays for its own EFR: fresh instances share no trace
    g1, g2 = parse_game(text), parse_game(text)
    assert efr(g1) is not efr(g2)


# ---------------------------------------------------------------------------
# awareness diagnostics


def test_single_tree_games_are_fully_constant():
    for name in ("matching_pennies", "trivial_single", "bos_aware"):
        g = load(name)
        pi, _ = construct_sce_efr(g)
        rep = awareness_diagnostics(g, pi)
        assert rep.common_constant
        assert all(rep.per_player_constant.values())
        assert all(rep.mutual_belief_constant.values())


def test_fig14_mutual_belief_in_constancy_fails():
    g = load("fig14")
    s = {1: pick(g, 1, {h(1, "T1", (0,)): "M"}),
         2: pick(g, 2, {h(2, "T3", (2,)): "b"})}
    rep = awareness_diagnostics(g, lift_pure(g, s))
    assert not rep.common_constant
    assert rep.per_player_constant == {1: True, 2: True}
    assert rep.mutual_belief_constant == {1: False, 2: True}


def test_ex2_rsc_diagnostics():
    g = load("ex2_rsc")
    pi, _ = construct_sce_efr(g)
    rep = awareness_diagnostics(g, pi)
    assert not rep.common_constant
    assert rep.per_player_constant == {1: True, 2: True}
