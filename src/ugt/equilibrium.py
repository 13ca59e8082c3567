"""Self-confirming equilibrium checks, construction, and awareness
diagnostics.

A profile is self-confirming for a player when (0) everything they observe
along play fits inside one tree, (i) their strategy is rational at every
information set that occurs, and (ii) the supporting belief is confirmed:
it weights only opposing play consistent with what the player observes
during the game, and stays constant along the path.  Off the path the
conjecture is unconstrained.  The EFR variant additionally requires every
pure strategy equivalent to the played one to be extensive-form
rationalizable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import Game, InfoSet, NATURE, Player, TreeId
from .discovery import _path_classes
from .lp import solve_feasibility
from .rationalizability import _contexts, efr_sets
from .strategies import (
    BehaviorStrategy,
    MixedStrategy,
    ONE,
    Profile,
    PureProfile,
    PureStrategy,
    ZERO,
    _behavior_value,
    _key_set,
    _requirements,
    _sets_along,
    acting_players,
    action_vector,
    behavior_to_mixed,
    deviation_sets,
    has_nature,
    kuhn_convert,
    local_deviations,
    mixed_to_behavior,
    path_info_sets,
    play_out,
    profile_key,
    pure_strategies,
    reach_probability,
    reaches,
    restrict_profile,
    strategy_vectors,
)


@dataclass
class SceVerdict:
    holds: bool
    violated_condition: Optional[str] = None  # awareness | rationality |
    #                                    belief-confirmation | efr-support
    player: Optional[Player] = None
    witnesses: dict = field(default_factory=dict)
    detail: str = ""


def uniform_nature(g: Game) -> BehaviorStrategy:
    kernels = {}
    for h in g.decision_sets(NATURE):
        actions = g.set_actions(h)
        u = Fraction(1, len(actions))
        kernels[h] = {a: u for a in actions}
    return BehaviorStrategy.make(NATURE, kernels)


def _with_nature(g: Game, pi: Profile) -> dict:
    out = dict(pi)
    if has_nature(g) and NATURE not in out:
        out[NATURE] = uniform_nature(g)
    return out


# ---------------------------------------------------------------------------
# pure-profile check


def check_sce_pure(g: Game, s: PureProfile) -> SceVerdict:
    """Self-confirming equilibrium check for a pure profile.

    The profile must be total, nature's pure move included when the game
    has chance nodes.  Per player, the confirmed beliefs are the
    distributions over opposing pure profiles of the player's tree (nature
    conjectured alongside the opponents) that reach the terminal
    information set the play produces; one exact feasibility question asks
    whether some such belief makes every local deviation at every occurring
    decision set weakly unprofitable.
    """
    if has_nature(g):
        if not isinstance(s.get(NATURE), PureStrategy):
            raise ValueError("pure check needs nature's pure strategy")
    witnesses: dict[Player, list] = {}
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
        cand, seen = [], set()
        others = [j for j in acting_players(g) if j != i]
        for combo in itertools.product(*[pure_strategies(g, j)
                                         for j in others]):
            rp = restrict_profile(g, dict(zip(others, combo)), tstar)
            k = profile_key(rp)
            if k in seen:
                continue
            seen.add(k)
            if reaches(g, rp, ends[0]):
                cand.append(rp)
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


# ---------------------------------------------------------------------------
# behavior-profile check


def _behavior_deviations(g: Game, i: Player, h: InfoSet,
                         pi_i: BehaviorStrategy):
    sets = deviation_sets(g, i, h)
    menus = [g.set_actions(x) for x in sets]
    base = {x: dict(k) for x, k in pi_i.kernels}
    for combo in itertools.product(*menus):
        kernels = dict(base)
        for x, a in zip(sets, combo):
            kernels[x] = {a: ONE}
        yield BehaviorStrategy.make(i, kernels)


def _kernels_reach(g: Game, kernels: Mapping[Player, BehaviorStrategy],
                   h: InfoSet) -> bool:
    """Whether the given players' kernels give some node of h positive
    probability, the other players' moves permitting."""
    return any(all(kernels[j].prob(h2, a) > 0
                   for j, h2, a in _requirements(g, h.host, m) if j in kernels)
               for m in h.members)


def _confirmed_candidates(g: Game, i: Player, pi: Profile,
                          tstar: TreeId) -> list[Profile]:
    """Pure-kernel opposing profiles of the tstar-partial game that match
    the played kernels at every information set occurring inside it.

    Occurrence is anchored at tstar, the player's own view of the play:
    kernels consulted at positively reached tstar nodes are pinned to the
    true ones, kernels play never consults are free.  Mixing over these
    completions spans every confirmed conjecture, correlation included,
    and each completion reaches every occurring set.
    """
    sets: dict[Player, dict[InfoSet, bool]] = {}
    for n in sorted(g.trees[tstar]):
        if g.terminal_in(tstar, n):
            continue
        live = reach_probability(g, pi, (tstar, n)) > 0
        for j in g.nodes[n].players:
            if j == i:
                continue
            h = _key_set(g, j, tstar, n)
            by_set = sets.setdefault(j, {})
            by_set[h] = by_set.get(h, False) or live
    pinned: dict[Player, dict] = {}
    free: list[tuple[Player, InfoSet, list]] = []
    for j, by_set in sets.items():
        pj = _as_behavior(g, pi[j])
        kernels = dict(pj.kernels)
        pinned[j] = {}
        for h, live in by_set.items():
            if live:
                pinned[j][h] = dict(kernels[h])
            else:
                free.append((j, h, list(g.set_actions(h))))
    out = []
    for combo in itertools.product(*[menu for _, _, menu in free]):
        full = {j: dict(p) for j, p in pinned.items()}
        for (j, h, _), a in zip(free, combo):
            full[j][h] = {a: ONE}
        out.append({j: BehaviorStrategy.make(j, k) for j, k in full.items()})
    return out


def _path_components(g: Game, i: Player, pi: Profile) -> list[list]:
    """The player's occurring information sets grouped by shared paths of
    play: sets met along paths to a common end (and chains thereof) must
    share one constant confirmed belief."""
    tbar = g.tbar
    groups: list[set] = []
    for z in sorted(g.trees[tbar]):
        if not g.terminal_in(tbar, z) \
                or reach_probability(g, pi, (tbar, z)) == 0:
            continue
        ds = {g.info[(i, tbar, n)] for n in g.path_in(tbar, z)
              if (i, tbar, n) in g.info}
        hit = [grp for grp in groups if grp & ds]
        for grp in hit:
            groups.remove(grp)
            ds |= grp
        groups.append(ds)
    return [sorted(grp, key=g._set_sort_key) for grp in groups]


def check_sce_behavior(g: Game, pi: Profile) -> SceVerdict:
    """Self-confirming equilibrium check for a behavior profile.

    Confirmed beliefs fix the opposing kernels wherever the player's view
    of the play arrives with positive probability and are free elsewhere.
    Along each chain of occurring information sets the belief is constant,
    so it must weight only completions reaching the chain's ends of play
    while making every local deviation at the chain's decision sets weakly
    unprofitable; the search is exact over pure-kernel completions.
    """
    pi = _with_nature(g, pi)
    witnesses: dict[Player, list] = {}
    for i in g.players:
        occ = path_info_sets(g, pi, i)
        hosts = {x.host for x in occ}
        if len(hosts) != 1:
            return SceVerdict(False, "awareness", i,
                              detail="occurring hosts %s" % sorted(hosts))
        tstar = hosts.pop()
        pi_i = _as_behavior(g, pi[i])
        own = set(g.decision_sets(i))
        cand = _confirmed_candidates(g, i, pi, tstar)
        witnesses[i] = []
        for group in _path_components(g, i, pi):
            ends = [hh for hh in group
                    if g.terminal_in(hh.host, hh.members[0])]
            pool = [p for p in cand
                    if all(_kernels_reach(g, p, hz) for hz in ends)]
            if not pool:
                return SceVerdict(
                    False, "belief-confirmation", i,
                    detail="no confirmed belief reaches %s"
                    % " ".join(hz.label() for hz in ends))
            rows = []
            for hh in group:
                if hh not in own or not _kernels_reach(g, {i: pi_i}, hh):
                    continue
                base = [_behavior_value(g, i, tstar, {**p, i: pi_i})
                        for p in pool]
                for dev in _behavior_deviations(g, i, hh, pi_i):
                    vals = [_behavior_value(g, i, tstar, {**p, i: dev})
                            for p in pool]
                    rows.append([v - b for v, b in zip(vals, base)])
            n = len(pool)
            x = solve_feasibility(n, a_eq=[[ONE] * n], b_eq=[ONE],
                                  a_ub=rows, b_ub=[ZERO] * len(rows))
            if x is None:
                return SceVerdict(
                    False, "rationality", i,
                    detail="at %s" % " ".join(h.label() for h in group))
            witnesses[i].append(
                [(p, w) for p, w in zip(pool, x) if w > 0])
    return SceVerdict(True, witnesses=witnesses)


def _as_behavior(g: Game, x) -> BehaviorStrategy:
    if isinstance(x, BehaviorStrategy):
        return x
    if isinstance(x, MixedStrategy):
        return mixed_to_behavior(g, x)
    if isinstance(x, PureStrategy):
        return BehaviorStrategy.make(
            x.owner, {h: {a: ONE} for h, a in x.choices})
    raise TypeError("not a strategy: %r" % (x,))


def lift_pure(g: Game, s: PureProfile) -> dict[Player, BehaviorStrategy]:
    """Degenerate behavior profile playing exactly s."""
    return {j: _as_behavior(g, sj) for j, sj in s.items()}


# ---------------------------------------------------------------------------
# the EFR-conjecture refinement


def _realization_key(g: Game, i: Player, x, sets: Sequence[InfoSet]) -> tuple:
    """Signature whose equality characterizes realization equivalence of
    pure strategies: the actions at every own-reached decision set among
    ``sets``, player i's decision sets in order.  x is a PureStrategy or
    its action vector; the EFR set contexts decide the own reach."""
    ctxs = _contexts(g)
    v = action_vector(g, x, i) if isinstance(x, PureStrategy) else x
    return tuple((h, a) for h, a in zip(sets, v)
                 if ctxs[h].strategy_reaches(v))


def check_sce_efr(g: Game, pi: Profile) -> SceVerdict:
    """check_sce_behavior plus the rationalizability support condition:
    every pure strategy realization-equivalent to a support member of the
    canonical mixed conversion must survive extensive-form
    rationalizability."""
    base = check_sce_behavior(g, pi)
    if not base.holds:
        return base
    pi = _with_nature(g, pi)
    surviving = efr_sets(g)
    for i in g.players:
        sets = g.decision_sets(i)
        survivors = {action_vector(g, x, i) for x in surviving[i]}
        # realization classes with a surviving and with an eliminated member
        allowed, eliminated = set(), set()
        for v in strategy_vectors(g, i):
            (allowed if v in survivors else eliminated).add(
                _realization_key(g, i, v, sets))
        mixed = kuhn_convert(g, i, _as_behavior(g, pi[i]))
        for member in mixed.support():
            key = _realization_key(g, i, member, sets)
            if key not in allowed:
                return SceVerdict(False, "efr-support", i,
                                  detail="support member not rationalizable")
            if key in eliminated:
                return SceVerdict(False, "efr-support", i,
                                  detail="equivalent strategy eliminated")
    base.witnesses = dict(base.witnesses)
    return base


# ---------------------------------------------------------------------------
# construction via restricted Nash equilibrium


NASH_SUPPORT_CAP = 4


def is_rationalizable_self_confirming(g: Game) -> bool:
    """Every profile of rationalizable strategies keeps each player's
    occurring information sets inside one tree."""
    return all(len({h.host for h in _sets_along(g, path, i)}) == 1
               for path, _, _ in _path_classes(g, "efr") for i in g.players)


def _nature_weights(g: Game, nature: Optional[MixedStrategy]):
    if not has_nature(g):
        return [(None, ONE)]
    if nature is None:
        nature = behavior_to_mixed(g, uniform_nature(g))
    return list(nature.weights)


def construct_sce_efr(g: Game, nature: Optional[MixedStrategy] = None):
    """Build a self-confirming equilibrium in rationalizable conjectures.

    Requires a rationalizable self-confirming game.  Computes an exact Nash
    equilibrium of the richest tree's normal form restricted to the
    rationalizable strategies (pure scan, then support enumeration for two
    players), converts it to behavior form, and verifies the result.
    """
    if not is_rationalizable_self_confirming(g):
        raise ValueError("not a rationalizable self-confirming game")
    surviving = efr_sets(g)
    nat = _nature_weights(g, nature)
    players = list(g.players)

    def payoff(i, prof):
        total = ZERO
        for s0, w in nat:
            full = dict(prof)
            if s0 is not None:
                full[NATURE] = s0
            total += w * g.nodes[play_out(g, g.tbar, full)].payoffs[i]
        return total

    sigma = _restricted_nash(g, players, surviving, payoff)
    pi: dict[Player, BehaviorStrategy] = {
        i: kuhn_convert(g, i, sigma[i]) for i in players}
    if has_nature(g):
        pi[NATURE] = mixed_to_behavior(g, behavior_to_mixed(
            g, uniform_nature(g))) if nature is None \
            else mixed_to_behavior(g, nature)
    verdict = check_sce_efr(g, pi)
    return pi, verdict


def _restricted_nash(g, players, pools, payoff) -> dict[Player, MixedStrategy]:
    if len(players) == 1:
        [i] = players
        best = max(pools[i], key=lambda s: payoff(i, {i: s}))
        return {i: MixedStrategy.degenerate(best)}
    if len(players) != 2:
        raise NotImplementedError(
            "restricted Nash construction supports at most two players")
    a, b = players
    u = {(x, y): (payoff(a, {a: x, b: y}), payoff(b, {a: x, b: y}))
         for x in pools[a] for y in pools[b]}
    # pure scan
    for x in pools[a]:
        for y in pools[b]:
            if u[x, y][0] == max(u[x2, y][0] for x2 in pools[a]) and \
                    u[x, y][1] == max(u[x, y2][1] for y2 in pools[b]):
                return {a: MixedStrategy.degenerate(x),
                        b: MixedStrategy.degenerate(y)}
    # support enumeration, smallest supports first
    for ka in range(2, min(len(pools[a]), NASH_SUPPORT_CAP) + 1):
        for kb in range(2, min(len(pools[b]), NASH_SUPPORT_CAP) + 1):
            for sup_a in itertools.combinations(pools[a], ka):
                for sup_b in itertools.combinations(pools[b], kb):
                    wb = _equalizing(pools[a], sup_a, sup_b,
                                     lambda x, y: u[x, y][0])
                    if wb is None:
                        continue
                    wa = _equalizing(pools[b], sup_b, sup_a,
                                     lambda y, x: u[x, y][1])
                    if wa is None:
                        continue
                    return {a: MixedStrategy.make(dict(zip(sup_a, wa))),
                            b: MixedStrategy.make(dict(zip(sup_b, wb)))}
    raise RuntimeError("support enumeration exhausted without a Nash "
                       "equilibrium; this should be unreachable")


def _equalizing(own_pool, own_support, opp_support, value):
    """Weights over opp_support making every own_support strategy an exact
    best reply within own_pool; None when impossible."""
    n = len(opp_support)
    ref = own_support[0]
    a_eq = [[ONE] * n]
    b_eq = [ONE]
    for x in own_support[1:]:
        a_eq.append([value(x, y) - value(ref, y) for y in opp_support])
        b_eq.append(ZERO)
    a_ub = []
    for x in own_pool:
        if x in own_support:
            continue
        a_ub.append([value(x, y) - value(ref, y) for y in opp_support])
    return solve_feasibility(n, a_eq, b_eq, a_ub, [ZERO] * len(a_ub))


# ---------------------------------------------------------------------------
# awareness diagnostics


@dataclass
class AwarenessReport:
    common_constant: bool
    per_player_constant: dict[Player, bool]
    mutual_belief_constant: dict[Player, bool]


def awareness_diagnostics(g: Game, pi: Profile) -> AwarenessReport:
    """Constancy of awareness: globally, per player along play, and as
    seen from inside each player's own tree."""
    pi = _with_nature(g, pi)
    tbar = g.tbar
    all_hosts = {g.info[(i, tbar, n)].host
                 for i in g.players for n in sorted(g.trees[tbar])
                 if (i, tbar, n) in g.info}
    per_player: dict[Player, bool] = {}
    mutual: dict[Player, bool] = {}
    for i in g.players:
        occ = path_info_sets(g, pi, i)
        hosts = {x.host for x in occ}
        per_player[i] = len(hosts) == 1
        t_i = None
        for t in hosts:
            t_i = t if t_i is None else g.join(t_i, t)
        visited = [n for n in sorted(g.trees[t_i])
                   if reach_probability(g, pi, (t_i, n)) > 0]
        ok = True
        for j in g.players:
            if j == i:
                continue
            seen = {g.info[(j, t_i, n)].host for n in visited
                    if (j, t_i, n) in g.info}
            if len(seen) > 1:
                ok = False
        mutual[i] = ok
    return AwarenessReport(len(all_hosts) == 1, per_player, mutual)
