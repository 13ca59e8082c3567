"""Self-confirming equilibrium checks, construction, and awareness
diagnostics.

A profile is self-confirming for a player when (0) everything they observe
along play fits inside one tree, (i) their strategy is rational at every
information set that occurs, and (ii) the supporting belief is confirmed:
it weights only opposing play consistent with what the player observes
during the game, and stays constant along the path.  Off the path the
conjecture is unconstrained.  One routine, ``_conditions``, checks all
three on kernel vectors.  The pure and the behavior checks differ only in
its candidate rule, the opposing profiles a confirmed belief may weight:
every restricted pure profile of the player's tree for a pure profile,
the completions of the observed kernels for a behavior profile.  The EFR
variant additionally requires every pure strategy equivalent to the
played one to be extensive-form rationalizable.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .core import (
    Game, InfoSet, NATURE, NodeId, Player, TreeId, hosts_reachable)
from .discovery import _path_classes
from .lp import solve_feasibility
from .rationalizability import _Classes, _classes, _surviving_classes
from .strategies import (
    BehaviorStrategy,
    MixedStrategy,
    ONE,
    Profile,
    PureProfile,
    PureStrategy,
    ZERO,
    _requirements,
    _sets_along,
    acting_players,
    behavior_payoff,
    deviation_sets,
    has_nature,
    kernel_vector,
    kuhn_convert,
    mixed_to_behavior,
    play_table,
    set_positions,
    vector_strategy,
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


# ---------------------------------------------------------------------------
# profile checks at entry


def _checked_vectors(g: Game, pi: Profile, vector) -> dict[Player, tuple]:
    """Every acting player's strategy in pi as a vector, made by
    ``vector(g, strategy, player)``.  ValueError unless each has a strategy
    of its own that chooses at every set the SCE checks can consult: its
    sets at the nodes of the richest tree and of each tree hosting an
    information set there.  Play never reaches the other sets, so they may
    be missing."""
    out = {}
    for j in acting_players(g):
        if j not in pi:
            raise ValueError("the profile has no strategy for player %d" % j)
        out[j] = vector(g, pi[j], j)
    tbar = g.tbar
    views = {tbar} | {h.host for (_, t, _), h in g.info.items() if t == tbar}
    for t in sorted(views, key=g.tree_sort_key):
        for pairs in play_table(g, t).values():
            for j, p in pairs:
                if out[j][p] is None:
                    raise ValueError("%r makes no choice at %s" % (
                        pi[j], g.decision_sets(j)[p].label()))
    return out


def _behavior_vectors(g: Game, pi: Profile) -> dict[Player, tuple]:
    """``_checked_vectors`` of the kernel vector of each strategy in pi;
    nature plays uniformly unless pi gives it a strategy."""
    if has_nature(g) and NATURE not in pi:
        pi = {**pi, NATURE: uniform_nature(g)}
    return _checked_vectors(g, pi, kernel_vector)


# ---------------------------------------------------------------------------
# the conditions, on kernel vectors
#
# Strategies are kernel vectors (``kernel_vector``), whose dicts hold only
# positive probabilities, so an action is possible when it is a key.


def _kernels_reach(g: Game, kernels: Mapping[Player, tuple], t: TreeId,
                   nodes) -> bool:
    """Whether the given players' kernels give some of the nodes of tree t
    positive probability, the other players' moves permitting."""
    return any(all(a in kernels[j][p]
                   for j, _, p, a in _requirements(g, t, n) if j in kernels)
               for n in nodes)


def _live_nodes(g: Game, kernels: Mapping[Player, tuple],
                t: TreeId) -> list[NodeId]:
    """The nodes of t the kernel profile reaches with positive
    probability, in order."""
    return [n for n in sorted(g.trees[t])
            if _kernels_reach(g, kernels, t, (n,))]


def _path_components(g: Game, i: Player, live: list[NodeId]) -> list[list]:
    """The player's occurring information sets grouped by shared paths of
    play: sets met along paths to a common end (and chains thereof) must
    share one constant confirmed belief.  live lists the positively
    reached nodes of the richest tree."""
    tbar = g.tbar
    groups: list[set] = []
    for z in live:
        if not g.terminal_in(tbar, z):
            continue
        ds = _sets_along(g, g.path_in(tbar, z), i)
        hit = [grp for grp in groups if grp & ds]
        for grp in hit:
            groups.remove(grp)
            ds |= grp
        groups.append(ds)
    return [sorted(grp, key=g._set_sort_key) for grp in groups]


def _point_masses(g: Game, h: InfoSet) -> list[dict]:
    """One point-mass kernel per action at h, shared by every vector that
    plays it."""
    return [{a: ONE} for a in g.set_actions(h)]


def _conditions(g: Game, kernels: Mapping[Player, tuple], candidates):
    """Conditions (0)-(ii) for every player, on checked kernel vectors.

    (0) The player's sets at the live richest-tree nodes share one host
    t*.  Per group of sets along shared paths (``_path_components``):
    (ii) some candidate reaches all the group's ends, where ``candidates(g,
    i, kernels, t*)`` lists the pure-kernel opposing profiles a confirmed
    belief may weight; (i) one belief over them makes every point-mass
    local deviation at the group's reached decision sets weakly
    unprofitable in t*.  The first failing verdict, else a holding one
    whose witnesses hold per player and group the belief's positive
    weights on restricted behavior profiles."""
    live = _live_nodes(g, kernels, g.tbar)
    weights: dict[Player, list] = {}
    for i in g.players:
        hosts = {x.host for x in _sets_along(g, live, i)}
        if len(hosts) != 1:
            return SceVerdict(False, "awareness", i,
                              detail="occurring hosts %s" % sorted(hosts))
        tstar = hosts.pop()
        pos = set_positions(g, i)
        cand = candidates(g, i, kernels, tstar)
        weights[i] = []
        for group in _path_components(g, i, live):
            ends = [hh for hh in group
                    if g.terminal_in(hh.host, hh.members[0])]
            pool = [p for p in cand
                    if all(_kernels_reach(g, p, hz.host, hz.members)
                           for hz in ends)]
            if not pool:
                return SceVerdict(
                    False, "belief-confirmation", i,
                    detail="no confirmed belief reaches %s"
                    % " ".join(hz.label() for hz in ends))

            def values(v):
                return [behavior_payoff(g, i, tstar, {**p, i: v})
                        for p in pool]

            base = values(kernels[i])
            rows = []
            for hh in group:
                if hh not in pos or not _kernels_reach(
                        g, {i: kernels[i]}, hh.host, hh.members):
                    continue
                # local deviations: point masses at the deviation sets
                for dev in _completions(
                        {i: kernels[i]}, [(i, pos[x], _point_masses(g, x))
                                          for x in deviation_sets(g, i, hh)]):
                    rows.append([v - b for v, b in
                                 zip(values(dev[i]), base)])
            n = len(pool)
            x = solve_feasibility(n, a_eq=[[ONE] * n], b_eq=[ONE],
                                  a_ub=rows, b_ub=[ZERO] * len(rows))
            if x is None:
                return SceVerdict(
                    False, "rationality", i,
                    detail="at %s" % " ".join(h.label() for h in group))
            weights[i].append([({j: _as_strategy(g, j, v)
                                 for j, v in p.items()}, w)
                                for p, w in zip(pool, x) if w > 0])
    return SceVerdict(True, witnesses=weights)


def _as_strategy(g: Game, j: Player, v: tuple) -> BehaviorStrategy:
    """The behavior strategy of a kernel vector, restricted to the
    positions it fills."""
    return BehaviorStrategy.make(j, {h: k for h, k in zip(
        g.decision_sets(j), v) if k is not None})


def _completions(fixed: Mapping[Player, list],
                 free: list[tuple[Player, int, list]]) -> list[dict]:
    """The kernel profiles that copy fixed and fill each free (player,
    position, menu) with one entry of its menu, in product order."""
    out = []
    for combo in itertools.product(*[menu for _, _, menu in free]):
        full = {j: list(v) for j, v in fixed.items()}
        for (j, p, _), d in zip(free, combo):
            full[j][p] = d
        out.append({j: tuple(v) for j, v in full.items()})
    return out


# ---------------------------------------------------------------------------
# pure-profile check


def _restricted_candidates(g: Game, i: Player, kernels, tstar: TreeId
                           ) -> list[dict[Player, tuple]]:
    """Every opposing pure profile of the tstar-partial game: point masses
    at the sets hosted in ``hosts_reachable(g, tstar)``, None elsewhere,
    listed as the distinct restrictions of the full pure profiles first
    appear in product order."""
    keep = set(hosts_reachable(g, tstar))
    others = {j: g.decision_sets(j) for j in acting_players(g) if j != i}
    return _completions(
        {j: [None] * len(sets) for j, sets in others.items()},
        [(j, p, _point_masses(g, h)) for j, sets in others.items()
         for p, h in enumerate(sets) if h.host in keep])


def check_sce_pure(g: Game, s: PureProfile) -> SceVerdict:
    """Self-confirming equilibrium check for a pure profile.

    Every acting player, nature included, needs a pure strategy of its own
    (``_checked_vectors``); ValueError otherwise.  Per player, the confirmed
    beliefs are the distributions over opposing pure profiles of the
    player's tree (nature conjectured alongside the opponents) that reach
    the terminal information set the play produces; one exact feasibility
    question asks whether some such belief makes every local deviation at
    every occurring decision set weakly unprofitable.  Each player's
    witness lists the (restricted pure profile, weight) pairs of that
    belief.
    """
    if any(isinstance(s.get(j), (BehaviorStrategy, MixedStrategy))
           for j in acting_players(g)):
        raise ValueError("not a pure profile: %r" % (s,))
    v = _conditions(g, _checked_vectors(g, s, kernel_vector),
                    _restricted_candidates)
    # pure play has one end, so one group per player
    v.witnesses = {i: [({j: PureStrategy.make(j, {
        h: a for h, ((a, _),) in x.kernels}) for j, x in p.items()}, w)
        for p, w in group] for i, [group] in v.witnesses.items()}
    return v


# ---------------------------------------------------------------------------
# behavior-profile check


def _confirmed_candidates(g: Game, i: Player, kernels: Mapping[Player, tuple],
                          tstar: TreeId) -> list[dict[Player, tuple]]:
    """Pure-kernel opposing profiles of the tstar-partial game that match
    the played kernels at every information set occurring inside it, as
    kernel vectors that are None outside the tstar-partial game.

    Occurrence is anchored at tstar, the player's own view of the play:
    kernels consulted at positively reached tstar nodes are pinned to the
    true ones, kernels play never consults are free.  Mixing over these
    completions spans every confirmed conjecture, correlation included,
    and each completion reaches every occurring set.
    """
    table = play_table(g, tstar)
    live = set(_live_nodes(g, kernels, tstar))
    sets: dict[Player, dict[int, bool]] = {}
    for n in sorted(table):
        at = dict(table[n])
        for j in g.nodes[n].players:
            if j == i:
                continue
            by_pos = sets.setdefault(j, {})
            by_pos[at[j]] = by_pos.get(at[j], False) or n in live
    pinned: dict[Player, list] = {}
    free: list[tuple[Player, int, list]] = []
    for j, by_pos in sets.items():
        sets_j = g.decision_sets(j)
        pinned[j] = [None] * len(sets_j)
        for p, hit in by_pos.items():
            if hit:
                pinned[j][p] = kernels[j][p]
            else:
                free.append((j, p, _point_masses(g, sets_j[p])))
    return _completions(pinned, free)


def check_sce_behavior(g: Game, pi: Profile) -> SceVerdict:
    """Self-confirming equilibrium check for a behavior profile.

    Every real player needs a pure, mixed or behavior strategy of its own
    (``_checked_vectors``; nature defaults to uniform), a mixed one counting
    through its behavior form; ValueError otherwise.  Confirmed beliefs
    fix the opposing kernels wherever the player's view of the play
    arrives with positive probability and are free elsewhere.  Along each
    chain of occurring information sets the belief is constant, so it must
    weight only completions reaching the chain's ends of play while making
    every local deviation at the chain's decision sets weakly unprofitable;
    the search is exact over pure-kernel completions.  Each player's
    witness lists, per chain, the (restricted behavior profile, weight)
    pairs of that belief.
    """
    return _conditions(g, _behavior_vectors(g, pi), _confirmed_candidates)


def lift_pure(g: Game, s: PureProfile) -> dict[Player, BehaviorStrategy]:
    """Degenerate behavior profile playing exactly s."""
    return {j: BehaviorStrategy.make(
        sj.owner, {h: {a: ONE} for h, a in sj.choices}) for j, sj in s.items()}


# ---------------------------------------------------------------------------
# the EFR-conjecture refinement


def _positive_classes(table: _Classes, k: tuple) -> set[int]:
    """The realization classes in table to which the canonical mixed
    conversion of kernel vector k gives positive probability: those whose
    first member's actions at the positions the class reaches are all in
    the support of k there."""
    return {c for c, (v, at) in enumerate(zip(table.first, table.reached))
            if all(v[p] in k[p] for p in at)}


def check_sce_efr(g: Game, pi: Profile) -> SceVerdict:
    """check_sce_behavior plus the rationalizability support condition:
    every pure strategy realization-equivalent to a support member of the
    canonical mixed conversion must survive extensive-form
    rationalizability.  The EFR engine keeps or drops whole realization
    classes, so that is the survival of every class the conversion gives
    positive probability (``_positive_classes``).  The conversion reads
    every decision set, so each real player's strategy needs a kernel at
    all of them; ValueError otherwise."""
    kernels = _behavior_vectors(g, pi)
    for i in g.players:
        if None in kernels[i]:
            raise ValueError("%r has no kernel at some decision set"
                             % (pi[i],))
    base = _conditions(g, kernels, _confirmed_candidates)
    if not base.holds:
        return base
    alive = _surviving_classes(g)
    for i in g.players:
        if not _positive_classes(_classes(g, i), kernels[i]) <= alive[i]:
            return SceVerdict(False, "efr-support", i,
                              detail="support member not rationalizable")
    return base


# ---------------------------------------------------------------------------
# construction via restricted Nash equilibrium


def is_rationalizable_self_confirming(g: Game) -> bool:
    """Every profile of rationalizable strategies keeps each player's
    occurring information sets inside one tree."""
    return all(len({h.host for h in _sets_along(g, path, i)}) == 1
               for path, _, _ in _path_classes(g, "efr") for i in g.players)


def construct_sce_efr(g: Game, nature: Optional[MixedStrategy] = None):
    """Build a self-confirming equilibrium in rationalizable conjectures.

    Computes an exact Nash equilibrium of the richest tree's normal form
    restricted to the rationalizable strategies, converts it to behavior
    form, and verifies the result with ``check_sce_efr``.  The normal form
    has one strategy per surviving realization class (``_classes``), the
    class's first member: realization-equivalent strategies earn the same
    payoffs, and ``kuhn_convert`` maps mixtures over them to the same
    behavior strategy.  Nature plays ``nature``, a mixed strategy of
    nature, or uniformly when it is None.  A pure scan of the normal form
    comes first; for two players, support enumeration then tries every
    pair of supports, smallest first, so it always finds an equilibrium.

    Refusals, in the order they are checked: ValueError when ``nature`` is
    given but is not a mixed strategy of nature, or nature never moves in
    g; ValueError when g is not rationalizable self-confirming;
    NotImplementedError when g has more than two players.
    """
    if nature is not None:
        if not isinstance(nature, MixedStrategy) or nature.owner != NATURE:
            raise ValueError("not a mixed strategy of nature: %r" % (nature,))
        if not has_nature(g):
            raise ValueError("nature never moves in this game")
    if not is_rationalizable_self_confirming(g):
        raise ValueError("not a rationalizable self-confirming game")
    if len(g.players) > 2:
        raise NotImplementedError(
            "restricted Nash construction supports at most two players")
    alive = _surviving_classes(g)
    pools = {i: [_classes(g, i).first[c] for c in sorted(alive[i])]
             for i in g.players}
    fixed = {}
    if has_nature(g):
        fixed[NATURE] = uniform_nature(g) if nature is None \
            else mixed_to_behavior(g, nature)
    u = _normal_form(g, pools, {j: kernel_vector(g, x, j)
                                for j, x in fixed.items()})
    pi: dict[Player, BehaviorStrategy] = {}
    for i, weights in _restricted_nash(pools, u).items():
        make = vector_strategy(g, i)
        pi[i] = kuhn_convert(g, i, MixedStrategy.make(
            {make(v): w for v, w in weights.items()}))
    pi.update(fixed)
    return pi, check_sce_efr(g, pi)


def _normal_form(g: Game, pools: Mapping[Player, list],
                 nature: Mapping[Player, tuple]) -> dict[tuple, tuple]:
    """Per profile of indices into the players' pools of action vectors, in
    product order, the players' expected payoffs in the richest tree with
    nature playing the given kernel vectors."""
    players = list(pools)
    points = {i: [tuple({a: ONE} for a in v) for v in pools[i]]
              for i in players}
    u = {}
    for cell in itertools.product(*[range(len(pools[i])) for i in players]):
        kernels = {**nature, **{i: points[i][x]
                                for i, x in zip(players, cell)}}
        u[cell] = tuple(behavior_payoff(g, i, g.tbar, kernels)
                        for i in players)
    return u


def _restricted_nash(pools: Mapping[Player, list], u: Mapping) -> dict:
    """An exact Nash equilibrium of the normal form u (``_normal_form``) as
    weights per action vector: the first pure profile in product order,
    else, for two players, the first pair of supports that admits one."""
    players = list(pools)
    # pure scan: each player's payoff is its best against the others' play
    best: list[dict] = [{} for _ in players]
    for cell, pay in u.items():
        for k, top in enumerate(best):
            rest = cell[:k] + cell[k + 1:]
            top[rest] = max(top.get(rest, pay[k]), pay[k])
    for cell, pay in u.items():
        if all(pay[k] == top[cell[:k] + cell[k + 1:]]
               for k, top in enumerate(best)):
            return {i: {pools[i][x]: ONE} for i, x in zip(players, cell)}
    # support enumeration, smallest supports first; the pure scan has
    # decided the singleton pairs
    a, b = players
    xs, ys = range(len(pools[a])), range(len(pools[b]))
    sizes = sorted(itertools.product(range(1, len(xs) + 1),
                                     range(1, len(ys) + 1)), key=sum)
    for ka, kb in sizes[1:]:
        for sup_a in itertools.combinations(xs, ka):
            for sup_b in itertools.combinations(ys, kb):
                wb = _equalizing(xs, sup_a, sup_b, lambda x, y: u[x, y][0])
                if wb is None:
                    continue
                wa = _equalizing(ys, sup_b, sup_a, lambda y, x: u[x, y][1])
                if wa is None:
                    continue
                return {a: {pools[a][x]: w for x, w in zip(sup_a, wa)},
                        b: {pools[b][y]: w for y, w in zip(sup_b, wb)}}
    raise AssertionError("every finite two-player game has a Nash "
                         "equilibrium, so some pair of supports admits one")


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
    seen from inside each player's own tree.

    Every real player needs a strategy of its own (``_checked_vectors``;
    nature defaults to uniform); ValueError otherwise."""
    kernels = _behavior_vectors(g, pi)
    tbar = g.tbar
    live = _live_nodes(g, kernels, tbar)
    all_hosts = {g.info[(i, tbar, n)].host
                 for i in g.players for n in sorted(g.trees[tbar])
                 if (i, tbar, n) in g.info}
    per_player: dict[Player, bool] = {}
    mutual: dict[Player, bool] = {}
    for i in g.players:
        # every play ends in a terminal set of each player
        hosts = {x.host for x in _sets_along(g, live, i)}
        per_player[i] = len(hosts) == 1
        t_i = functools.reduce(g.join, hosts)
        visited = _live_nodes(g, kernels, t_i)
        mutual[i] = all(len({g.info[(j, t_i, n)].host for n in visited
                             if (j, t_i, n) in g.info}) <= 1
                        for j in g.players if j != i)
    return AwarenessReport(len(all_hosts) == 1, per_player, mutual)
