"""Self-confirming equilibrium checks, construction, and awareness
diagnostics.

A profile is self-confirming for a player when (0) everything they observe
along play fits inside one tree, (i) their strategy is rational at every
information set that occurs, and (ii) the supporting belief is confirmed:
it weights only opposing play consistent with what the player observes
during the game, and stays constant along the path.  Off the path the
conjecture is unconstrained.  One routine, ``_conditions``, checks all
three on kernel vectors.  The pure and the behavior checks differ only in
its candidate rule, one opposing profile per class of play in t*, the
player's tree, that a confirmed belief may weight: among restricted pure
profiles for a pure profile, among fills of the unobserved kernels for a
behavior profile.  The EFR variant additionally requires every pure
strategy equivalent to the played one to be extensive-form rationalizable.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, UserDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    Game, NATURE, NodeId, Player, TreeId, _check_game,
    hosts_reachable)
from .discovery import _policy_paths
from .lp import find_belief, solve_feasibility
from .rationalizability import _Classes, _class_rounds, _classes
from .strategies import (
    BehaviorStrategy,
    MixedStrategy,
    ONE,
    Profile,
    PureProfile,
    PureStrategy,
    ZERO,
    _checked_vectors,
    _requirements,
    _sets_along,
    acting_players,
    action_vector,
    behavior_payoff,
    deviation_sets,
    has_nature,
    kernel_vector,
    mixed_to_behavior,
    play_table,
    set_positions,
)


@dataclass
class SceVerdict:
    """An SCE check's verdict: a failing one names the condition and the
    player; a holding one's ``witnesses`` are a ``_Witnesses``."""

    holds: bool
    violated_condition: Optional[str] = None  # awareness | rationality |
    #                                    belief-confirmation | efr-support
    player: Optional[Player] = None
    witnesses: Mapping = field(default_factory=dict)
    detail: str = ""


class _Witnesses(UserDict):
    """Witness beliefs as data: per player and group of sets the (opposing
    kernel-vector profile, weight) pairs, and each acting player's
    ``g.decision_sets``.  The first read builds the dict of restricted behavior
    profiles (pure: one group of ``PureStrategy`` ones).  It holds no game or
    closure, so it pickles and frees the game."""

    def __init__(self, groups: dict, sets: dict, pure: bool = False):
        self.groups, self.sets, self.pure = groups, sets, pure

    def __getattr__(self, name: str):
        # only called while UserDict's ``data`` is unset: the first read
        if name != "data":
            raise AttributeError(name)
        d = {i: [[({j: self._strategy(j, v) for j, v in p.items()}, w)
                  for p, w in group] for group in groups]
             for i, groups in self.groups.items()}
        self.data = {i: x for i, [x] in d.items()} if self.pure else d
        return self.data

    def _strategy(self, j: Player, v: tuple):
        chosen = {h: k for h, k in zip(self.sets[j], v) if k is not None}
        if self.pure:  # pure candidates hold point masses
            return PureStrategy.make(j, {h: a for h, [a] in chosen.items()})
        return BehaviorStrategy.make(j, chosen)


def uniform_nature(g: Game) -> BehaviorStrategy:
    """Nature's uniform behavior strategy: equal weight on every action at
    each of its decision sets.  TypeError when g is not a Game."""
    _check_game(g)
    return BehaviorStrategy.make(NATURE, {
        h: dict.fromkeys(menu := g.set_actions(h), Fraction(1, len(menu)))
        for h in g.decision_sets(NATURE)})


# ---------------------------------------------------------------------------
# profile checks at entry


def _sce_views(g: Game) -> list[TreeId]:
    """The trees whose sets the SCE checks can consult, so a profile must
    choose there (``_checked_vectors``): the richest tree and each tree
    hosting an information set there.  Play never reaches the other
    sets."""
    tbar = g.tbar
    return sorted({tbar} | {h.host for (_, t, _), h in g.info.items()
                            if t == tbar}, key=g.tree_sort_key)


def _behavior_vectors(g: Game, pi: Profile) -> dict[Player, tuple]:
    """``_checked_vectors`` of the kernel vector of each strategy in pi;
    nature plays uniformly unless pi gives it a strategy."""
    if has_nature(g) and isinstance(pi, Mapping) and NATURE not in pi:
        pi = {**pi, NATURE: uniform_nature(g)}
    return _checked_vectors(g, pi, kernel_vector, _sce_views(g))


# ---------------------------------------------------------------------------
# the conditions, on kernel vectors
#
# Strategies are kernel vectors (``kernel_vector``), whose dicts hold only
# positive probabilities, so an action is possible when it is a key.


def _kernels_reach(g: Game, kernels: Mapping[Player, tuple], t: TreeId,
                   nodes) -> bool:
    """Whether the given players' kernels give some of the nodes of tree t
    positive probability, the other players' moves permitting."""
    reqs = _requirements(g, t)
    return any(all(a in kernels[j][p] for j, _, p, a in reqs[n]
                   if j in kernels) for n in nodes)


def _live_nodes(g: Game, kernels: Mapping[Player, tuple],
                t: TreeId) -> list[NodeId]:
    """The nodes of t the kernel profile reaches with positive
    probability, in order: those ``_kernels_reach`` accepts, found by one
    walk down t along the edges whose every mover the kernels either leave
    out or give the edge's action."""
    kids, table = g._st.children[t], play_table(g, t)
    live = [g.root(t)]
    for n in live:  # the list grows as the walk visits it
        pairs = table.get(n)
        live += [c for prof, c in kids[n].items()
                 if all(j not in kernels or a in kernels[j][p]
                        for (j, p), a in zip(pairs, prof))]
    return sorted(live)


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


def _conditions(g: Game, kernels: Mapping[Player, tuple], candidates,
                pure: bool = False):
    """Conditions (0)-(ii) for every player, on checked kernel vectors.

    (0) The player's sets at the live richest-tree nodes share one host
    t*.  Per group of sets along shared paths (``_path_components``):
    (ii) some candidate reaches all the group's ends, where ``candidates(g,
    i, kernels, t*)`` lists one opposing profile per class of play in t*
    that a confirmed belief may weight; (i) one belief over them makes
    every point-mass local deviation at the group's reached decision sets,
    one per class of play in t* (``_fills``), weakly unprofitable in t*.
    The first failing verdict, else a holding one whose witnesses
    (``_Witnesses``, pure ones when pure is set) hold per player and group
    the belief's positive weights on the candidates."""
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
            rows = {}
            for hh in group:
                if hh not in pos or not _kernels_reach(
                        g, {i: kernels[i]}, hh.host, hh.members):
                    continue
                # local deviations: point masses at the deviation sets
                devs = [(i, pos[x]) for x in deviation_sets(g, i, hh)]
                for dev in _fills(g, tstar, {i: kernels[i]}, devs):
                    rows[tuple(v - b for v, b in
                               zip(values(dev[i]), base))] = None
            x = find_belief(list(rows), len(pool))
            if x is None:
                return SceVerdict(
                    False, "rationality", i,
                    detail="at %s" % " ".join(h.label() for h in group))
            weights[i].append([(p, w) for p, w in zip(pool, x) if w > 0])
    return SceVerdict(True, witnesses=_Witnesses(weights, {
        j: g.decision_sets(j) for j in acting_players(g)}, pure))


def _fills(g: Game, t: TreeId, fixed: Mapping[Player, list],
           free: list[tuple[Player, int]]) -> list[dict]:
    """The kernel profiles that copy fixed and put a point mass at each
    free (player, position), at least one for each class of fills that
    play tree t the same way, in product order.  A free position branches
    over its actions only where some node of t consulting it is reachable
    (``_kernels_reach``) under the kernels chosen so far, free positions
    not yet chosen and players outside fixed allowing any action; elsewhere
    it keeps its first action."""
    at: dict[tuple, list] = {}
    for n, pairs in play_table(g, t).items():
        for pair in pairs:
            at.setdefault(pair, []).append(n)
    full = {j: list(v) for j, v in fixed.items()}
    menus = [g.set_actions(g.decision_sets(j)[p]) for j, p in free]
    for (j, p), menu in zip(free, menus):
        full[j][p] = dict.fromkeys(menu)
    out: list[dict] = []
    todo: list[list] = []  # per chosen free position, its actions left
    while True:
        if len(todo) < len(free):
            (j, p), menu = free[len(todo)], menus[len(todo)]
            todo.append(list(menu[::-1]) if _kernels_reach(
                g, full, t, at.get((j, p), ())) else [menu[0]])
        else:
            out.append({j: tuple(v) for j, v in full.items()})
            while todo and not todo[-1]:
                todo.pop()
                j, p = free[len(todo)]
                full[j][p] = dict.fromkeys(menus[len(todo)])
            if not todo:
                return out
        j, p = free[len(todo) - 1]
        full[j][p] = {todo[-1].pop(): ONE}


# ---------------------------------------------------------------------------
# pure-profile check


def _restricted_candidates(g: Game, i: Player, kernels, tstar: TreeId
                           ) -> list[dict[Player, tuple]]:
    """One opposing pure profile of the tstar-partial game per class of
    play in tstar (``_fills``): point masses at the sets hosted in
    ``hosts_reachable(g, tstar)``, None elsewhere, in product order."""
    keep = set(hosts_reachable(g, tstar))
    others = {j: g.decision_sets(j) for j in acting_players(g) if j != i}
    return _fills(g, tstar,
                  {j: [None] * len(sets) for j, sets in others.items()},
                  [(j, p) for j, sets in others.items()
                   for p, h in enumerate(sets) if h.host in keep])


def check_sce_pure(g: Game, s: PureProfile) -> SceVerdict:
    """Self-confirming equilibrium check for a pure profile.

    s must be a mapping (TypeError) in which every acting player, nature
    included, has a pure strategy of its own (``_checked_vectors``;
    ValueError otherwise).  Per player, the confirmed beliefs are the
    distributions over opposing pure profiles of the player's tree (nature
    conjectured alongside the opponents) that reach the terminal
    information set the play produces; one exact feasibility
    question asks whether some such belief makes every local deviation at
    every occurring decision set weakly unprofitable.  Each player's
    witness lists the (restricted pure profile, weight) pairs of that
    belief; the verdict stores them as kernel vectors, with no game
    reference, and builds the ``PureStrategy`` objects on first read
    (``_Witnesses``).  TypeError when g is not a Game.
    """
    _check_game(g)
    kernels = {j: tuple(None if a is None else {a: ONE} for a in v)
               for j, v in _checked_vectors(g, s, action_vector,
                                            _sce_views(g)).items()}
    # pure play has one end, so one group per player
    return _conditions(g, kernels, _restricted_candidates, pure=True)


# ---------------------------------------------------------------------------
# behavior-profile check


def _confirmed_candidates(g: Game, i: Player, kernels: Mapping[Player, tuple],
                          tstar: TreeId) -> list[dict[Player, tuple]]:
    """One opposing profile per class of play in tstar (``_fills``) among
    the pure-kernel ones of the tstar-partial game that match the played
    kernels at every information set occurring inside it, as kernel
    vectors that are None outside the tstar-partial game.

    Occurrence is anchored at tstar, the player's own view of the play:
    kernels consulted at positively reached tstar nodes are pinned to the
    true ones, kernels play never consults are free.  Mixing over these
    fills spans every confirmed conjecture's play in tstar, correlation
    included, and each fill reaches every occurring set.
    """
    table = play_table(g, tstar)
    reads = {(j, p) for pairs in table.values() for j, p in pairs if j != i}
    pinned = reads & {pair for n in _live_nodes(g, kernels, tstar)
                      for pair in table.get(n, ())}
    fixed = {j: [None] * len(kernels[j]) for j, _ in sorted(reads)}
    for j, p in pinned:
        fixed[j][p] = kernels[j][p]
    return _fills(g, tstar, fixed, sorted(reads - pinned))


def check_sce_behavior(g: Game, pi: Profile) -> SceVerdict:
    """Self-confirming equilibrium check for a behavior profile.

    pi must be a mapping (TypeError) in which every real player has a pure,
    mixed or behavior strategy of its own (``_checked_vectors``; nature
    defaults to uniform), a mixed one counting through its behavior form;
    ValueError otherwise.  Confirmed beliefs fix the opposing kernels
    wherever the player's view of the play arrives with positive
    probability and are free elsewhere.  Along each chain of occurring
    information sets the belief is constant, so it must weight only fills
    reaching the chain's ends of play while making every local deviation
    at the chain's decision sets weakly unprofitable; the search is exact
    over one pure-kernel fill per class of play in the player's tree.
    Each player's witness lists, per chain, the (restricted behavior
    profile, weight) pairs of that belief, built on first read
    (``_Witnesses``).  TypeError when g is not a Game.
    """
    _check_game(g)
    return _conditions(g, _behavior_vectors(g, pi), _confirmed_candidates)


def lift_pure(g: Game, s: PureProfile) -> dict[Player, BehaviorStrategy]:
    """Degenerate behavior profile playing exactly s.  TypeError when s is
    not a mapping, ValueError when an entry is not a PureStrategy of its
    key's player.  TypeError when g is not a Game."""
    _check_game(g)
    if not isinstance(s, Mapping):
        raise TypeError("a profile maps players to strategies, not %r" % (s,))
    for j, sj in s.items():
        if not isinstance(sj, PureStrategy) or sj.owner != j:
            raise ValueError("not a pure strategy of player %s: %r" % (j, sj))
    return {j: BehaviorStrategy.make(
        j, {h: {a: ONE} for h, a in sj.choices}) for j, sj in s.items()}


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
    all of them; ValueError otherwise, and TypeError when pi is not a
    mapping.  TypeError when g is not a Game."""
    _check_game(g)
    kernels = _behavior_vectors(g, pi)
    for i in g.players:
        if None in kernels[i]:
            raise ValueError("%r has no kernel at some decision set"
                             % (pi[i],))
    base = _conditions(g, kernels, _confirmed_candidates)
    if not base.holds:
        return base
    alive = _class_rounds(g)[-1]
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
               for _, path, _ in _policy_paths(g, "efr")[1] for i in g.players)


def construct_sce_efr(g: Game, nature: Optional[MixedStrategy] = None):
    """Build a self-confirming equilibrium in rationalizable conjectures.

    Computes an exact Nash equilibrium of the richest tree's normal form
    restricted to the rationalizable strategies, converts it to behavior
    form, and verifies the result with ``check_sce_efr``.  The normal form
    has one strategy per surviving realization class (``_classes``), the
    class's first member: realization-equivalent strategies earn the same
    payoffs, and ``kuhn_convert`` maps mixtures over them to the same
    behavior strategy, which is read off the class table
    (``_class_behavior``).  Nature plays ``nature``, a mixed strategy of
    nature, or uniformly when it is None.  A pure scan of the normal form
    comes first; for two players, support enumeration then tries every
    pair of supports, smallest first, so it always finds an equilibrium.

    Refusals, in the order they are checked: TypeError when g is not a
    Game; ValueError when ``nature`` is given but is not a mixed strategy of
    nature, or nature never moves in g; ValueError when g is not
    rationalizable self-confirming; NotImplementedError when g has more
    than two players.
    """
    _check_game(g)
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
    alive = {i: sorted(cs) for i, cs in _class_rounds(g)[-1].items()}
    pools = {i: [_classes(g, i).first[c] for c in alive[i]]
             for i in g.players}
    fixed = {}
    if has_nature(g):
        fixed[NATURE] = uniform_nature(g) if nature is None \
            else mixed_to_behavior(g, nature)
    u = _normal_form(g, pools, {j: kernel_vector(g, x, j)
                                for j, x in fixed.items()})
    pi: dict[Player, BehaviorStrategy] = {i: _class_behavior(
        g, i, {alive[i][x]: w for x, w in weights.items()})
        for i, weights in _restricted_nash(pools, u).items()}
    pi.update(fixed)
    return pi, check_sce_efr(g, pi)


def _class_behavior(g: Game, i: Player, weights: dict) -> BehaviorStrategy:
    """``mixed_to_behavior`` of the mixture weighting the first members of
    player i's classes (``_classes``), read off the class table: a class
    reaches a set exactly when its first member does, so the kernel there
    is the weighted distribution of the reaching classes' first members'
    actions, uniform where none reaches."""
    table = _classes(g, i)
    dists = [Counter() for _ in table.menus]
    for c, w in weights.items():
        for p in table.reached[c]:
            dists[p][table.first[c][p]] += w
    return BehaviorStrategy.make(i, {
        h: {a: x / den for a, x in d.items()} if (den := sum(d.values()))
        else dict.fromkeys(menu, Fraction(1, len(menu)))
        for h, d, menu in zip(g.decision_sets(i), dists, table.menus)})


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
    weights per pool index: the first pure profile in product order, else,
    for two players, the first pair of supports that admits one."""
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
            return {i: {x: ONE} for i, x in zip(players, cell)}
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
                return {a: dict(zip(sup_a, wa)), b: dict(zip(sup_b, wb))}
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

    pi must be a mapping (TypeError) in which every real player has a
    strategy of its own (``_checked_vectors``; nature defaults to uniform);
    ValueError otherwise.  TypeError when g is not a Game."""
    _check_game(g)
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
