"""Strategies, reach semantics, reach probabilities and payoffs.

Strategies are total over a player's decision information sets.  Nature
(player 0) has no information sets of its own; its strategies are keyed by
synthetic singleton sets, one per nature decision node per tree, so nature
plugs into the same machinery.  Occurrence, beliefs, rationality at an
information set and belief systems are in ``reference``.

All probabilities are exact Fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .core import (
    Game, InfoSet, NATURE, NodeId, Player, TreeId, _check_game, _memo)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class PureStrategy:
    """A complete contingent plan: one action per decision information set."""

    owner: Player
    choices: tuple[tuple[InfoSet, str], ...]

    @staticmethod
    def make(owner: Player, mapping: Mapping[InfoSet, str]) -> "PureStrategy":
        return PureStrategy(owner, tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[InfoSet, str]:
        d = self.__dict__.get("_map")
        if d is None:
            d = dict(self.choices)
            object.__setattr__(self, "_map", d)
        return d

    def action_at(self, h: InfoSet) -> str:
        return self.as_dict()[h]

    def replace(self, updates: Mapping[InfoSet, str]) -> "PureStrategy":
        d = dict(self.as_dict())
        d.update(updates)
        return PureStrategy.make(self.owner, d)

    def __repr__(self):
        inner = ", ".join("%s:%s" % (h.label(), a) for h, a in self.choices)
        return "PureStrategy(%d, {%s})" % (self.owner, inner)


Kernel = tuple[tuple[str, Fraction], ...]


@dataclass(frozen=True)
class BehaviorStrategy:
    """Independent local randomization at every decision information set."""

    owner: Player
    kernels: tuple[tuple[InfoSet, Kernel], ...]

    @staticmethod
    def make(owner: Player,
             mapping: Mapping[InfoSet, Mapping[str, Fraction]]) -> "BehaviorStrategy":
        kernels = []
        for h, dist in sorted(mapping.items()):
            items = tuple((a, q) for a, p in sorted(dist.items())
                          if (q := Fraction(p)) != 0)
            if sum(p for _, p in items) != 1:
                raise ValueError("kernel at %s does not sum to 1" % h.label())
            kernels.append((h, items))
        return BehaviorStrategy(owner, tuple(kernels))

    def as_dict(self) -> dict[InfoSet, Kernel]:
        d = self.__dict__.get("_map")
        if d is None:
            d = dict(self.kernels)
            object.__setattr__(self, "_map", d)
        return d

    def prob(self, h: InfoSet, action: str) -> Fraction:
        for a, p in self.as_dict()[h]:
            if a == action:
                return p
        return ZERO


@dataclass(frozen=True)
class MixedStrategy:
    """A distribution over pure strategies of one player."""

    owner: Player
    weights: tuple[tuple[PureStrategy, Fraction], ...]

    @staticmethod
    def make(weights: Mapping[PureStrategy, Fraction]) -> "MixedStrategy":
        items = tuple((s, q) for s, w in sorted(
            weights.items(), key=lambda kv: kv[0].choices)
            if (q := Fraction(w)) != 0)
        if not items or sum(w for _, w in items) != 1:
            raise ValueError("mixed-strategy weights must sum to 1")
        owners = {s.owner for s, _ in items}
        if len(owners) != 1:
            raise ValueError("mixed strategy mixes owners %s" % sorted(owners))
        return MixedStrategy(owners.pop(), items)

    @staticmethod
    def degenerate(s: PureStrategy) -> "MixedStrategy":
        return MixedStrategy(s.owner, ((s, ONE),))

    def support(self) -> list[PureStrategy]:
        return [s for s, _ in self.weights]


Strategy = Union[PureStrategy, BehaviorStrategy, MixedStrategy]
Profile = Mapping[Player, Strategy]
PureProfile = Mapping[Player, PureStrategy]


def profile_key(p: PureProfile):
    return tuple(sorted((j, s.choices) for j, s in p.items()))


# ---------------------------------------------------------------------------
# strategy enumeration


def strategy_vectors(g: Game, i: Player) -> list[tuple[str, ...]]:
    """Player i's pure strategies as action vectors: the actions at
    ``g.decision_sets(i)``, in that order; listed as ``pure_strategies``."""
    return list(itertools.product(*map(g.set_actions, g.decision_sets(i))))


def action_vector(g: Game, s: PureStrategy, i: Player) -> tuple:
    """Player i's strategy s as an action vector, None where s makes no
    choice (a restricted strategy); ValueError if s is not i's strategy."""
    if not isinstance(s, PureStrategy) or s.owner != i:
        raise ValueError("not a pure strategy of player %d: %r" % (i, s))
    sets = g.decision_sets(i)
    v = tuple(map(s.as_dict().get, sets))
    if any(a is not None and a not in g.set_actions(h)
           for h, a in zip(sets, v)):
        raise ValueError("unavailable action in %r" % (s,))
    return v


def pure_strategies(g: Game, i: Player) -> list[PureStrategy]:
    """Player i's pure strategies (nature's too), in ``strategy_vectors``
    order.  ValueError when i is neither nature nor a player of g.
    TypeError when g is not a Game."""
    _check_game(g)
    if i != NATURE and i not in g.players:
        raise ValueError("no player %r" % (i,))
    return list(map(vector_strategy(g, i), strategy_vectors(g, i)))


@_memo
def vector_strategy(g: Game, i: Player):
    """A function turning player i's action vectors into PureStrategy
    objects, as ``pure_strategies`` lists them; one per player and game."""
    sets = g.decision_sets(i)
    # the order PureStrategy.make sorts choices into, found once
    order = sorted(range(len(sets)), key=sets.__getitem__)
    return lambda v: PureStrategy(i, tuple([(sets[k], v[k]) for k in order]))


def has_nature(g: Game) -> bool:
    return g._st.nature


def acting_players(g: Game) -> list[Player]:
    """Real players plus nature when it moves somewhere."""
    return ([NATURE] if g._st.nature else []) + list(g.players)


# ---------------------------------------------------------------------------
# reach


def _key_set(g: Game, j: Player, t: TreeId, n: NodeId) -> InfoSet:
    if j == NATURE:
        return InfoSet(NATURE, t, (n,))
    return g.info[(j, t, n)]


@_memo
def set_positions(g: Game, i: Player) -> dict[InfoSet, int]:
    """Index of each decision set of i (nature included) in
    ``g.decision_sets(i)``: the layout of i's action vectors."""
    return {h: k for k, h in enumerate(g.decision_sets(i))}


@_memo
def play_table(g: Game, t: TreeId) -> dict[NodeId, tuple]:
    """Per decision node of t, the (player, vector position) pairs whose
    actions, in sorted player order, form the profile picking the child."""
    return {n: tuple((j, set_positions(g, j)[_key_set(g, j, t, n)])
                     for j in sorted(g.nodes[n].players))
            for n, kids in g._st.children[t].items() if kids}


@_memo
def _requirements(g: Game, t: TreeId) -> dict[NodeId, tuple]:
    """Per node of t, the (player, information set, vector position,
    action) constraints along the path to it, top down; the position is
    the set's in ``set_positions``.  One walk from the root: a child's
    constraints are its parent's plus the movers' actions on the edge."""
    kids, table = g._st.children[t], play_table(g, t)
    sets = {j: g.decision_sets(j) for j in acting_players(g)}
    root = g.root(t)
    reqs = {root: ()}
    stack = [root]
    while stack:
        b = stack.pop()
        for prof, c in kids[b].items():
            reqs[c] = reqs[b] + tuple([(j, sets[j][p], p, a) for (j, p), a
                                       in zip(table[b], prof)])
            stack.append(c)
    return reqs


NodeRef = tuple[TreeId, NodeId]
Target = Union[NodeRef, InfoSet]


def reaches(g: Game, s: Profile, target: Target) -> bool:
    """Whether the (possibly partial) pure profile leads to the target.

    Constraints of players missing from the profile are treated
    existentially: some completion reaches the target.
    """
    if isinstance(target, InfoSet):
        return any(reaches(g, s, (target.host, m)) for m in target.members)
    t, n = target
    if t not in g.trees or n not in g.trees[t]:
        raise KeyError("no node %r in tree %r" % (n, t))
    for j, h, _, a in _requirements(g, t)[n]:
        sj = s.get(j)
        if sj is not None and sj.action_at(h) != a:
            return False
    return True


def play_out(g: Game, t: TreeId, s: PureProfile) -> NodeId:
    """Follow the induced actions within tree t down to a terminal node."""
    kids = g._st.children[t]
    n = g.root(t)
    while kids[n]:
        prof = tuple(s[j].action_at(_key_set(g, j, t, n))
                     for j in sorted(g.nodes[n].players))
        n = kids[n][prof]
    return n


def _checked_vectors(g: Game, pi: Profile, vector,
                     trees: Optional[Iterable[TreeId]] = None
                     ) -> dict[Player, tuple]:
    """Every acting player's strategy in pi as a vector, made by
    ``vector(g, strategy, player)``, which holds None where the strategy
    makes no choice.  TypeError unless pi is a mapping; ValueError unless
    each acting player, nature included when it moves, has a strategy of
    its own that chooses at every position the given trees' play tables
    read, or at every position when no tree is given."""
    if not isinstance(pi, Mapping):
        raise TypeError("a profile maps players to strategies, not %r"
                        % (pi,))
    out = {}
    for j in acting_players(g):
        if j not in pi:
            raise ValueError("the profile has no strategy for player %d" % j)
        out[j] = vector(g, pi[j], j)
    reads = ((j, p) for j, v in out.items() for p in range(len(v))) \
        if trees is None else (pair for t in trees
                               for pairs in play_table(g, t).values()
                               for pair in pairs)
    for j, p in reads:
        if out[j][p] is None:
            raise ValueError("%r makes no choice at %s" % (
                pi[j], g.decision_sets(j)[p].label()))
    return out


def realized_tbar_path(g: Game, s: PureProfile) -> list[NodeId]:
    """The realized node path of the upmost tree under a total pure profile.

    Raises TypeError when g is not a Game or s is not a mapping, and
    ValueError when s is not total: a player without a strategy, a strategy
    of another player, or one without a choice at some decision set.
    """
    _check_game(g)
    _checked_vectors(g, s, action_vector)
    return g.path_in(g.tbar, play_out(g, g.tbar, s))


def _sets_along(g: Game, nodes: Iterable[NodeId], i: Player) -> set[InfoSet]:
    """Player i's information sets at the given upmost-tree nodes."""
    tbar = g.tbar
    return {h for n in nodes if (h := g.info.get((i, tbar, n))) is not None}


# ---------------------------------------------------------------------------
# reach probabilities and Kuhn conversion


def reach_probability(g: Game, s: Profile, node: NodeRef) -> Fraction:
    t, n = node
    by_player: dict[Player, list] = {}
    for j, h, _, a in _requirements(g, t)[n]:
        by_player.setdefault(j, []).append((h, a))
    total = ONE
    for j, reqs in by_player.items():
        sj = s[j]
        if isinstance(sj, PureStrategy):
            p = ONE if all(sj.action_at(h) == a for h, a in reqs) else ZERO
        elif isinstance(sj, BehaviorStrategy):
            p = ONE
            for h, a in reqs:
                p *= sj.prob(h, a)
        else:
            p = sum((w for q, w in sj.weights
                     if all(q.action_at(h) == a for h, a in reqs)), ZERO)
        if p == 0:
            return ZERO
        total *= p
    return total


def behavior_to_mixed(g: Game, pi: BehaviorStrategy) -> MixedStrategy:
    sets = g.decision_sets(pi.owner)
    menus = [pi.as_dict()[h] for h in sets]
    weights: dict[PureStrategy, Fraction] = {}
    for combo in itertools.product(*menus):
        w = ONE
        for _, p in combo:
            w *= p
        s = PureStrategy.make(pi.owner,
                              {h: a for h, (a, _) in zip(sets, combo)})
        weights[s] = weights.get(s, ZERO) + w
    return MixedStrategy.make(weights)


def mixed_to_behavior(g: Game, sigma: MixedStrategy) -> BehaviorStrategy:
    """ValueError unless every member chooses an available action at each
    decision set of its owner."""
    i = sigma.owner
    for s, _ in sigma.weights:
        if None in action_vector(g, s, i):
            raise ValueError("%r makes no choice at some decision set" % (s,))
    kernels = {}
    for h in g.decision_sets(i):
        actions = g.set_actions(h)
        consistent = [(s, w) for s, w in sigma.weights
                      if reaches(g, {i: s}, h)]
        den = sum((w for _, w in consistent), ZERO)
        if den == 0:
            # unreached under sigma: canonical uniform kernel
            u = Fraction(1, len(actions))
            kernels[h] = {a: u for a in actions}
        else:
            dist = {a: ZERO for a in actions}
            for s, w in consistent:
                dist[s.action_at(h)] += w
            kernels[h] = {a: w / den for a, w in dist.items()}
    return BehaviorStrategy.make(i, kernels)


def kuhn_convert(g: Game, i: Player, x: Union[MixedStrategy, BehaviorStrategy]):
    """Convert between mixed and behavior form, preserving all reach
    probabilities against every pure opposing profile.  ValueError when x
    is not a mixed or behavior strategy of player i.
    TypeError when g is not a Game."""
    _check_game(g)
    if not isinstance(x, (MixedStrategy, BehaviorStrategy)) or x.owner != i:
        raise ValueError("x is not a mixed or behavior strategy of player "
                         "%d: %r" % (i, x))
    if isinstance(x, MixedStrategy):
        return mixed_to_behavior(g, x)
    return behavior_to_mixed(g, x)


def opposing_profiles(g: Game, i: Player) -> list[PureProfile]:
    others = [j for j in acting_players(g) if j != i]
    pools = [pure_strategies(g, j) for j in others]
    return [dict(zip(others, combo)) for combo in itertools.product(*pools)]


def realization_equivalent(g: Game, i: Player, x: Strategy, y: Strategy,
                           opposing: Optional[Iterable[PureProfile]] = None) -> bool:
    """Exact agreement of ρ(n | ., s_-i) on every node of every tree.
    ValueError when x or y is not a pure, behavior or mixed strategy of
    player i.  TypeError when g is not a Game."""
    _check_game(g)
    for s in (x, y):
        if not isinstance(s, (PureStrategy, BehaviorStrategy, MixedStrategy)) \
                or s.owner != i:
            raise ValueError("not a strategy of player %d: %r" % (i, s))
    opp = list(opposing) if opposing is not None else opposing_profiles(g, i)
    for s_minus in opp:
        for t in g.tree_order():
            for n in sorted(g.trees[t]):
                a = reach_probability(g, {**s_minus, i: x}, (t, n))
                b = reach_probability(g, {**s_minus, i: y}, (t, n))
                if a != b:
                    return False
    return True


# ---------------------------------------------------------------------------
# kernel-vector payoffs and deviation sets


def kernel_vector(g: Game, x: Strategy, i: Player) -> tuple:
    """Player i's strategy x as a kernel vector: per decision set of i, in
    ``g.decision_sets(i)`` order, a dict from action to its positive
    probability; None where x makes no choice (a restricted strategy).  A
    mixed strategy counts through its behavior form (``mixed_to_behavior``).
    ValueError if x is not a pure, behavior or mixed strategy of i, or names
    an action unavailable at its set."""
    if isinstance(x, PureStrategy):
        return tuple(None if a is None else {a: ONE}
                     for a in action_vector(g, x, i))
    if isinstance(x, MixedStrategy) and x.owner == i:
        x = mixed_to_behavior(g, x)
    if not isinstance(x, BehaviorStrategy) or x.owner != i:
        raise ValueError("not a strategy of player %d: %r" % (i, x))
    kernels = x.as_dict()
    sets = g.decision_sets(i)
    if any(a not in g.set_actions(h)
           for h in sets for a, _ in kernels.get(h, ())):
        raise ValueError("unavailable action in %r" % (x,))
    return tuple(None if (k := kernels.get(h)) is None
                 else {a: p for a, p in k if p} for h in sets)


def behavior_payoff(g: Game, i: Player, t: TreeId,
                    kernels: Mapping[Player, tuple]) -> Fraction:
    """Player i's expected payoff when tree t is played from its root under
    the kernel vectors (``kernel_vector``) of every player moving in it."""
    kids, table, nodes = g._st.children[t], play_table(g, t), g.nodes
    total = ZERO
    # (node, probability of reaching it, None for one): play follows point
    # masses without arithmetic and branches only where some mover mixes
    stack = [(g.root(t), None)]
    while stack:
        n, w = stack.pop()
        while (pairs := table.get(n)) is not None:
            dists = [kernels[j][p] for j, p in pairs]
            if any(len(d) > 1 for d in dists):
                break
            n = kids[n][tuple([next(iter(d)) for d in dists])]
        else:
            if w is None:
                return nodes[n].payoffs[i]
            total += w * nodes[n].payoffs[i]
            continue
        for combo in itertools.product(*[d.items() for d in dists]):
            q = ONE if w is None else w
            for _, x in combo:
                q *= x
            stack.append((kids[n][tuple([a for a, _ in combo])], q))
    return total


def deviation_sets(g: Game, i: Player, h: InfoSet) -> list[InfoSet]:
    """h plus player i's decision sets at strict descendants of h's members
    within the host tree (the sets a local deviation may change)."""
    out = set()
    if any(i in g.nodes[m].players and not g.terminal_in(h.host, m)
           for m in h.members):
        out.add(h)
    for m in h.members:
        for d in g.descendants_in(h.host, m):
            key = (i, h.host, d)
            if key in g.info and i in g.nodes[d].players \
                    and not g.terminal_in(h.host, d):
                out.add(g.info[key])
    return sorted(out, key=g._set_sort_key)
