"""Strategies, reach/occur semantics, beliefs, payoffs and rationality.

Strategies are total over a player's decision information sets.  Nature
(player 0) has no information sets of its own; its strategies are keyed by
synthetic singleton sets, one per nature decision node per tree, so nature
plugs into the same machinery.

All probabilities are exact Fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .core import (
    Game, InfoSet, NATURE, NodeId, Player, TreeId, _memo, hosts_reachable)

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
# a finite-support distribution over opposing pure profiles
Belief = Sequence[tuple[PureProfile, Fraction]]


def point_belief(profile: PureProfile) -> list[tuple[PureProfile, Fraction]]:
    return [(dict(profile), ONE)]


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
    order.  ValueError when i is neither nature nor a player of g."""
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
# reach / occur


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


def occurs(g: Game, s: Profile, target: Target) -> bool:
    """Whether the upmost-tree counterpart of the target is realized.

    An information set occurs when some node carrying it (in any tree) has
    its upmost-tree copy on the realized path.
    """
    if isinstance(target, InfoSet):
        nodes = {n for (i, _, n), h in g.info.items()
                 if i == target.player and h == target}
        return any(occurs(g, s, (g.tbar, n)) for n in sorted(nodes))
    t, n = target
    if t not in g.trees or n not in g.trees[t]:
        raise KeyError("no node %r in tree %r" % (n, t))
    return reaches(g, s, (g.tbar, n))


def _positive(g: Game, s: Profile, node: NodeRef) -> bool:
    if all(isinstance(x, PureStrategy) for x in s.values()):
        return reaches(g, s, node)
    return reach_probability(g, s, node) > 0


def occurring_info_sets(g: Game, s: Profile, i: Player,
                        semantics: str = "occur") -> set[InfoSet]:
    """Player i's information sets reached (or occurring) with positive
    probability under the profile."""
    if semantics not in ("reach", "occur"):
        raise ValueError("semantics must be 'reach' or 'occur'")
    out = set()
    for h in g.info_sets(i):
        if semantics == "reach":
            hit = any(_positive(g, s, (h.host, m)) for m in h.members)
        else:
            nodes = {n for (j, _, n), v in g.info.items()
                     if j == i and v == h}
            hit = any(_positive(g, s, (g.tbar, n)) for n in sorted(nodes))
        if hit:
            out.add(h)
    return out


def play_out(g: Game, t: TreeId, s: PureProfile) -> NodeId:
    """Follow the induced actions within tree t down to a terminal node."""
    kids = g._st.children[t]
    n = g.root(t)
    while kids[n]:
        prof = tuple(s[j].action_at(_key_set(g, j, t, n))
                     for j in sorted(g.nodes[n].players))
        n = kids[n][prof]
    return n


def _check_total(g: Game, s: PureProfile) -> None:
    """TypeError unless s is a mapping; ValueError unless it gives every
    acting player, nature included when it moves, a pure strategy of its
    own with a choice at each of its decision sets."""
    if not isinstance(s, Mapping):
        raise TypeError("a profile maps players to strategies, not %r" % (s,))
    for j in acting_players(g):
        sj = s.get(j)
        if sj is None:
            raise ValueError("the profile has no strategy for player %d" % j)
        if None in action_vector(g, sj, j):
            raise ValueError("%r makes no choice at some decision set"
                             % (sj,))


def realized_tbar_path(g: Game, s: PureProfile) -> list[NodeId]:
    """The realized node path of the upmost tree under a total pure profile.

    Raises TypeError when s is not a mapping, and ValueError when it is
    not total: a player without a strategy, a strategy of another player,
    or one without a choice at some decision set.
    """
    _check_total(g, s)
    return g.path_in(g.tbar, play_out(g, g.tbar, s))


def _sets_along(g: Game, nodes: Iterable[NodeId], i: Player) -> set[InfoSet]:
    """Player i's information sets at the given upmost-tree nodes."""
    tbar = g.tbar
    return {h for n in nodes if (h := g.info.get((i, tbar, n))) is not None}


def path_info_sets(g: Game, s: Profile, i: Player) -> set[InfoSet]:
    """Information sets of player i at positive-probability upmost-tree
    path nodes (the sets a player actually experiences during play)."""
    tbar = g.tbar
    if all(isinstance(x, PureStrategy) for x in s.values()):
        nodes = g.path_in(tbar, play_out(g, tbar, s))
    else:
        nodes = [n for n in sorted(g.trees[tbar])
                 if reach_probability(g, s, (tbar, n)) > 0]
    return _sets_along(g, nodes, i)


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
    is not a mixed or behavior strategy of player i."""
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
    player i."""
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
# expected payoff and rationality at an information set


def _check_belief(g: Game, h: InfoSet, belief: Belief) -> None:
    total = sum((w for _, w in belief), ZERO)
    if total != 1 or any(w < 0 for _, w in belief):
        raise ValueError("belief at %s is not a distribution" % h.label())
    for p, w in belief:
        if w > 0 and not reaches(g, p, h):
            raise ValueError("belief at %s puts weight on a profile missing it"
                             % h.label())


def expected_payoff_at(g: Game, i: Player, h: InfoSet, s_i: Strategy,
                       belief: Belief, validate: bool = True) -> Fraction:
    """Expected payoff of player i at h, inside h's host tree.

    The belief is a finite-support distribution over opposing profiles (all
    reaching h); the player follows their own strategy from the root of the
    host tree onward.  s_i is a pure, behavior or mixed strategy of i (a
    mixed one plays its behavior form); ValueError otherwise.
    """
    if validate:
        _check_belief(g, h, belief)
    t = h.host
    # pure play follows one path; kernel vectors would only add allocations
    pure = isinstance(s_i, PureStrategy)
    own = None if pure else kernel_vector(g, s_i, i)
    total = ZERO
    for p, w in belief:
        if w == 0:
            continue
        if pure:
            z = play_out(g, t, {**p, i: s_i})
            total += w * g.nodes[z].payoffs[i]
        else:
            kernels = {j: kernel_vector(g, sj, j) for j, sj in p.items()}
            kernels[i] = own
            total += w * behavior_payoff(g, i, t, kernels)
    return total


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
    return _payoff_from(g._st.children[t], play_table(g, t), g.nodes, i,
                        kernels, g.root(t))


def _payoff_from(kids, table, nodes, i, kernels, n) -> Fraction:
    # follow point masses without arithmetic; branch only where some
    # mover mixes
    while True:
        pairs = table.get(n)
        if pairs is None:
            return nodes[n].payoffs[i]
        dists = [kernels[j][p] for j, p in pairs]
        if all(len(d) == 1 for d in dists):
            n = kids[n][tuple([next(iter(d)) for d in dists])]
            continue
        total = ZERO
        for combo in itertools.product(*[d.items() for d in dists]):
            child = kids[n][tuple([a for a, _ in combo])]
            w = ONE
            for _, q in combo:
                w *= q
            total += w * _payoff_from(kids, table, nodes, i, kernels, child)
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


def local_deviations(g: Game, i: Player, h: InfoSet,
                     s_i: PureStrategy) -> list[PureStrategy]:
    """All strategies distinct from s_i only at h and its successors."""
    sets = deviation_sets(g, i, h)
    menus = [g.set_actions(x) for x in sets]
    out = []
    for combo in itertools.product(*menus):
        updates = dict(zip(sets, combo))
        if all(s_i.action_at(x) == a for x, a in updates.items()):
            continue
        out.append(s_i.replace(updates))
    return out


def is_rational_at(g: Game, i: Player, h: InfoSet, s_i: PureStrategy,
                   belief: Belief) -> bool:
    """No local deviation strictly improves the expected payoff at h.

    Vacuously true when the player's own strategy already avoids h.
    """
    if not reaches(g, {i: s_i}, h):
        return True
    base = expected_payoff_at(g, i, h, s_i, belief)
    for dev in local_deviations(g, i, h, s_i):
        if expected_payoff_at(g, i, h, dev, belief, validate=False) > base:
            return False
    return True


# ---------------------------------------------------------------------------
# belief systems


@dataclass
class BeliefSystem:
    """Per-information-set beliefs over opposing pure profiles.

    Profiles may correlate opponents and nature.  Conditioning ties beliefs
    together along the came-before relation whenever the later set lives in
    a weakly poorer tree and receives positive mass.
    """

    owner: Player
    beliefs: dict[InfoSet, list[tuple[PureProfile, Fraction]]]


def restrict_strategy(g: Game, s: PureStrategy, t: TreeId) -> PureStrategy:
    """Restriction of a strategy to the t-partial game's information sets."""
    keep = set(hosts_reachable(g, t))
    return PureStrategy.make(
        s.owner, {h: a for h, a in s.choices if h.host in keep})


def restrict_profile(g: Game, s: PureProfile, t: TreeId) -> PureProfile:
    return {j: restrict_strategy(g, sj, t) for j, sj in s.items()}


def conditioned_belief(g: Game, belief: Belief,
                       h_to: InfoSet) -> Optional[list[tuple[PureProfile, Fraction]]]:
    """Bayes-condition a belief on reaching h_to, restricted to h_to's
    partial game; None when the event has probability zero."""
    mass = [(restrict_profile(g, p, h_to.host), w)
            for p, w in belief if w > 0 and reaches(g, p, h_to)]
    den = sum((w for _, w in mass), ZERO)
    if den == 0:
        return None
    grouped: dict = {}
    for p, w in mass:
        k = profile_key(p)
        if k in grouped:
            grouped[k] = (p, grouped[k][1] + w)
        else:
            grouped[k] = (p, w)
    return [(p, w / den) for p, w in grouped.values()]


def belief_equal(a: Belief, b: Belief) -> bool:
    def norm(bel):
        out: dict = {}
        for p, w in bel:
            if w != 0:
                k = profile_key(p)
                out[k] = out.get(k, ZERO) + w
        return out
    return norm(a) == norm(b)


def check_belief_system(g: Game, bs: BeliefSystem) -> list[str]:
    """Violations of the belief-system invariants (empty list = valid)."""
    from .core import info_arborescence
    problems = []
    for h, belief in bs.beliefs.items():
        try:
            _check_belief(g, h, belief)
        except ValueError as e:
            problems.append(str(e))
    parents = info_arborescence(g, bs.owner)
    for h, parent in parents.items():
        if parent is None or h not in bs.beliefs or parent not in bs.beliefs:
            continue
        if not g.leq(h.host, parent.host):
            continue  # awareness rises: conditioning impossible
        cond = conditioned_belief(g, bs.beliefs[parent], h)
        here = [(restrict_profile(g, p, h.host), w) for p, w in bs.beliefs[h]]
        if cond is not None and not belief_equal(cond, here):
            problems.append("belief at %s is not the conditional of %s"
                            % (h.label(), parent.label()))
    return problems
