"""Discovered versions, the discovery supergame, and discovery processes.

Playing a pure profile reveals, along the realized path of the richest tree,
information sets whose host trees a player may not have been aware of.  The
discovered version of a game rewrites every information set the player can
now place inside their enlarged view; everything else (trees, players,
payoffs) stays fixed.  Iterating this transition over a policy's allowed
profiles yields a finite directed graph over canonical games, whose sinks
are the self-confirming games.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .core import Game, InfoSet, NodeId, Player, TreeId
from .rationalizability import _class_rounds, _classes
from .strategies import (
    PureProfile,
    acting_players,
    play_table,
    profile_key,
    realized_tbar_path,
    strategy_vectors,
    vector_strategy,
)

Policy = Union[str, Callable[[Game], Sequence[PureProfile]]]


def awareness_tree(g: Game, s: PureProfile, i: Player) -> TreeId:
    """Join of the host trees of i's information sets along the realized
    path of the richest tree."""
    return _awareness_along(g, realized_tbar_path(g, s), i)


def _awareness_along(g: Game, path: Sequence[NodeId], i: Player) -> TreeId:
    tbar, info = g.tbar, g.info
    return functools.reduce(g.join, {
        h.host for n in path if (h := info.get((i, tbar, n))) is not None})


def discovered_version(g: Game, s: PureProfile) -> Game:
    """The game after everyone updates their view from playing s.

    It depends on s only through the realized path of the richest tree:
    every player's enlarged view T^i is the join of the hosts of the sets
    they meet along that path.  Per player, an information set keyed at
    tree T'' moves only when the host of its richest-tree anchor is inside
    T^i: it is rebuilt in T^i itself when T'' is at least as rich,
    projected onto T'' when T'' is poorer, and left alone when the trees
    are incomparable.  The version shares g's players, trees and nodes;
    when no set moves, it is g itself.

    Raises ValueError when s is not a total pure profile (see
    ``realized_tbar_path``).
    """
    return _discovered_along(g, realized_tbar_path(g, s))


def _discovered_along(g: Game, path: Sequence[NodeId]) -> Game:
    changed = {}
    for i in g.players:
        changed.update(_rewrite(g, i, _awareness_along(g, path, i)))
    return g._with_info(changed) if changed else g


def _rewrite(g: Game, i: Player, t_i: TreeId) -> dict:
    """The entries of ``info`` that move when player i's view grows to
    t_i, each with its new set; computed once per game, player and tree."""
    out = g._ix.rewrites.get((i, t_i))
    if out is not None:
        return out
    tbar, info, trees = g.tbar, g.info, g.trees
    richer, poorer = g._above_below(t_i)
    # each of i's sets at T^i, by host and members -> its nodes in T^i
    lifted: dict[tuple, list[NodeId]] = {}
    for n2 in sorted(trees[t_i]):
        h = info.get((i, t_i, n2))
        if h is not None:
            lifted.setdefault((h.host, h.members), []).append(n2)
    out = g._ix.rewrites[(i, t_i)] = {}
    for key in g._own_keys(i):
        t2, n = key[1], key[2]
        anchor = info[(i, tbar, n)]
        if anchor.host not in poorer:
            continue  # the revelation does not cover this set
        got = lifted.get((anchor.host, anchor.members), ())
        if t2 in richer:
            host, members = t_i, tuple(got)
        elif t2 in poorer:
            ns = trees[t2]
            host, members = t2, tuple(x for x in got if x in ns)
        else:
            continue  # incomparable trees: unchanged
        old = info[key]
        if old.host != host or old.members != members:
            out[key] = InfoSet(i, host, members)
    return out


@dataclass
class DiscoveryReport:
    more_awareness: bool
    preserves_information: bool


def discovery_relations(g_from: Game, g_to: Game) -> DiscoveryReport:
    """Whether g_to has weakly more awareness than g_from and preserves
    its information."""
    if (g_from.players != g_to.players or g_from.trees != g_to.trees
            or g_from.nodes != g_to.nodes):
        raise ValueError("games do not share players, trees and payoffs")
    more = all(g_from.leq(g_from.info[k].host, g_to.info[k].host)
               for k in g_from.info)
    preserves = True
    grouped: dict[tuple, InfoSet] = {}
    for k, old in g_from.info.items():
        new = g_to.info[k]
        if not set(old.members) <= set(new.members):
            preserves = False
            break
        # nodes of one tree that were pooled stay pooled
        key = (k[0], k[1], old)
        if grouped.setdefault(key, new) != new:
            preserves = False
            break
    return DiscoveryReport(more, preserves)


# ---------------------------------------------------------------------------
# policies and the supergame


def _vector_pools(g: Game,
                  policy: str) -> tuple[list[Player], list[list[tuple]]]:
    """The acting players, nature first when it moves, and the action
    vectors (``strategy_vectors``) a named policy permits each of them, in
    ``strategy_vectors`` order."""
    players = acting_players(g)
    if policy == "all":
        return players, [strategy_vectors(g, j) for j in players]
    if policy == "efr":
        alive = _class_rounds(g)[-1]
    elif policy == "rational_only":
        alive = _class_rounds(g)[1]
    else:
        raise ValueError("unknown policy %r" % (policy,))
    return players, [[v for v, c in _classes(g, j).of.items() if c in alive[j]]
                     for j in players]


def allowed_profiles(g: Game, policy: Policy) -> list[PureProfile]:
    """The pure profiles a policy permits in a state, nature included."""
    if callable(policy):
        return list(policy(g))
    players, pools = _vector_pools(g, policy)
    pools = [list(map(vector_strategy(g, j), pool))
             for j, pool in zip(players, pools)]
    return [dict(zip(players, combo)) for combo in itertools.product(*pools)]


def _path_classes(g: Game, source: Union[Policy, Sequence[tuple]]
                  ) -> list[tuple]:
    """Group allowed profiles by their realized richest-tree path.

    ``source`` is a named policy, a callable policy, or an explicit list of
    (profile, weight) pairs.  Returns one (path, representative, weight)
    per path, in the order the paths first appear among the profiles; the
    representative is the first profile with the path, restricted to the
    acting players.  A named policy's profiles come in ``allowed_profiles``
    order and a callable policy's in its own, each weighing 1.  Explicit
    profiles weigh as given (those with weight <= 0 are dropped) and must
    be total (ValueError otherwise).

    A named policy's profiles are never enumerated: the walk descends the
    richest tree once, splitting each mover's pool by its action at the
    node, so a path class is the product of the per-player subsets that
    reach its terminal node.
    """
    if isinstance(source, str):
        players, pools = _vector_pools(g, source)
        tbar = g.tbar
        found: list = []
        _walk(g._st.children[tbar], play_table(g, tbar), pools,
              {j: k for k, j in enumerate(players)}, g.root(tbar),
              [range(len(p)) for p in pools], [], found)
        makers = [vector_strategy(g, j) for j in players]
        # lexicographic first indices give the product order
        return [(path, {j: make(pool[x]) for j, make, pool, x
                        in zip(players, makers, pools, first)}, count)
                for first, path, count in sorted(found)]
    if callable(source):
        source = [(s, 1) for s in source(g)]
    players = acting_players(g)
    merged: dict[tuple[NodeId, ...], list] = {}
    for s, w in source:
        if w > 0:
            path = tuple(realized_tbar_path(g, s))
            got = merged.get(path)
            if got is None:
                merged[path] = [path, {j: s[j] for j in players}, w]
            else:
                got[2] += w
    return list(map(tuple, merged.values()))


def _walk(kids, table, pools, slot: dict[Player, int], n: NodeId,
          subsets: list, path: list[NodeId], found: list) -> None:
    """Append (first indices, path, profile count) for every terminal node
    below n that some profile of the subsets reaches.  ``kids`` and
    ``table`` are the richest tree's children and ``play_table``.

    A module-level function, not a closure: a self-referencing closure is a
    reference cycle, which only the cyclic collector frees, so every
    state's game and pools would outlive the call.
    """
    path.append(n)
    pairs = table.get(n)
    if pairs is None:
        found.append((tuple(sub[0] for sub in subsets), tuple(path),
                      math.prod(map(len, subsets))))
    else:
        split = []
        for j, p in pairs:
            k = slot[j]
            pool = pools[k]
            by: dict[str, list[int]] = {}
            for x in subsets[k]:
                by.setdefault(pool[x][p], []).append(x)
            split.append((k, by))
        for prof, c in kids[n].items():
            sub = list(subsets)
            for (k, by), a in zip(split, prof):
                got = by.get(a)
                if got is None:
                    break
                sub[k] = got
            else:
                _walk(kids, table, pools, slot, c, sub, path, found)
    path.pop()


@dataclass
class DiscoverySupergame:
    states: list[Game]
    initial: int
    # per state, realized richest-tree path -> successor state index
    edges: dict[int, dict[tuple[NodeId, ...], int]]
    # per state and path class, one representative allowed profile
    representatives: dict[int, dict[tuple[NodeId, ...], PureProfile]]
    policy: Policy
    # each state's info values, in the initial state's key order -> the
    # state's index.  Every state shares the initial state's players, trees
    # and nodes, so that key tells states apart as canonical equality does.
    ids: dict[tuple, int] = field(repr=False, compare=False)

    def index(self, g: Game) -> int:
        """The index of the state equal to g; ValueError when g is not a
        state."""
        g0 = self.states[self.initial]
        if isinstance(g, Game) and len(g.info) == len(g0.info) \
                and g.canonical_key()[:3] == g0.canonical_key()[:3]:
            k = self.ids.get(tuple(map(g.info.get, g0.info)))
            if k is not None:
                return k
        raise ValueError("%r is not a supergame state" % (g,))

    def successors(self, k: int) -> set[int]:
        return set(self.edges[k].values())

    def is_absorbing(self, k: int) -> bool:
        return self.successors(k) == {k}


def build_supergame(g0: Game, policy: Policy) -> DiscoverySupergame:
    """Breadth-first closure of the discovered-version transition.

    One edge per realized-path class of allowed profiles.  A discovered
    version changes only ``info`` and shares the rest with g0, so states
    are deduplicated by their info values in g0's key order (``ids``),
    which within one supergame is canonical equality.
    """
    keys = tuple(g0.info)
    states = [g0]
    ids = {tuple(map(g0.info.__getitem__, keys)): 0}
    edges: dict[int, dict[tuple[NodeId, ...], int]] = {}
    reps: dict[int, dict[tuple[NodeId, ...], PureProfile]] = {}
    frontier = [0]
    while frontier:
        k = frontier.pop(0)
        g = states[k]
        edges[k] = {}
        reps[k] = {}
        for path, s, _ in _path_classes(g, policy):
            succ = _discovered_along(g, path)
            # a version where no set moves is the state itself
            j = k if succ is g else ids.setdefault(
                tuple(map(succ.info.__getitem__, keys)), len(states))
            if j == len(states):
                states.append(succ)
                frontier.append(j)
            edges[k][path] = j
            reps[k][path] = s
    return DiscoverySupergame(states, 0, edges, reps, policy, ids)


def self_confirming_games(sg: DiscoverySupergame) -> set[Game]:
    """States whose every allowed-profile edge is a self-loop."""
    return {sg.states[k] for k in sg.edges if sg.is_absorbing(k)}


# ---------------------------------------------------------------------------
# discovery processes


@dataclass
class DiscoveryTrace:
    states: list[Game]
    profiles: list[PureProfile]

    @property
    def absorbing(self) -> Game:
        return self.states[-1]


Sampler = Callable[[Game, Sequence[PureProfile]],
                   Sequence[tuple[PureProfile, object]]]


def run_discovery(g0: Game, policy: Policy, f: Optional[Sampler] = None,
                  seed: Optional[int] = None) -> DiscoveryTrace:
    """Simulate the discovery process until an absorbing state.

    ``f`` maps a state and its allowed profiles to a weighted list; the
    default is uniform.  The draw is exact, so huge and tiny weights keep
    their ratios.  Sampling is conditioned on state-changing profiles
    (staying put is dropped, which every full-support process leaves almost
    surely), so the trace length is bounded by 1 + players * trees.
    """
    rng = random.Random(seed)
    states = [g0]
    profiles: list[PureProfile] = []
    bound = 1 + len(g0.players) * len(g0.trees)
    while True:
        g = states[-1]
        if f is None:
            source = policy
        else:
            allowed = allowed_profiles(g, policy)
            source = list(f(g, allowed))
            permitted = {profile_key(s) for s in allowed}
            if any(profile_key(s) not in permitted for s, _ in source):
                raise ValueError("sampler support leaves the policy set")
        # profiles with the same realized path share their transition, so
        # one discovered version per path class suffices
        moving = []
        for path, s, w in _path_classes(g, source):
            succ = _discovered_along(g, path)
            if succ is not g:
                moving.append((s, w, succ))
        if not moving:
            return DiscoveryTrace(states, profiles)
        # exact: random() is a multiple of 2**-53, so the pick is exact too
        weights = [Fraction(w) for _, w, _ in moving]
        pick = Fraction(rng.random()) * sum(weights)
        acc = 0
        chosen, _, succ = moving[-1]
        for (s, _, nxt), w in zip(moving, weights):
            acc += w
            if pick <= acc:
                chosen, succ = s, nxt
                break
        states.append(succ)
        profiles.append(chosen)
        assert len(states) <= bound, "discovery trace exceeded its bound"


# ---------------------------------------------------------------------------
# DOT export


def supergame_dot(sg: DiscoverySupergame,
                  labels: Optional[Mapping[Game, str]] = None) -> str:
    """Deterministic DOT rendering; states in discovery order, edges
    labeled by their realized path."""
    name = {}
    for k, g in enumerate(sg.states):
        base = labels.get(g) if labels else None
        name[k] = base or "s%d" % k
    lines = ["digraph discovery {"]
    for k in range(len(sg.states)):
        shape = "doublecircle" if sg.is_absorbing(k) else "ellipse"
        lines.append('  "%s" [shape=%s];' % (name[k], shape))
    for k in sorted(sg.edges):
        for path in sorted(sg.edges[k]):
            j = sg.edges[k][path]
            label = "-".join(str(n) for n in path)
            lines.append('  "%s" -> "%s" [label="%s"];'
                         % (name[k], name[j], label))
    lines.append("}")
    return "\n".join(lines) + "\n"
