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

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from .core import Game, InfoSet, NATURE, NodeId, Player, TreeId
from .rationalizability import efr
from .strategies import (
    PureProfile,
    has_nature,
    path_info_sets,
    profile_key,
    pure_strategies,
    realized_tbar_path,
)

Policy = Union[str, Callable[[Game], Sequence[PureProfile]]]

POLICIES = ("efr", "rational_only", "all")


def awareness_tree(g: Game, s: PureProfile, i: Player) -> TreeId:
    """Join of the host trees of i's information sets along the realized
    path of the richest tree."""
    hosts = {h.host for h in path_info_sets(g, s, i)}
    tree = None
    for t in hosts:
        tree = t if tree is None else g.join(tree, t)
    assert tree is not None
    return tree


def discovered_version(g: Game, s: PureProfile) -> Game:
    """The game after everyone updates their view from playing s.

    Per player i with enlarged view T^i, an information set keyed at tree
    T'' moves only when the host of its richest-tree anchor is inside T^i:
    it is rebuilt in T^i itself when T'' is at least as rich, projected
    onto T'' when T'' is poorer, and left alone when the trees are
    incomparable.
    """
    tbar = g.tbar
    new_info = dict(g.info)
    for i in g.players:
        t_i = awareness_tree(g, s, i)
        a_cache: dict[InfoSet, tuple[NodeId, ...]] = {}

        def lifted_members(anchor: InfoSet) -> tuple[NodeId, ...]:
            got = a_cache.get(anchor)
            if got is None:
                got = tuple(sorted(
                    n2 for n2 in g.trees[t_i]
                    if g.info.get((i, t_i, n2)) == anchor))
                a_cache[anchor] = got
            return got

        for (j, t2, n), old in g.info.items():
            if j != i:
                continue
            anchor = g.info[(i, tbar, n)]
            if not g.leq(anchor.host, t_i):
                continue  # the revelation does not cover this set
            if g.leq(t_i, t2):
                members = lifted_members(anchor)
                new_info[(i, t2, n)] = InfoSet(i, t_i, members)
            elif g.leq(t2, t_i):
                members = tuple(x for x in lifted_members(anchor)
                                if x in g.trees[t2])
                new_info[(i, t2, n)] = InfoSet(i, t2, members)
            # incomparable trees: unchanged
    return Game(g.players, g.trees, g.nodes, new_info)


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


def allowed_profiles(g: Game, policy: Policy) -> list[PureProfile]:
    """The pure profiles a policy permits in a state, nature included."""
    if callable(policy):
        return list(policy(g))
    if policy == "all":
        pools = {i: pure_strategies(g, i) for i in g.players}
    elif policy == "efr":
        pools = efr(g).surviving()
    elif policy in ("rational_only", "rational"):
        pools = efr(g).rounds[1]
    else:
        raise ValueError("unknown policy %r" % (policy,))
    players = list(g.players)
    sets = [pools[i] for i in players]
    if has_nature(g):
        players = [NATURE] + players
        sets = [pure_strategies(g, NATURE)] + sets
    return [dict(zip(players, combo)) for combo in itertools.product(*sets)]


@dataclass
class DiscoverySupergame:
    states: list[Game]
    initial: int
    # per state, realized richest-tree path -> successor state index
    edges: dict[int, dict[tuple[NodeId, ...], int]]
    # per state and path class, one representative allowed profile
    representatives: dict[int, dict[tuple[NodeId, ...], PureProfile]]
    policy: Policy
    # canonical key of each state -> its index
    ids: dict[tuple, int] = field(repr=False, compare=False)

    def index(self, g: Game) -> int:
        try:
            return self.ids[g.canonical_key()]
        except KeyError:
            raise ValueError("%r is not a supergame state" % g) from None

    def successors(self, k: int) -> set[int]:
        return set(self.edges[k].values())

    def is_absorbing(self, k: int) -> bool:
        return self.successors(k) == {k}


def build_supergame(g0: Game, policy: Policy) -> DiscoverySupergame:
    """Breadth-first closure of the discovered-version transition.

    One edge per realized-path class of allowed profiles; states are
    deduplicated by canonical equality.
    """
    states = [g0]
    ids = {g0.canonical_key(): 0}
    edges: dict[int, dict[tuple[NodeId, ...], int]] = {}
    reps: dict[int, dict[tuple[NodeId, ...], PureProfile]] = {}
    frontier = [0]
    while frontier:
        k = frontier.pop(0)
        g = states[k]
        edges[k] = {}
        reps[k] = {}
        for s in allowed_profiles(g, policy):
            path = tuple(realized_tbar_path(g, s))
            if path in edges[k]:
                continue
            succ = discovered_version(g, s)
            j = ids.setdefault(succ.canonical_key(), len(states))
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
    default is uniform.  Sampling is conditioned on state-changing profiles
    (staying put is dropped, which every full-support process leaves almost
    surely), so the trace length is bounded by 1 + players * trees.
    """
    rng = random.Random(seed)
    states = [g0]
    profiles: list[PureProfile] = []
    bound = 1 + len(g0.players) * len(g0.trees)
    while True:
        g = states[-1]
        allowed = allowed_profiles(g, policy)
        if f is None:
            weighted = [(s, 1) for s in allowed]
        else:
            weighted = list(f(g, allowed))
            permitted = {profile_key(s) for s in allowed}
            if any(profile_key(s) not in permitted for s, _ in weighted):
                raise ValueError("sampler support leaves the policy set")
        # profiles with the same realized path share their transition, so
        # one discovered version per path class suffices
        by_path: dict[tuple, list] = {}
        for s, w in weighted:
            if w > 0:
                path = tuple(realized_tbar_path(g, s))
                by_path.setdefault(path, [s, 0])[1] += w
        moving = []
        for s, w in by_path.values():
            succ = discovered_version(g, s)
            if succ != g:
                moving.append((s, w, succ))
        if not moving:
            return DiscoveryTrace(states, profiles)
        total = float(sum(w for _, w, _ in moving))
        pick = rng.uniform(0, total)
        acc = 0.0
        chosen, succ = moving[-1][0], moving[-1][2]
        for s, w, nxt in moving:
            acc += float(w)
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
