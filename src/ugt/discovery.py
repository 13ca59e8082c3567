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
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from .core import Game, InfoSet, NATURE, NodeId, Player, TreeId
from .rationalizability import efr
from .strategies import (
    PureProfile,
    PureStrategy,
    _check_total,
    _key_set,
    _sets_along,
    acting_players,
    profile_key,
    pure_strategies,
    realized_tbar_path,
)

Policy = Union[str, Callable[[Game], Sequence[PureProfile]]]

POLICIES = ("efr", "rational_only", "all")


def awareness_tree(g: Game, s: PureProfile, i: Player) -> TreeId:
    """Join of the host trees of i's information sets along the realized
    path of the richest tree."""
    return _awareness_along(g, realized_tbar_path(g, s), i)


def _awareness_along(g: Game, path: Sequence[NodeId], i: Player) -> TreeId:
    tree = None
    for t in {h.host for h in _sets_along(g, path, i)}:
        tree = t if tree is None else g.join(tree, t)
    assert tree is not None
    return tree


def discovered_version(g: Game, s: PureProfile) -> Game:
    """The game after everyone updates their view from playing s.

    It depends on s only through the realized path of the richest tree:
    every player's enlarged view T^i is the join of the hosts of the sets
    they meet along that path.  Per player, an information set keyed at
    tree T'' moves only when the host of its richest-tree anchor is inside
    T^i: it is rebuilt in T^i itself when T'' is at least as rich,
    projected onto T'' when T'' is poorer, and left alone when the trees
    are incomparable.

    Raises ValueError when s is not a total pure profile (see
    ``realized_tbar_path``).
    """
    return _discovered_along(g, realized_tbar_path(g, s))


def _discovered_along(g: Game, path: Sequence[NodeId]) -> Game:
    tbar = g.tbar
    new_info = dict(g.info)
    for i in g.players:
        t_i = _awareness_along(g, path, i)
        richer = {t for t in g.trees if g.leq(t_i, t)}
        poorer = {t for t in g.trees if g.leq(t, t_i)}
        # anchor -> its members in T^i, from one pass over T^i
        lifted: dict[InfoSet, list[NodeId]] = {}
        for n2 in sorted(g.trees[t_i]):
            h = g.info.get((i, t_i, n2))
            if h is not None:
                lifted.setdefault(h, []).append(n2)
        for (j, t2, n), old in g.info.items():
            if j != i:
                continue
            anchor = g.info[(i, tbar, n)]
            if anchor.host not in poorer:
                continue  # the revelation does not cover this set
            if t2 in richer:
                members = tuple(lifted.get(anchor, ()))
                new_info[(i, t2, n)] = InfoSet(i, t_i, members)
            elif t2 in poorer:
                members = tuple(x for x in lifted.get(anchor, ())
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


def _pools(g: Game,
           policy: str) -> tuple[list[Player], list[list[PureStrategy]]]:
    """The acting players, nature first when it moves, and the pure
    strategies a named policy permits each of them."""
    if policy == "all":
        pools = {i: pure_strategies(g, i) for i in g.players}
    elif policy == "efr":
        pools = efr(g).surviving()
    elif policy in ("rational_only", "rational"):
        pools = efr(g).rounds[1]
    else:
        raise ValueError("unknown policy %r" % (policy,))
    players = acting_players(g)
    return players, [pools[i] if i != NATURE else pure_strategies(g, NATURE)
                     for i in players]


def allowed_profiles(g: Game, policy: Policy) -> list[PureProfile]:
    """The pure profiles a policy permits in a state, nature included."""
    if callable(policy):
        return list(policy(g))
    players, pools = _pools(g, policy)
    return [dict(zip(players, combo)) for combo in itertools.product(*pools)]


def _path_classes(g: Game, source: Union[Policy, Sequence[tuple]]
                  ) -> list[tuple]:
    """Group allowed profiles by their realized richest-tree path.

    ``source`` is a named policy, a callable policy, or an explicit list of
    (profile, weight) pairs.  Returns one (path, representative, weight)
    per path, in the order the paths first appear among the profiles: for
    a named policy that is ``allowed_profiles`` order, the representative
    is the first profile with the path and the weight counts the profiles.
    Explicit profiles weigh as given (those with weight <= 0 are dropped)
    and must be total (ValueError otherwise); a callable policy's profiles
    weigh 1.

    A named policy's profiles are never enumerated: the walk descends the
    richest tree once, splitting each mover's pool by its action at the
    node, so a path class is the product of the per-player subsets that
    reach its terminal node.  An explicit profile is a product of
    singletons.
    """
    if callable(source):
        source = [(s, 1) for s in source(g)]
    if isinstance(source, str):
        players, pools = _pools(g, source)
        blocks = [(pools, 1)]
    else:
        players = acting_players(g)
        blocks = []
        for s, w in source:
            if w > 0:
                _check_total(g, s)
                blocks.append(([[s[j]] for j in players], w))
    tbar = g.tbar
    slot = {j: k for k, j in enumerate(players)}
    merged: dict[tuple[NodeId, ...], list] = {}
    for pools, w in blocks:
        found: list = []
        _walk(g, tbar, pools, slot, g.root(tbar),
              [list(range(len(p))) for p in pools], [], found)
        # lexicographic first indices give the product order
        for first, path, count in sorted(found):
            got = merged.get(path)
            if got is None:
                merged[path] = [dict(zip(players, (
                    p[x] for p, x in zip(pools, first)))), count * w]
            else:
                got[1] += count * w
    return [(path, s, w) for path, (s, w) in merged.items()]


def _walk(g: Game, tbar: TreeId, pools, slot: dict[Player, int], n: NodeId,
          subsets: list[list[int]], path: list[NodeId], found: list) -> None:
    """Append (first indices, path, profile count) for every terminal node
    below n that some profile of the subsets reaches.

    A module-level function, not a closure: a self-referencing closure is a
    reference cycle, which only the cyclic collector frees, so every
    state's game and pools would outlive the call.
    """
    path.append(n)
    kids = g._ix.children[tbar][n]
    if not kids:
        found.append((tuple(sub[0] for sub in subsets), tuple(path),
                      math.prod(map(len, subsets))))
    else:
        split = []
        for j in sorted(g.nodes[n].players):
            h = _key_set(g, j, tbar, n)
            k = slot[j]
            by: dict[str, list[int]] = {}
            for x in subsets[k]:
                by.setdefault(pools[k][x].as_dict()[h], []).append(x)
            split.append((k, by))
        for prof, c in kids.items():
            sub = list(subsets)
            for (k, by), a in zip(split, prof):
                got = by.get(a)
                if got is None:
                    break
                sub[k] = got
            else:
                _walk(g, tbar, pools, slot, c, sub, path, found)
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
        for path, s, _ in _path_classes(g, policy):
            succ = _discovered_along(g, path)
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
