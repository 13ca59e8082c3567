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
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .core import Game, InfoSet, NodeId, Player, TreeId, _check_game, _memo
from .rationalizability import _class_rounds, _classes, _efr
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
    path of the richest tree.  ValueError when i is not a real player of g;
    TypeError or ValueError when s is not a total pure profile (see
    ``realized_tbar_path``)."""
    if i not in g.players:
        raise ValueError("i is not a real player of the game: %r" % (i,))
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

    Raises TypeError when g is not a Game or s is not a mapping, and
    ValueError when s is not a total pure profile (see
    ``realized_tbar_path``).
    """
    _check_game(g)
    return _discovered_along(g, realized_tbar_path(g, s))


def _discovered_along(g: Game, path: Sequence[NodeId]) -> Game:
    changed = {}
    for i in g.players:
        changed.update(_rewrite(g, i, _awareness_along(g, path, i)))
    return g._with_info(changed) if changed else g


@_memo
def _rewrite(g: Game, i: Player, t_i: TreeId) -> dict:
    """The entries of ``info`` that move when player i's view grows to
    t_i, each with its new set."""
    tbar, info, trees = g.tbar, g.info, g.trees
    richer, poorer = g._above_below(t_i)
    # each of i's sets at T^i, by host and members -> its nodes in T^i
    lifted: dict[tuple, list[NodeId]] = {}
    for n2 in sorted(trees[t_i]):
        h = info.get((i, t_i, n2))
        if h is not None:
            lifted.setdefault((h.host, h.members), []).append(n2)
    out = {}
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
    its information.  TypeError when g_from or g_to is not a Game."""
    _check_game(g_from)
    _check_game(g_to)
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


# the round of ``efr(g).rounds`` each named policy other than "all" keeps
_POLICY_ROUND = {"efr": -1, "rational_only": 1}


def _check_policy(policy) -> None:
    """ValueError unless policy is callable or a policy name."""
    if not callable(policy) and policy not in ("all", *_POLICY_ROUND):
        raise ValueError("unknown policy %r" % (policy,))


def allowed_profiles(g: Game, policy: Policy) -> list[PureProfile]:
    """The pure profiles a policy permits in a state, nature included: a
    callable policy's as it lists them, else the product of each acting
    player's pool.  Under "all" a pool holds all the player's pure
    strategies; under another named policy a real player's pool is its
    survivors of the policy's ``efr`` round, the very objects of the
    trace, and nature's holds all its pure strategies.  ValueError on an
    unknown policy name.  TypeError when g is not a Game or a callable
    policy returns no iterable."""
    _check_game(g)
    _check_policy(policy)
    if callable(policy):
        if not isinstance(got := policy(g), Iterable):
            raise TypeError("policy %r returned %r, not an iterable of "
                            "profiles" % (policy, got))
        return list(got)
    players = acting_players(g)
    survivors = {} if policy == "all" \
        else _efr(g).rounds[_POLICY_ROUND[policy]]
    pools = [survivors[j] if j in survivors
             else list(map(vector_strategy(g, j), strategy_vectors(g, j)))
             for j in players]
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
    be total (ValueError otherwise).  Named policies: ``_policy_paths``.
    """
    players = acting_players(g)
    if isinstance(source, str):
        pools, found = _policy_paths(g, source)
        makers = [vector_strategy(g, j) for j in players]
        return [(path, {j: make(pool[x]) for j, make, pool, x
                        in zip(players, makers, pools, first)}, count)
                for first, path, count in found]
    if callable(source):
        source = [(s, 1) for s in allowed_profiles(g, source)]
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


def _policy_paths(g: Game, policy: str) -> tuple[list, list]:
    """A named policy's pools, per acting player, and per path class in
    product order (pool indices of its first profile, path, weight).  The
    profiles are never enumerated: a stack loop descends the richest tree
    once, splitting each mover's pool by its action at the node, so a path
    class is the product of the per-player subsets that reach its terminal
    node.  Under "all" a pool holds a player's vectors; under another
    policy, the first members of its permitted classes (``_classes``), each
    weighing its class size: a play-out reads a class only where it
    reaches, so its members split alike.  "all" could walk every class the
    same way, but would then build a class table for each state of an
    all-profiles supergame, which nothing else there needs."""
    players = acting_players(g)
    sizes = None
    if policy == "all":
        pools = [strategy_vectors(g, j) for j in players]
    else:
        alive = _class_rounds(g)[_POLICY_ROUND[policy]]
        pools, sizes = [], []
        for j in players:
            table, cs = _classes(g, j), sorted(alive[j])
            pools.append([table.first[c] for c in cs])
            sizes.append([table.size[c] for c in cs])
        # plain counts are cheaper than summing unit weights
        if all(s == 1 for w in sizes for s in w):
            sizes = None
    tbar = g.tbar
    kids, table = g._st.children[tbar], play_table(g, tbar)
    slot = {j: k for k, j in enumerate(players)}
    found: list = []  # (first indices, path, profile count) per terminal
    stack = [(g.root(tbar), [range(len(p)) for p in pools], ())]
    while stack:
        n, subsets, path = stack.pop()
        path += (n,)
        pairs = table.get(n)
        if pairs is None:
            if sizes is None:
                count = math.prod(map(len, subsets))
            else:
                count = math.prod(sum(map(size.__getitem__, sub))
                                  for size, sub in zip(sizes, subsets))
            found.append((tuple(sub[0] for sub in subsets), path, count))
            continue
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
                stack.append((c, sub, path))
    # lexicographic first indices give the product order
    return pools, sorted(found)


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
    TypeError when g0 is not a Game; ValueError on an unknown policy name.
    """
    _check_game(g0)
    _check_policy(policy)
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


def _check_supergame(sg) -> None:
    """TypeError unless sg is a DiscoverySupergame."""
    if not isinstance(sg, DiscoverySupergame):
        raise TypeError("expected a DiscoverySupergame, not %r" % (sg,))


def self_confirming_games(sg: DiscoverySupergame) -> set[Game]:
    """States whose every allowed-profile edge is a self-loop.  TypeError
    when sg is not a DiscoverySupergame."""
    _check_supergame(sg)
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
    TypeError when g0 is not a Game or f is neither None nor callable;
    ValueError on an unknown policy name.
    """
    _check_game(g0)
    _check_policy(policy)
    if f is not None and not callable(f):
        raise TypeError("f must be callable, not %r" % (f,))
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
    labeled by their realized path.  TypeError when sg is not a
    DiscoverySupergame or labels is neither None nor a mapping."""
    _check_supergame(sg)
    if labels is not None and not isinstance(labels, Mapping):
        raise TypeError("labels must be a mapping, not %r" % (labels,))
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
