"""Seeded random games for the property-test suites.

The construction keeps every structural axiom true by design and still runs
the validator on each output.  Trees form a chain obtained by cumulatively
pruning actions from a full game tree, action labels are globally unique per
decision node, and information sets are singletons whose host tree is the
meet of the observing tree with the player's awareness level (never poorer
than the poorest tree containing the node).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .core import (
    Game, InfoSet, NATURE, NodeData, NodeId, TreeId, _check_game, validate_game)
from .strategies import PureProfile, PureStrategy, acting_players

CAPS = {"players": 3, "depth": 4, "branching": 4, "tree_count": 5}

_RETRIES = 20


@dataclass(frozen=True)
class GenParams:
    players: int = 2
    depth: int = 2
    branching: int = 2
    tree_count: int = 2
    nature: bool = False
    common_constant: bool = False


def _check_caps(p: GenParams) -> None:
    for name, cap in CAPS.items():
        if getattr(p, name) > cap:
            raise ValueError("cap exceeded: %s=%d > %d"
                             % (name, getattr(p, name), cap))
    if p.players < 1 or p.depth < 1 or p.branching < 2 or p.tree_count < 1:
        raise ValueError("parameters out of range: %r" % (p,))


def _build_tree(p: GenParams, rng: random.Random):
    """A full game tree: one mover per decision node, globally unique action
    labels, distinct payoffs per player across terminals."""
    real = list(range(1, p.players + 1))
    nodes: dict[NodeId, dict] = {}
    frontier = [(0, None, 0)]  # (id, parent, depth)
    next_id = 1
    terminals = []
    while frontier:
        n, parent, d = frontier.pop(0)
        stop = d >= p.depth or (d >= 1 and rng.random() < 0.25)
        if stop:
            nodes[n] = {"parent": parent, "terminal": True}
            terminals.append(n)
            continue
        mover = NATURE if p.nature and d == 0 else rng.choice(real)
        width = rng.randint(2, p.branching)
        labels = tuple("a%d_%d" % (n, k) for k in range(width))
        kids = dict(zip(labels, range(next_id, next_id + width)))
        frontier += [(c, n, d + 1) for c in kids.values()]
        next_id += width
        nodes[n] = {"parent": parent, "mover": mover, "labels": labels,
                    "kids": kids, "terminal": False}
    # distinct payoffs per player make backward induction generic
    for i in real:
        vals = rng.sample(range(4 * len(terminals)), len(terminals))
        for z, v in zip(terminals, vals):
            nodes[z].setdefault("payoffs", {})[i] = Fraction(v)
    return real, nodes


def _subtree(nodes, n) -> list:
    """n and every node below it."""
    out = [n]
    for m in out:
        if not nodes[m]["terminal"]:
            out.extend(nodes[m]["kids"].values())
    return out


def _chain(p: GenParams, rng: random.Random, nodes) -> list[tuple]:
    """Strictly nested node sets, richest last, built by cumulative pruning.
    Nature's actions are never pruned and every mover keeps an action."""
    levels = [(frozenset(nodes), frozenset())]
    while len(levels) < p.tree_count:
        ns, pruned = levels[0]
        open_slots = []
        for n in sorted(ns):
            nd = nodes[n]
            if nd["terminal"] or nd["mover"] == NATURE:
                continue
            live = [a for a in nd["labels"] if (n, a) not in pruned]
            if len(live) >= 2:
                open_slots.extend((n, a) for a in live)
        if not open_slots:
            break
        n, a = cut = rng.choice(open_slots)
        levels.insert(0, (ns.difference(_subtree(nodes, nodes[n]["kids"][a])),
                          pruned | {cut}))
    return levels


def _check_seed(seed) -> None:
    """TypeError unless seed is an int that is not a bool."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError("seed must be an int, not %r" % (seed,))


def generate_random_game(params: Optional[GenParams] = None, seed: int = 0,
                         **overrides) -> Game:
    """Deterministic-in-seed random game satisfying all structural axioms.

    Raises TypeError when params is neither None nor a GenParams or seed is
    not an int (a bool is not one), ValueError when a parameter exceeds its
    cap and RuntimeError if no valid game emerges within the retry budget
    (which the construction should never need; the validator still has the
    last word).
    """
    if params is not None and not isinstance(params, GenParams):
        raise TypeError("params must be a GenParams, not %r" % (params,))
    _check_seed(seed)
    p = replace(params or GenParams(), **overrides)
    _check_caps(p)
    for attempt in range(_RETRIES):
        g = _generate_once(p, random.Random(seed * _RETRIES + attempt))
        if validate_game(g).ok:
            return g
    raise RuntimeError("generation failure after %d retries" % _RETRIES)


def _generate_once(p: GenParams, rng: random.Random) -> Game:
    real, raw = _build_tree(p, rng)
    levels = _chain(p, rng, raw)
    tree_ids = ["T%d" % k for k in range(len(levels))]
    trees = {tid: ns for tid, (ns, _) in zip(tree_ids, levels)}

    nodes: dict[NodeId, NodeData] = {}
    for n, nd in raw.items():
        if nd["terminal"]:
            nodes[n] = NodeData(parent=nd["parent"], payoffs=nd["payoffs"])
        else:
            mover = nd["mover"]
            nodes[n] = NodeData(
                parent=nd["parent"], players=(mover,),
                actions={mover: nd["labels"]},
                children={(a,): c for a, c in nd["kids"].items()})

    # per node, the position of the poorest tree that has it
    least = {}
    for k, tid in enumerate(tree_ids):  # poorest first
        for n in trees[tid]:
            least.setdefault(n, k)
    if p.common_constant:
        level_of = {i: len(tree_ids) - 1 for i in real}
    else:
        level_of = {i: rng.randrange(len(tree_ids)) for i in real}

    # a mover must be aware of all their own action branches, and by perfect
    # recall that awareness persists down the path; floor(i, n) accumulates it
    floor: dict[tuple[int, NodeId], int] = {}
    for n in sorted(raw):   # parents first
        nd = raw[n]
        for i in real:
            floor[(i, n)] = floor.get((i, nd["parent"]), 0)
        if not nd["terminal"] and nd["mover"] != NATURE:
            i = nd["mover"]
            own = max(least[c] for c in nd["kids"].values())
            floor[(i, n)] = max(floor[(i, n)], own)

    # per watcher of each node, its awareness level there and its set in
    # the trees at least that rich; a poorer tree hosts the set itself
    watched = {}
    for n, nd in raw.items():
        watchers = real if nd["terminal"] else \
            ([nd["mover"]] if nd["mover"] != NATURE else [])
        watched[n] = []
        for i in watchers:
            level = max(level_of[i], least[n], floor[(i, n)])
            watched[n].append((i, level, InfoSet(i, tree_ids[level], (n,))))
    info = {}
    for k, tid in enumerate(tree_ids):
        for n in sorted(trees[tid]):
            for i, level, h in watched[n]:
                info[(i, tid, n)] = h if k >= level else InfoSet(i, tid, (n,))
    return Game(real, trees, nodes, info)


def random_profile(g: Game, seed: int = 0) -> PureProfile:
    """A uniformly drawn pure profile, nature included when it moves.
    TypeError when g is not a Game or seed is not an int (a bool is not
    one)."""
    _check_game(g)
    _check_seed(seed)
    rng = random.Random(seed)
    out = {}
    for j in acting_players(g):
        choice = {h: rng.choice(g.set_actions(h)) for h in g.decision_sets(j)}
        out[j] = PureStrategy.make(j, choice)
    return out
