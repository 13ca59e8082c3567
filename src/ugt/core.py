"""Core data model for finite extensive-form games with unawareness.

A game consists of a single "upmost" tree together with a join-semilattice of
subtrees, each describing a coarser view of the same strategic situation.
Nodes are shared across trees by id: the copy of node ``n`` in tree ``T`` is
simply the pair ``(n, T)``, so copies commute by construction.  Information
sets may live in a tree poorer than the one the node belongs to; that is how
unawareness is encoded.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

NodeId = int
TreeId = str
Player = int

NATURE: Player = 0

_MISS = object()


def _memo(f=None, *, shared: bool = False):
    """Memoize ``f(g, *args)`` under the key ``(f, *args)`` in a memo home
    of the game g (see ``Game``): its own, or with ``shared=True`` the one
    it shares with its discovered versions.  Usable bare (``@_memo``) or
    with the keyword (``@_memo(shared=True)``).  The arguments must be
    players, tree ids or node ids, and the value must not refer to g.
    """
    if f is None:
        return functools.partial(_memo, shared=shared)
    home = operator.attrgetter("_shared" if shared else "_memo")
    if f.__code__.co_argcount == 2:
        # packing *args costs about as much as the lookup, so the common
        # f(g, x) gets a wrapper of its own
        def memoized(g, x):
            table = home(g)
            key = (f, x)
            got = table.get(key, _MISS)
            if got is _MISS:
                got = table[key] = f(g, x)
            return got
    else:
        def memoized(g, *args):
            table = home(g)
            key = (f, *args)
            got = table.get(key, _MISS)
            if got is _MISS:
                got = table[key] = f(g, *args)
            return got
    return functools.wraps(f)(memoized)


class StructuralError(ValueError):
    """Malformed game input (dangling ids, non-bijective successor maps, ...).

    Distinct from an axiom failure: a structurally broken game cannot even be
    submitted to the axiom validator.
    """

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True, order=True)
class InfoSet:
    """An information set: owning player, host tree, member node ids.

    All members are nodes of the host tree.  For unaware players the host tree
    is poorer than the tree the observed node belongs to.
    """

    player: Player
    host: TreeId
    members: tuple[NodeId, ...]

    def label(self) -> str:
        return "%d@%s{%s}" % (self.player, self.host,
                              ",".join(str(m) for m in self.members))


@dataclass(frozen=True)
class NodeData:
    parent: Optional[NodeId]
    players: tuple[Player, ...] = ()
    # per active player, the full action label tuple
    actions: Mapping[Player, tuple[str, ...]] = field(default_factory=dict)
    # action profile (ordered by sorted active player) -> child node id
    children: Mapping[tuple[str, ...], NodeId] = field(default_factory=dict)
    # terminal payoffs per real player
    payoffs: Mapping[Player, Fraction] = field(default_factory=dict)

    @property
    def is_terminal(self) -> bool:
        return not self.children


class Game:
    """Immutable extensive-form game with unawareness.

    Fields:
      players  -- sorted tuple of real players (nature, if present, is 0 and
                  appears only in node data)
      trees    -- TreeId -> frozenset of node ids
      nodes    -- NodeId -> NodeData (describing the upmost tree)
      info     -- (player, TreeId, NodeId) -> InfoSet, for every real player
                  active at a decision node and for every real player at every
                  terminal node, in every tree containing the node

    Every table derived from these fields is built on first use by a
    function under ``_memo`` and kept in one of two memo homes.  ``_memo``
    is the game's own and holds what depends on ``info``.  ``_shared`` holds
    what depends only on players, trees, nodes and the keys of ``info``,
    such as the restricted actions, one table per tree (``_actions``, which
    ``actions_in`` reads); a discovered version (``_with_info``) shares it
    with its parent, together with the very ``players``, ``trees`` and
    ``nodes`` objects and the per-tree structure (``_Structure``).  Memos
    are never invalidated, as the fields never change.  Their keys hold only
    memoized functions, players, tree ids and node ids, and no key or value
    refers to a game, so reference counting alone frees a dropped game.
    """

    def __init__(self, players: Iterable[Player],
                 trees: Mapping[TreeId, Iterable[NodeId]],
                 nodes: Mapping[NodeId, NodeData],
                 info: Mapping[tuple[Player, TreeId, NodeId], InfoSet]):
        self.players = tuple(sorted(set(players)))
        self.trees = {t: frozenset(ns) for t, ns in trees.items()}
        self.nodes = dict(nodes)
        self.info = dict(info)
        self._memo: dict = {}
        self._shared: dict = {}
        self._shape: Optional[_Structure] = None
        self._check_ids()

    def __getstate__(self) -> dict:
        """The fields alone: memo keys hold functions pickle cannot name,
        and the memos and the structure are rebuilt on use."""
        state = dict(self.__dict__)
        for k in ("_memo", "_shared", "_shape"):
            del state[k]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo, self._shared, self._shape = {}, {}, None

    @property
    def _st(self) -> "_Structure":
        if self._shape is None:
            self._shape = _Structure(self)
        return self._shape

    def _with_info(self, changed: Mapping[tuple[Player, TreeId, NodeId],
                                          InfoSet]) -> "Game":
        """This game with the entries of ``changed`` rewritten in ``info``.

        The result shares ``players``, ``trees``, ``nodes``, the structure
        and the shared memo with this game, and starts its own memo.  Only
        the rewritten entries are checked, each as ``Game`` checks every
        entry, and each key must already be a key of ``info``;
        StructuralError otherwise.
        """
        problems = ["info key (%d,%s,%d): not a key of the game" % key
                    for key in changed if key not in self.info]
        problems += self._info_problems(changed.items())
        if problems:
            raise StructuralError(problems)
        g = Game.__new__(Game)
        g.players, g.trees, g.nodes = self.players, self.trees, self.nodes
        g.info = {**self.info, **changed}
        g._memo = {}
        g._shared = self._shared
        g._shape = self._st
        return g

    # -- construction helpers -------------------------------------------------

    def _check_ids(self) -> None:
        problems = []
        if NATURE in self.players:
            problems.append("nature (player 0) listed among real players")
        for t, ns in self.trees.items():
            for n in ns:
                if n not in self.nodes:
                    problems.append("tree %s contains unknown node %d" % (t, n))
        for n, nd in self.nodes.items():
            if nd.parent is not None and nd.parent not in self.nodes:
                problems.append("node %d has unknown parent %d" % (n, nd.parent))
            for c in nd.children.values():
                if c not in self.nodes:
                    problems.append("node %d has unknown child %d" % (n, c))
        problems += self._info_problems(self.info.items())
        if problems:
            raise StructuralError(problems)

    def _info_problems(self, entries) -> list[str]:
        """What is wrong with the given (key, InfoSet) entries of info."""
        problems = []
        for (i, t, n), h in entries:
            if t not in self.trees:
                problems.append("info key (%d,%s,%d): unknown tree" % (i, t, n))
                continue
            if n not in self.trees[t]:
                problems.append("info key (%d,%s,%d): node not in tree" % (i, t, n))
            if h.host not in self.trees:
                problems.append("info set %s: unknown host tree" % h.label())
            elif not h.members:
                problems.append("info set %s: no members" % h.label())
            elif not self.trees[h.host].issuperset(h.members):
                problems.append("info set %s: member outside host tree" % h.label())
            if h.player != i:
                problems.append("info key (%d,%s,%d): owner mismatch" % (i, t, n))
        return problems

    # -- tree structure -------------------------------------------------------

    @property
    def tbar(self) -> TreeId:
        """The upmost tree (maximum of the lattice)."""
        return self._st.tbar

    def leq(self, t1: TreeId, t2: TreeId) -> bool:
        return self.trees[t1] <= self.trees[t2]

    @_memo(shared=True)
    def join(self, t1: TreeId, t2: TreeId) -> TreeId:
        """Least stored upper bound of two trees; StructuralError if absent."""
        ubs = [t for t, ns in self.trees.items()
               if ns >= self.trees[t1] and ns >= self.trees[t2]]
        got = next((t for t in ubs
                    if all(self.trees[t] <= self.trees[u] for u in ubs)), None)
        if got is None:
            raise StructuralError(["no join for trees %s, %s" % (t1, t2)])
        return got

    @_memo(shared=True)
    def _above_below(self, t: TreeId) -> tuple[frozenset, frozenset]:
        """The trees at least as rich as t and those at most as rich, t in
        both."""
        ns = self.trees[t]
        return (frozenset(u for u, us in self.trees.items() if ns <= us),
                frozenset(u for u, us in self.trees.items() if us <= ns))

    @_memo(shared=True)
    def _own_keys(self, i: Player) -> tuple:
        """The keys of ``info`` owned by player i, in ``info`` order."""
        return tuple(k for k in self.info if k[0] == i)

    def root(self, t: TreeId) -> NodeId:
        roots = self._st.roots[t]
        if len(roots) != 1:
            raise StructuralError(["tree %s has %d roots" % (t, len(roots))])
        return roots[0]

    def children_in(self, t: TreeId, n: NodeId) -> dict[tuple[str, ...], NodeId]:
        return dict(self._st.children[t][n])

    def actions_in(self, t: TreeId, n: NodeId, i: Player) -> tuple[str, ...]:
        """Restricted action set of player i at node n within tree t: i's
        declared labels, in declared order, that i plays towards a child of
        n inside t; () when i does not move at n."""
        if i not in self.nodes[n].players:
            return ()
        return self._actions(t)[n][i]

    @_memo(shared=True)
    def _actions(self, t: TreeId) -> dict:
        """Per node n of t where someone moves, per mover i in sorted
        order, ``actions_in(t, n, i)``: the labels in the column at i's
        (first) index in the profiles of n's children in t."""
        out = {}
        for n, kids in self._st.children[t].items():
            nd = self.nodes[n]
            if not nd.players:
                continue
            cols = map(set, zip(*kids)) if kids else itertools.repeat(())
            out[n] = got = {}
            for i, seen in zip(sorted(nd.players), cols):
                got.setdefault(i, tuple(filter(seen.__contains__,
                                               nd.actions[i])))
        return out

    def terminal_in(self, t: TreeId, n: NodeId) -> bool:
        return not self._st.children[t][n]

    def path_in(self, t: TreeId, n: NodeId) -> list[NodeId]:
        """Node path from the root of t down to n (inclusive).  Raises
        StructuralError, naming t and n, when the parents above n in t
        form a cycle."""
        ns = self.trees[t]
        path = [n]
        cur = n
        while True:
            p = self.nodes[cur].parent
            if p is None or p not in ns:
                break
            path.append(p)
            if len(path) > len(ns):
                raise StructuralError(["tree %s: the parents above node %s "
                                       "form a cycle" % (t, n)])
            cur = p
        return path[::-1]

    def descendants_in(self, t: TreeId, n: NodeId) -> list[NodeId]:
        """The nodes below n in t, sorted.  Raises StructuralError, naming t
        and n, when the children below n in t form a cycle."""
        kids = self._st.children[t]
        size = len(self.trees[t])
        out = []
        stack = [n]
        while stack:
            cur = stack.pop()
            for c in kids[cur].values():
                out.append(c)
                stack.append(c)
            if len(out) > size:
                raise StructuralError(["tree %s: the children below node %s "
                                       "form a cycle" % (t, n)])
        return sorted(out)

    # -- information structure ------------------------------------------------

    def info_domain(self) -> list[tuple[Player, TreeId, NodeId]]:
        """All (player, tree, node) keys that must carry an information set."""
        keys = []
        for t, kids in self._st.children.items():
            for n in sorted(kids):
                if kids[n]:
                    for i in sorted(self.nodes[n].players):
                        if i != NATURE:
                            keys.append((i, t, n))
                else:
                    for i in self.players:
                        keys.append((i, t, n))
        return keys

    def info_sets(self, i: Player) -> list[InfoSet]:
        """Distinct information sets of real player i, canonically ordered."""
        out = set(map(self.info.__getitem__, self._own_keys(i)))
        return sorted(out, key=self._set_sort_key)

    def decision_sets(self, i: Player) -> list[InfoSet]:
        """Information sets at which player i actually moves.

        For nature (player 0) these are synthetic singleton sets, one per
        nature decision node per tree, so that nature's strategies use the
        same machinery as everyone else's.
        """
        return list(self._decision_sets(i))

    @_memo
    def _decision_sets(self, i: Player) -> tuple[InfoSet, ...]:
        st = self._st
        if i == NATURE:
            return tuple(InfoSet(NATURE, t, (n,)) for t in st.tree_order
                         for n in st.tree_keys[t][1]
                         if NATURE in self.nodes[n].players
                         and st.children[t][n])
        moves = {n for n, nd in self.nodes.items() if i in nd.players}
        return tuple(h for h in self.info_sets(i)
                     if not moves.isdisjoint(h.members))

    def set_actions(self, h: InfoSet) -> tuple[str, ...]:
        """Actions available to h's owner (identical across members)."""
        return self.actions_in(h.host, h.members[0], h.player)

    def _set_sort_key(self, h: InfoSet):
        return (self._st.tree_keys[h.host], h.members)

    # -- canonical ordering / equality ---------------------------------------

    def tree_sort_key(self, t: TreeId):
        return self._st.tree_keys[t]

    def tree_order(self) -> list[TreeId]:
        return list(self._st.tree_order)

    @_memo
    def canonical_key(self):
        nodes = []
        for n in sorted(self.nodes):
            nd = self.nodes[n]
            nodes.append((n, nd.parent, tuple(sorted(nd.players)),
                          tuple(sorted((i, nd.actions[i]) for i in nd.actions)),
                          tuple(sorted(nd.children.items())),
                          tuple(sorted(nd.payoffs.items()))))
        trees = tuple((t, tuple(sorted(ns)))
                      for t, ns in sorted(self.trees.items(),
                                          key=lambda kv: self.tree_sort_key(kv[0])))
        info = tuple(sorted((k, (h.player, h.host, h.members))
                            for k, h in self.info.items()))
        return (self.players, trees, tuple(nodes), info)

    def __eq__(self, other):
        return isinstance(other, Game) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return "Game(players=%r, trees=%d, nodes=%d)" % (
            self.players, len(self.trees), len(self.nodes))


class _Structure:
    """Per tree the restricted children, roots and sort key; the tree order,
    upmost tree and whether nature moves.  Shared with discovered versions."""

    def __init__(self, g: Game):
        trees, nodes = g.trees, g.nodes
        self.tree_keys = {t: (len(ns), tuple(sorted(ns)), t)
                          for t, ns in trees.items()}
        self.tree_order = tuple(sorted(trees, key=self.tree_keys.__getitem__))
        # ties between distinct node sets fail validation
        self.tbar = max(trees, key=lambda t: len(trees[t]), default=None)
        self.nature = any(NATURE in nd.players for nd in nodes.values())
        # tree -> node -> {action profile: child}, restricted to the tree
        self.children = {
            t: {n: {p: c for p, c in nodes[n].children.items() if c in ns}
                for n in ns}
            for t, ns in trees.items()}
        self.roots = {t: [n for n in ns if nodes[n].parent not in ns]
                      for t, ns in trees.items()}


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    description: str
    passed: bool
    witnesses: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def by_name(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


CHECK_NAMES = [
    ("prop1", "terminal nodes of every tree are terminal in the upmost tree"),
    ("prop2", "per tree, children are the image of a nonempty product of restricted actions"),
    ("prop3", "same-player decision nodes sharing any action label share all"),
    ("U0", "confined awareness: hosts never exceed the observing tree"),
    ("U1", "generalized reflexivity: a node present in its host belongs to its own set"),
    ("I2", "introspection: members reproduce their information set"),
    ("I3", "no divining of currently unimaginable paths"),
    ("I4", "no imaginary actions"),
    ("I5", "distinct action names in disjoint information sets"),
    ("I6", "perfect recall"),
    ("U4", "subtrees preserve ignorance"),
    ("U5", "subtrees preserve knowledge"),
    ("I7", "information sets consistent with own payoff information"),
]


def _check_game(g) -> None:
    """TypeError unless g is a Game: the entry check of a public function."""
    if not isinstance(g, Game):
        raise TypeError("expected a Game, not %r" % (g,))


def _structural_problems(g: Game) -> list[str]:
    if not g.trees:
        return ["game has no trees"]
    problems: list[str] = []
    # unique maximum tree
    most = max(map(len, g.trees.values()))
    top = [t for t, ns in g.trees.items() if len(ns) == most]
    if len({g.trees[t] for t in top}) > 1:
        problems.append("no unique upmost tree among %s" % sorted(top))
    tbar = g.tbar
    if g.trees[tbar] != frozenset(g.nodes):
        problems.append("upmost tree does not cover all nodes")
    # successor maps are bijections onto declared children
    for n, nd in g.nodes.items():
        if nd.is_terminal:
            if nd.players:
                problems.append("terminal node %d has active players" % n)
            missing = [i for i in g.players if i not in nd.payoffs]
            if missing:
                problems.append("terminal node %d lacks payoffs for %s" % (n, missing))
            continue
        if nd.payoffs:
            problems.append("decision node %d carries payoffs" % n)
        if not nd.players:
            problems.append("decision node %d has no active players" % n)
            continue
        if len(set(nd.players)) < len(nd.players):
            problems.append("node %d: active players %s name a player twice"
                            % (n, list(nd.players)))
        if set(nd.actions) != set(nd.players):
            problems.append("node %d: actions not declared per active player" % n)
            continue
        profs = set(itertools.product(*map(nd.actions.__getitem__,
                                           sorted(nd.players))))
        if set(nd.children) != profs:
            problems.append("node %d: successor map domain is not the profile product" % n)
        if len(set(nd.children.values())) != len(nd.children):
            problems.append("node %d: successor map not injective" % n)
        for c in nd.children.values():
            if g.nodes[c].parent != n:
                problems.append("node %d: child %d has parent %s" %
                                (n, c, g.nodes[c].parent))
    # each node except the global root is someone's child
    child_of = {c for nd in g.nodes.values() for c in nd.children.values()}
    roots = [n for n in g.nodes if n not in child_of]
    if len(roots) != 1:
        problems.append("upmost tree has %d roots" % len(roots))
    # per-tree arborescence, in one pass: going up from a node inside t
    # either meets a node already decided, the root among them, or closes
    # a cycle, and every node on the way shares the verdict
    for t, ns in g.trees.items():
        try:
            r = g.root(t)
        except StructuralError as e:
            problems.extend(e.problems)
            continue
        nodes, connected = g.nodes, {r: True}
        for n in ns:
            chain, up = [], n
            while up in ns and up not in connected:
                connected[up] = False   # on this walk: meeting it is a cycle
                chain.append(up)
                up = nodes[up].parent
            ok = up in ns and connected[up]
            for c in chain:
                connected[c] = ok
        problems += ["tree %s: node %d not connected to root" % (t, n)
                     for n in ns if not connected[n]]
    # joins exist
    for a, b in itertools.combinations(sorted(g.trees), 2):
        try:
            g.join(a, b)
        except StructuralError as e:
            problems.extend(e.problems)
    # information completeness
    problems += ["missing information set for key %s" % (key,)
                 for key in g.info_domain() if key not in g.info]
    problems += ["nature carries no information sets: %s" % (key,)
                 for key in g.info if key[0] == NATURE]
    return problems


def validate_structure(g: Game) -> None:
    """Raise StructuralError, listing every problem, for a malformed game;
    TypeError when g is not a Game."""
    _check_game(g)
    problems = _structural_problems(g)
    if problems:
        raise StructuralError(problems)


def validate_game(g: Game) -> ValidationReport:
    """Run the thirteen named structural-axiom checks.

    Raises TypeError when g is not a Game and StructuralError for malformed
    input; axiom failures are reported, with witnesses, not raised.  All
    failures are collected, not just the first.  Each check reads tables
    built once per game, so it costs a few lookups per info key, plus one
    per comparable tree for U4 and U5.

    I3 implies U0: an I3 witness d is a decision node of i, below a
    decision member of the set in its host tree, whose own key (i, host, d)
    fails U0.  So I3 fails only where U0 does, and its walk starts only
    from keys that fail U0.
    """
    validate_structure(g)
    fails: dict[str, list] = {name: [] for name, _ in CHECK_NAMES}
    trees, nodes, info, kids = g.trees, g.nodes, g.info, g._st.children
    # the trees below t, those strictly below, and, per tree a and tree t
    # above it, those from a up to t, t excluded
    above = {t: g._above_below(t)[0] for t in trees}
    below = {t: g._above_below(t)[1] for t in trees}
    under = {t: [u for u in below[t] if u != t] for t in trees}
    between = {a: {t: [u for u in above[a] & below[t] if u != t]
                   for t in above[a]} for a in trees}
    # (i, t, n) -> i's restricted actions, for each decision node n of i in t
    acts: dict[tuple, frozenset] = {}
    for t, ns in trees.items():
        groups: dict[Player, dict[frozenset, list]] = {}
        kt, table = kids[t], g._actions(t)
        for n in ns:
            if not kt[n]:
                if not nodes[n].is_terminal:   # prop1
                    fails["prop1"].append((t, n))
                continue
            # prop2: children in t = product of the restricted action sets
            # (each nonempty: a node not terminal in t has a child in t),
            # true by definition with one mover once the structure is valid
            restr, movers = table[n], nodes[n].players
            if len(movers) > 1 and set(itertools.product(*map(
                    restr.__getitem__, sorted(movers)))) != kt[n].keys():
                fails["prop2"].append((t, n))
            for i, a in restr.items():
                a = acts[(i, t, n)] = frozenset(a)
                groups.setdefault(i, {}).setdefault(a, []).append(n)
        # prop3 and I5, per player: nodes grouped by action set, and groups
        # compared pairwise only when a label is in more than one
        for i in g.players:
            by_acts = groups.get(i, {})
            for same in by_acts.values():
                fails["I5"] += [(t, i, min(n, m), max(n, m))
                                for n, m in itertools.combinations(same, 2)
                                if info[(i, t, n)] != info[(i, t, m)]]
            if sum(map(len, by_acts)) > len(frozenset().union(*by_acts)):
                for a, b in itertools.combinations(by_acts, 2):
                    if a & b:
                        fails["prop3"] += [(t, i, min(n, m), max(n, m))
                                           for n in by_acts[a]
                                           for m in by_acts[b]]
    # child -> the action profile leading to it
    incoming = {c: prof for nd in nodes.values()
                for prof, c in nd.children.items()}
    recalls: dict[tuple, tuple] = {}

    def recall(i: Player, t: TreeId, x: NodeId) -> tuple:
        """The strict ancestors b of x in t where i moves, nearest first,
        and per b the pair of i's set at b and i's action there towards
        x."""
        got = recalls.get((i, t, x))
        if got is None:
            ns, ancs, pairs = trees[t], [], []
            c, b = x, nodes[x].parent
            while b in ns:
                players = nodes[b].players
                if i in players:
                    ancs.append(b)
                    pairs.append((info[(i, t, b)],
                                  incoming[c][sorted(players).index(i)]))
                c, b = b, nodes[b].parent
            got = recalls[(i, t, x)] = (ancs, pairs)
        return got

    for key, h in info.items():
        i, t, n = key
        host, members = h.host, h.members
        if host not in below[t]:   # U0
            fails["U0"].append(key)
        if n in trees[host]:
            if n not in members:   # U1
                fails["U1"].append(key)
            # U5: every tree strictly below the host that contains a copy
            # of n carries the projection of the set there
            for u in under[host]:
                inside = trees[u]
                if n in inside:
                    want = tuple(filter(inside.__contains__, sorted(members)))
                    got = info.get((i, u, n))
                    # i owns every set of its keys (Game checks)
                    if not want or got is None or got.host != u \
                            or got.members != want:
                        fails["U5"].append((i, t, n, u))
        # U4: every tree strictly between the host and t that contains a
        # copy of n carries the very same set there
        for u in between[host].get(t, ()):
            if n in trees[u]:
                got = info.get((i, u, n))
                if got is not h and got != h:
                    fails["U4"].append((i, t, n, u))
        for m in members:   # I2
            got = info.get((i, host, m))
            if got is not h and got != h:
                fails["I2"].append((i, t, n, m))
        own = acts.get(key)
        if own is not None:
            for m in members:   # I4
                if not acts.get((i, host, m), frozenset()) <= own:
                    fails["I4"].append((i, t, n, m))
            # I6: each (set, own action) pair i recalls at n is recalled at
            # every member
            ancs, pairs = recall(i, t, n)
            for m in members:
                _, have = recall(i, host, m)
                if have is not pairs:
                    fails["I6"] += [(i, t, n, m, anc)
                                    for anc, p in zip(ancs, pairs)
                                    if p not in have]
        elif not kids[t][n]:
            # I7 (terminal sets)
            pay = nodes[n].payoffs.get(i)
            for m in members:
                if kids[host][m] or m != n and nodes[m].payoffs.get(i) != pay:
                    fails["I7"].append((i, t, n, m))
    # I3: below a decision member of i in the host, i's sets never point
    # outside the host; a witness d fails U0 at its own key (i, host, d)
    bad: dict[tuple, list] = {}
    for i, u, d in fails["U0"]:
        if (i, u, d) in acts:
            bad.setdefault((i, u), []).append(d)
    if bad:
        for (i, t, n), h in info.items():
            for d in bad.get((i, h.host), ()):
                if any(m in recall(i, h.host, d)[0] for m in h.members
                       if (i, h.host, m) in acts):
                    fails["I3"].append((i, t, n, d))

    checks = tuple(CheckResult(name, desc, not fails[name],
                               tuple(sorted(set(fails[name]))[:8]))
                   for name, desc in CHECK_NAMES)
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# partial games and the information-set arborescence


def hosts_reachable(g: Game, t: TreeId) -> list[TreeId]:
    """Trees reachable from t through information-set hosts (t included).
    ValueError when t is not a tree of g.  TypeError when g is not a Game."""
    _check_game(g)
    if t not in g.trees:
        raise ValueError("no tree %r" % (t,))
    return list(_hosts(g, t))


@_memo
def _hosts(g: Game, t: TreeId) -> tuple[TreeId, ...]:
    seen = {t}
    frontier = [t]
    while frontier:
        cur = frontier.pop()
        for (i, tt, n), h in g.info.items():
            if tt == cur and h.host not in seen:
                seen.add(h.host)
                frontier.append(h.host)
    return tuple(sorted(seen, key=g.tree_sort_key))


def t_partial_game(g: Game, t: TreeId) -> Game:
    """The game restricted to tree t and every tree its sets can point into.

    By confined awareness every tree in the host closure sits below t, so the
    restricted game's upmost tree is t itself and its node set is t's.
    ValueError when t is not a tree of g.
    TypeError when g is not a Game.
    """
    _check_game(g)
    keep = hosts_reachable(g, t)
    kept_nodes = g.trees[t]
    nodes = {}
    for n in sorted(kept_nodes):
        nd = g.nodes[n]
        children = g.children_in(t, n)
        if children:
            players = nd.players
            actions = {i: g.actions_in(t, n, i) for i in nd.players}
            payoffs: Mapping[Player, Fraction] = {}
        else:
            # terminal within t; terminal in the original upmost tree too on
            # valid input, so payoffs are present
            players, actions, payoffs = (), {}, nd.payoffs
        parent = nd.parent if nd.parent in kept_nodes else None
        nodes[n] = NodeData(parent=parent, players=players, actions=actions,
                            children=children, payoffs=payoffs)
    trees = {u: g.trees[u] for u in keep}
    info = {k: h for k, h in g.info.items() if k[1] in trees}
    return Game(g.players, trees, nodes, info)


def info_arborescence(g: Game, i: Player) -> dict[InfoSet, Optional[InfoSet]]:
    """Parent links of player i's information sets (terminal ones included)
    under the came-before relation: h precedes h' when every member of h'
    has, within h''s host tree, a strict ancestor whose information set at
    that host is h.  ValueError when i is neither nature nor a player of
    g.  TypeError when g is not a Game."""
    _check_game(g)
    if i != NATURE and i not in g.players:
        raise ValueError("no player %r" % (i,))
    sets = g.info_sets(i)
    prec: dict[InfoSet, set[InfoSet]] = {h: set() for h in sets}
    for h2 in sets:
        for m2 in h2.members:
            seen = {g.info.get((i, h2.host, b))
                    for b in g.path_in(h2.host, m2)[:-1]
                    if i in g.nodes[b].players}
            seen.discard(None)
            seen.discard(h2)
            if m2 == h2.members[0]:
                common = seen
            else:
                common &= seen
        prec[h2] = common if h2.members else set()
    parents: dict[InfoSet, Optional[InfoSet]] = {}
    for h in sets:
        preds = prec[h]
        if not preds:
            parents[h] = None
            continue
        # immediate predecessor: the predecessor preceded by all the others
        imm = [p for p in preds if all(q == p or q in prec[p] for q in preds)]
        if len(imm) != 1:
            raise AssertionError(
                "information sets of player %d do not form an arborescence at %s"
                % (i, h.label()))
        parents[h] = imm[0]
    return parents
