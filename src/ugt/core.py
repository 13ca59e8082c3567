"""Core data model for finite extensive-form games with unawareness.

A game consists of a single "upmost" tree together with a join-semilattice of
subtrees, each describing a coarser view of the same strategic situation.
Nodes are shared across trees by id: the copy of node ``n`` in tree ``T`` is
simply the pair ``(n, T)``, so copies commute by construction.  Information
sets may live in a tree poorer than the one the node belongs to; that is how
unawareness is encoded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

NodeId = int
TreeId = str
Player = int

NATURE: Player = 0


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

    What is derived from these fields lives in two private parts, built on
    first use.  The structure (``_Structure``) depends on players, trees and
    nodes alone: per tree the restricted children, actions, root and
    terminal flags; the upmost tree and tree order; whether nature moves;
    joins and the trees above and below each tree; and per player its info
    keys, which a discovered version keeps.  A discovered version
    (``_with_info``) shares its parent's structure, and with it the very
    ``players``, ``trees`` and ``nodes`` objects.  The index (``_Index``)
    depends on ``info`` and is each game's own: per player the decision sets
    and their positions in action vectors; per tree the play table, each
    decision node's (player, position) pairs; the path constraints of
    ``reaches``; host closures; per acting player the classes of its pure
    strategies; the EFR set contexts, trace and per-round classes; and per
    player and awareness tree the info entries discovery rewrites.
    Memos fill as queries arrive and are never invalidated, as the fields
    never change.  Neither part holds a reference to a game, so reference
    counting alone frees a dropped game.
    """

    def __init__(self, players: Iterable[Player],
                 trees: Mapping[TreeId, Iterable[NodeId]],
                 nodes: Mapping[NodeId, NodeData],
                 info: Mapping[tuple[Player, TreeId, NodeId], InfoSet]):
        self.players = tuple(sorted(set(players)))
        self.trees = {t: frozenset(ns) for t, ns in trees.items()}
        self.nodes = dict(nodes)
        self.info = dict(info)
        self._canon = None
        self._shape: Optional[_Structure] = None
        self._index: Optional[_Index] = None
        self._check_ids()

    @property
    def _st(self) -> "_Structure":
        if self._shape is None:
            self._shape = _Structure(self)
        return self._shape

    @property
    def _ix(self) -> "_Index":
        if self._index is None:
            self._index = _Index()
        return self._index

    def _with_info(self, changed: Mapping[tuple[Player, TreeId, NodeId],
                                          InfoSet]) -> "Game":
        """This game with the entries of ``changed`` rewritten in ``info``.

        The result shares ``players``, ``trees``, ``nodes`` and the
        structure part of the index with this game, and starts its own
        info part.  Only the rewritten entries are checked, each as
        ``Game`` checks every entry, and each key must already be a key of
        ``info``; StructuralError otherwise.
        """
        problems = ["info key (%d,%s,%d): not a key of the game" % key
                    for key in changed if key not in self.info]
        problems += self._info_problems(changed.items())
        if problems:
            raise StructuralError(problems)
        g = Game.__new__(Game)
        g.players, g.trees, g.nodes = self.players, self.trees, self.nodes
        g.info = {**self.info, **changed}
        g._canon = None
        g._shape = self._st
        g._index = None
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
            elif any(m not in self.trees[h.host] for m in h.members):
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

    def join(self, t1: TreeId, t2: TreeId) -> TreeId:
        """Least stored upper bound of two trees; StructuralError if absent."""
        joins = self._st.joins
        got = joins.get((t1, t2))
        if got is None:
            ubs = [t for t, ns in self.trees.items()
                   if ns >= self.trees[t1] and ns >= self.trees[t2]]
            got = next((t for t in ubs
                        if all(self.trees[t] <= self.trees[u] for u in ubs)),
                       None)
            if got is None:
                raise StructuralError(["no join for trees %s, %s" % (t1, t2)])
            joins[(t1, t2)] = got
        return got

    def _above_below(self, t: TreeId) -> tuple[frozenset, frozenset]:
        """The trees at least as rich as t and those at most as rich, t in
        both."""
        st = self._st
        got = st.above_below.get(t)
        if got is None:
            ns = self.trees[t]
            got = st.above_below[t] = (
                frozenset(u for u, us in self.trees.items() if ns <= us),
                frozenset(u for u, us in self.trees.items() if us <= ns))
        return got

    def _own_keys(self, i: Player) -> tuple:
        """The keys of ``info`` owned by player i, in ``info`` order."""
        st = self._st
        got = st.own_keys.get(i)
        if got is None:
            got = st.own_keys[i] = tuple(k for k in self.info if k[0] == i)
        return got

    def root(self, t: TreeId) -> NodeId:
        roots = self._st.roots[t]
        if len(roots) != 1:
            raise StructuralError(["tree %s has %d roots" % (t, len(roots))])
        return roots[0]

    def children_in(self, t: TreeId, n: NodeId) -> dict[tuple[str, ...], NodeId]:
        return dict(self._st.children[t][n])

    def actions_in(self, t: TreeId, n: NodeId, i: Player) -> tuple[str, ...]:
        """Restricted action set of player i at node n within tree t."""
        st = self._st
        got = st.actions.get((t, n, i))
        if got is None:
            nd = self.nodes[n]
            got = ()
            if i in nd.players:
                idx = sorted(nd.players).index(i)
                seen = {prof[idx] for prof in st.children[t][n]}
                # keep the declared label order
                got = tuple(a for a in nd.actions[i] if a in seen)
            st.actions[(t, n, i)] = got
        return got

    def terminal_in(self, t: TreeId, n: NodeId) -> bool:
        return not self._st.children[t][n]

    def path_in(self, t: TreeId, n: NodeId) -> list[NodeId]:
        """Node path from the root of t down to n (inclusive)."""
        ns = self.trees[t]
        path = [n]
        cur = n
        while True:
            p = self.nodes[cur].parent
            if p is None or p not in ns:
                break
            path.append(p)
            cur = p
        return path[::-1]

    def descendants_in(self, t: TreeId, n: NodeId) -> list[NodeId]:
        kids = self._st.children[t]
        out = []
        stack = [n]
        while stack:
            cur = stack.pop()
            for c in kids[cur].values():
                out.append(c)
                stack.append(c)
        return sorted(out)

    # -- information structure ------------------------------------------------

    def info_domain(self) -> list[tuple[Player, TreeId, NodeId]]:
        """All (player, tree, node) keys that must carry an information set."""
        keys = []
        for t, ns in self.trees.items():
            for n in sorted(ns):
                nd = self.nodes[n]
                if self.terminal_in(t, n):
                    for i in self.players:
                        keys.append((i, t, n))
                else:
                    for i in sorted(nd.players):
                        if i != NATURE:
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
        ix, st = self._ix, self._st
        got = ix.decision_sets.get(i)
        if got is None:
            if i == NATURE:
                got = tuple(InfoSet(NATURE, t, (n,)) for t in st.tree_order
                            for n in st.tree_keys[t][1]
                            if NATURE in self.nodes[n].players
                            and st.children[t][n])
            else:
                got = tuple(h for h in self.info_sets(i)
                            if any(i in self.nodes[m].players
                                   for m in h.members))
            ix.decision_sets[i] = got
        return list(got)

    def set_actions(self, h: InfoSet) -> tuple[str, ...]:
        """Actions available to h's owner (identical across members)."""
        return self.actions_in(h.host, h.members[0], h.player)

    def _set_sort_key(self, h: InfoSet):
        return (self.tree_sort_key(h.host), h.members)

    # -- canonical ordering / equality ---------------------------------------

    def tree_sort_key(self, t: TreeId):
        return self._st.tree_keys[t]

    def tree_order(self) -> list[TreeId]:
        return list(self._st.tree_order)

    def canonical_key(self):
        if self._canon is None:
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
            self._canon = (self.players, trees, tuple(nodes), info)
        return self._canon

    def __eq__(self, other):
        return isinstance(other, Game) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return "Game(players=%r, trees=%d, nodes=%d)" % (
            self.players, len(self.trees), len(self.nodes))


class _Structure:
    """The tables derived from players, trees and nodes, described on
    ``Game``; shared by a game and its discovered versions."""

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
        # memos keyed by (tree, node, player), (tree, tree), tree and player
        self.actions, self.joins, self.above_below = {}, {}, {}
        self.own_keys = {}


class _Index:
    """The tables one game derives from its info, described on ``Game``."""

    def __init__(self):
        # memos keyed by player, player, tree, (tree, node) and tree
        self.decision_sets, self.positions = {}, {}
        self.plays, self.requirements, self.hosts = {}, {}, {}
        # acting player -> its classes
        self.classes = {}
        # (player, tree) -> the info entries discovery rewrites for them
        self.rewrites = {}
        self.efr_contexts = self.efr_trace = self.efr_classes = None


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


def _structural_problems(g: Game) -> list[str]:
    if not g.trees:
        return ["game has no trees"]
    problems: list[str] = []
    # unique maximum tree
    sizes = sorted(((len(ns), t) for t, ns in g.trees.items()), reverse=True)
    if len(sizes) > 1 and sizes[0][0] == sizes[1][0]:
        top = [t for t, ns in g.trees.items() if len(ns) == sizes[0][0]]
        if len({g.trees[t] for t in top}) > 1:
            problems.append("no unique upmost tree among %s" % sorted(top))
    tbar = g.tbar
    if g.trees[tbar] != frozenset(g.nodes):
        problems.append("upmost tree does not cover all nodes")
    # successor maps are bijections onto declared children
    for n, nd in g.nodes.items():
        plist = sorted(nd.players)
        if nd.is_terminal:
            if nd.players:
                problems.append("terminal node %d has active players" % n)
            missing = [i for i in g.players if i not in nd.payoffs]
            if missing:
                problems.append("terminal node %d lacks payoffs for %s" % (n, missing))
            continue
        if not nd.players:
            problems.append("decision node %d has no active players" % n)
            continue
        if set(nd.actions) != set(nd.players):
            problems.append("node %d: actions not declared per active player" % n)
            continue
        profs = set(itertools.product(*[nd.actions[i] for i in plist]))
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
    # per-tree arborescence
    for t, ns in g.trees.items():
        try:
            r = g.root(t)
        except StructuralError as e:
            problems.extend(e.problems)
            continue
        for n in ns:
            path = g.path_in(t, n)
            if path[0] != r:
                problems.append("tree %s: node %d not connected to root" % (t, n))
    # joins exist
    order = sorted(g.trees)
    for a in order:
        for b in order:
            if a < b:
                try:
                    g.join(a, b)
                except StructuralError as e:
                    problems.extend(e.problems)
    # information completeness
    have = set(g.info)
    for key in g.info_domain():
        if key not in have:
            problems.append("missing information set for key %s" % (key,))
    for key in have:
        i, t, n = key
        if i == NATURE:
            problems.append("nature carries no information sets: %s" % (key,))
    return problems


def validate_structure(g: Game) -> None:
    problems = _structural_problems(g)
    if problems:
        raise StructuralError(problems)


def validate_game(g: Game) -> ValidationReport:
    """Run the thirteen named structural-axiom checks.

    Raises StructuralError for malformed input; axiom failures are reported,
    with witnesses, not raised.  All failures are collected, not just the
    first.
    """
    validate_structure(g)
    fails: dict[str, list] = {name: [] for name, _ in CHECK_NAMES}
    tbar = g.tbar

    tree_list = g.tree_order()
    for t in tree_list:
        ns = g.trees[t]
        for n in sorted(ns):
            nd = g.nodes[n]
            if g.terminal_in(t, n):
                # prop1
                if not nd.is_terminal:
                    fails["prop1"].append((t, n))
                continue
            # prop2: children in t = product of nonempty restricted sets
            plist = sorted(nd.players)
            restr = [g.actions_in(t, n, i) for i in plist]
            if any(not r for r in restr):
                fails["prop2"].append((t, n))
            else:
                want = {prof for prof in itertools.product(*restr)}
                have = set(g.children_in(t, n))
                if want != have:
                    fails["prop2"].append((t, n))
        # prop3 and I5, per player within tree t
        for i in g.players:
            decs = [n for n in sorted(ns)
                    if i in g.nodes[n].players and not g.terminal_in(t, n)]
            for a_idx in range(len(decs)):
                for b_idx in range(a_idx + 1, len(decs)):
                    n, m = decs[a_idx], decs[b_idx]
                    an = set(g.actions_in(t, n, i))
                    am = set(g.actions_in(t, m, i))
                    if an & am and an != am:
                        fails["prop3"].append((t, i, n, m))
                    if an == am and g.info[(i, t, n)] != g.info[(i, t, m)]:
                        fails["I5"].append((t, i, n, m))

    for (i, t, n), h in sorted(g.info.items()):
        nd = g.nodes[n]
        host = h.host
        # U0
        if not g.leq(host, t):
            fails["U0"].append((i, t, n))
        # U1
        if n in g.trees[host] and n not in h.members:
            fails["U1"].append((i, t, n))
        # I2
        for m in h.members:
            key = (i, host, m)
            if key not in g.info or g.info[key] != h:
                fails["I2"].append((i, t, n, m))
        # I4 (decision sets only)
        if i in nd.players and not g.terminal_in(t, n):
            own = set(g.actions_in(t, n, i))
            for m in h.members:
                if not set(g.actions_in(host, m, i)) <= own:
                    fails["I4"].append((i, t, n, m))
        # I3: from any decision member, later sets of i within the host tree
        # never point outside the host tree
        for m in h.members:
            if i in g.nodes[m].players and not g.terminal_in(host, m):
                for d in g.descendants_in(host, m):
                    if i in g.nodes[d].players and not g.terminal_in(host, d):
                        if not g.leq(g.info[(i, host, d)].host, host):
                            fails["I3"].append((i, t, n, d))
        # I6: perfect recall (binds at decision nodes of i)
        if i in nd.players and not g.terminal_in(t, n):
            path = g.path_in(t, n)
            for k, anc in enumerate(path[:-1]):
                if i not in g.nodes[anc].players:
                    continue
                h_anc = g.info[(i, t, anc)]
                a_i = _action_towards(g, anc, path[k + 1], i)
                for m in h.members:
                    mpath = g.path_in(host, m)
                    ok = False
                    for j, b in enumerate(mpath[:-1]):
                        if i in g.nodes[b].players \
                                and g.info.get((i, host, b)) == h_anc \
                                and _action_towards(g, b, mpath[j + 1], i) == a_i:
                            ok = True
                            break
                    if not ok:
                        fails["I6"].append((i, t, n, m, anc))
        # I7: terminal sets
        if g.terminal_in(t, n):
            for m in h.members:
                if not g.terminal_in(host, m):
                    fails["I7"].append((i, t, n, m))
                elif g.nodes[m].payoffs.get(i) != nd.payoffs.get(i):
                    fails["I7"].append((i, t, n, m))

    # U4 / U5 over comparable tree triples
    for (i, t2, n), h in sorted(g.info.items()):
        # U4: for any intermediate tree between the host and the key's tree
        # that contains a copy of n, the copy carries the very same set
        for t1 in tree_list:
            if t1 == t2 or not (g.leq(h.host, t1) and g.leq(t1, t2)):
                continue
            if n in g.trees[t1] and g.info.get((i, t1, n)) != h:
                fails["U4"].append((i, t2, n, t1))
        # U5: in any tree below the host that contains a copy of n, the set
        # is the projection (copies of the members)
        for t0 in tree_list:
            if t0 == h.host or not g.leq(t0, h.host):
                continue
            if n not in g.trees[t0]:
                continue
            want = tuple(m for m in sorted(h.members) if m in g.trees[t0])
            if not want or g.info.get((i, t0, n)) != InfoSet(i, t0, want):
                fails["U5"].append((i, t2, n, t0))

    checks = tuple(CheckResult(name, desc, not fails[name],
                               tuple(sorted(set(fails[name]))[:8]))
                   for name, desc in CHECK_NAMES)
    return ValidationReport(checks)


def _action_towards(g: Game, n: NodeId, child: NodeId, i: Player) -> str:
    nd = g.nodes[n]
    idx = sorted(nd.players).index(i)
    for prof, c in nd.children.items():
        if c == child:
            return prof[idx]
    raise KeyError("node %d is not a child of %d" % (child, n))


# ---------------------------------------------------------------------------
# partial games and the information-set arborescence


def hosts_reachable(g: Game, t: TreeId) -> list[TreeId]:
    """Trees reachable from t through information-set hosts (t included)."""
    got = g._ix.hosts.get(t)
    if got is None:
        seen = {t}
        frontier = [t]
        while frontier:
            cur = frontier.pop()
            for (i, tt, n), h in g.info.items():
                if tt == cur and h.host not in seen:
                    seen.add(h.host)
                    frontier.append(h.host)
        got = g._ix.hosts[t] = tuple(sorted(seen, key=g.tree_sort_key))
    return list(got)


def t_partial_game(g: Game, t: TreeId) -> Game:
    """The game restricted to tree t and every tree its sets can point into.

    By confined awareness every tree in the host closure sits below t, so the
    restricted game's upmost tree is t itself and its node set is t's.
    """
    if t not in g.trees:
        raise KeyError("unknown tree %r" % t)
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
    that host is h."""
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
