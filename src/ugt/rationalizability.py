"""Extensive-form rationalizability by iterated belief restriction.

Each round keeps the strategies that are rational at every information set
they reach, under some belief whose support obeys the best-rationalization
rule: at each information set, probability 1 goes to the opposing profiles
from the *latest* previous round that still reach the set (falling back all
the way to the full strategy set).

The engine (``_class_rounds``) keeps or drops whole realization classes
(``_classes``), and ``efr`` builds its public trace from them: a verdict
reads a strategy only at the sets it reaches and through the opposing
columns there, so one member decides for its class, and the first members
of the opposing classes give every column that plays differently.  Each
player's class table comes from a loop over its decision-set positions,
not from its pure strategies, and carries per class its first member, the
positions it reaches and its size.  The trace's rounds are lazy sequences
over the alive classes, the one place survivors become strategy objects,
listed by a loop over the positions that keeps only actions an alive class
allows.  The engine decides per-set optimality over the distinct payoff
rows of the continuations against the allowed columns: a column where the
row is unbeaten, else a row beating it at every column, else the simplex
(``lp.find_belief``).  One loop plays the columns through the host tree,
each on one flat list of the own vector and the column's keys with one
getter call per node, and branches only at a deviation set some column's
play meets unfixed; its branch tree gives the rows, and a continuation
descends it to its row.  Rounds are incremental: a round re-decides a
player only at the sets whose allowed columns changed, and not at all
when no opponent's alive classes changed.  No routine recurses on the
game's depth.  Entries are the player's payoffs times one positive integer
per host tree, so they compare and pivot as ints.  What a player's sets in
one host tree share is built once (``_TreeView``), with every set's
deviation positions from one walk up the tree.  The references that check
it (``best_reply_exists``, ``efr_oracle``) are in ``reference``, which
this module does not import.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import eq, itemgetter
from typing import Mapping, Optional, Sequence

from .core import (
    NATURE, Game, InfoSet, NodeId, Player, TreeId, _check_game, _memo)
from .lp import find_belief
from .strategies import (
    PureStrategy, _requirements, acting_players, play_table, vector_strategy)


@dataclass
class EfrTrace:
    """The rounds of ``efr`` up to its fixpoint.

    ``rounds[k][i]`` is player i's strategies that survive round k, a
    read-only sequence in ``pure_strategies`` order, equal to the list of
    the same strategies and unhashable like it.  Its ``len`` is the sum of
    its classes' sizes and builds nothing, and so does comparing two rounds
    of one trace.  Rounds with the same classes are one object, so the
    fixpoint round is the round before it.  Iterating, indexing or
    comparing it with a list builds its list once.  Each pure strategy is
    built once per trace, on the first read of a round that holds it, and
    every round holds that same object.  ``discovery.allowed_profiles``
    lists its ``efr`` and ``rational_only`` pools from these rounds.
    """

    rounds: list[dict[Player, Sequence[PureStrategy]]]
    fixpoint_round: int

    def surviving(self) -> dict[Player, Sequence[PureStrategy]]:
        return self.rounds[-1]


# ---------------------------------------------------------------------------
# per-information-set context: columns, payoff matrix, optimality test
#
# The engine works on action vectors (``strategy_vectors``): a strategy is
# the tuple of its actions at its owner's decision sets, and a profile maps
# each acting player to one such vector.


def _getter(positions: Sequence[int]):
    """A function reading the given positions of a vector as a tuple."""
    if len(positions) == 1:
        p, = positions
        return lambda v: (v[p],)
    return itemgetter(*positions) if positions else lambda v: ()


class _TreeView:
    """What player i's decision sets in one host tree share; takes the game
    only to build, never holds it.

    A column is the tuple of the opponents' keys, each an opponent's actions
    at its decision sets in the tree, read at the positions the tree's
    play-outs consult (``reads``); nature counts as an opponent.  Equal
    columns play the tree out identically.  A play reads one flat list:
    i's own vector, then the column's keys one after another (``at`` maps
    an opponent's (player, position) to its index among the keys).  Per
    decision node, ``steps`` holds one getter on that list, the children
    by what it reads, and i's own position there (None if i does not move).
    """

    def __init__(self, g: Game, i: Player, t: TreeId):
        self.i = i
        self.kids = kids = g._st.children[t]
        table = play_table(g, t)
        self.root = g.root(t)
        # i's payoffs at the terminals, times one positive integer scale
        pays = {n: g.nodes[n].payoffs[i] for n, ks in kids.items() if not ks}
        scale = math.lcm(*(x.denominator for x in pays.values()))
        self.payoff = {n: x.numerator * (scale // x.denominator)
                       for n, x in pays.items()}
        # the vector positions a play-out of the tree can consult
        used: dict[Player, list[int]] = {}
        for n in sorted(table):
            for j, p in table[n]:
                if p not in used.setdefault(j, []):
                    used[j].append(p)
        self.own = used.get(i, [])
        self.opponents = [j for j in acting_players(g) if j != i]
        # per opponent, the positions its key reads
        self.reads = [used.get(j, []) for j in self.opponents]
        self.opp_keys = list(map(_getter, self.reads))
        self.at = {(j, p): k for k, (j, p) in enumerate(
            (j, p) for j, at in zip(self.opponents, self.reads) for p in at)}
        base = len(g.decision_sets(i))
        self.steps = {}
        for n, pairs in table.items():
            idx = [p if j == i else base + self.at[j, p] for j, p in pairs]
            self.steps[n] = (
                itemgetter(*idx) if idx else lambda w: (),
                {a: c for (a,), c in kids[n].items()} if len(idx) == 1
                else kids[n], next((p for j, p in pairs if j == i), None))
        self._grids: dict[tuple, list] = {}

    def grid(self, classes: Mapping[Player, _Classes], alive: tuple) -> list:
        """Every column over the first members of the opponents' alive
        classes (alive, per opponent), each one's keys in class order."""
        got = self._grids.get(alive)
        if got is None:
            keys = [dict.fromkeys(get(classes[j].first[c])
                                  for c in sorted(live))
                    for j, get, live in zip(self.opponents, self.opp_keys,
                                            alive)]
            got = self._grids[alive] = list(itertools.product(*keys))
        return got

    def play(self, w: list, n: NodeId):
        """The tree played from n on the flat list w, whose own vector holds
        None at the deviation positions not fixed yet: the terminal reached,
        or at the first such position met, (its node, the position)."""
        steps = self.steps
        step = steps.get(n)
        while step is not None:
            get, kids, own = step
            c = kids.get(get(w))
            if c is None:
                return n, own
            n = c
            step = steps.get(n)
        return n

    def deviations(self, sets: Sequence[InfoSet]) -> dict[InfoSet, list]:
        """Per set of i in the tree, its deviation positions (the positions
        of ``deviation_sets``): i's positions at its members and below them,
        from one walk up the tree."""
        kids, order = self.kids, [self.root]
        for n in order:
            order.extend(kids[n].values())
        below: dict[NodeId, set] = {}
        for n in reversed(order):
            got = below[n] = set()
            for c in kids[n].values():
                got |= below[c]
            if n in self.steps and self.steps[n][2] is not None:
                got.add(self.steps[n][2])
        return {h: sorted(set().union(*map(below.__getitem__, h.members)))
                for h in sets}


class _SetContext:
    """One decision set over its player's view of the host tree
    (``_TreeView``): its deviation positions with their menus, the key of
    the own choices off them, its members' path requirements and caches;
    takes the game only to build, never holds it."""

    def __init__(self, g: Game, view: _TreeView, h: InfoSet, dev: list):
        self.view = view
        self.i = i = view.i
        self.h = h
        # the deviation positions, each with its menu
        sets = g.decision_sets(i)
        self.dev = {p: g.set_actions(sets[p]) for p in dev}
        self.prefix_key = _getter([p for p in view.own if p not in self.dev])
        # per member of h, the (index among a column's keys, action)
        # constraints of the path to it
        reqs = _requirements(g, h.host)
        self.reqs = [[(view.at[j, p], a) for j, _, p, a in reqs[m] if j != i]
                     for m in h.members]
        self._col_reaches: dict[tuple, bool] = {}
        self._columns: dict[tuple, tuple] = {}
        self._aids: dict[tuple, int] = {}
        self._allowed: dict[int, tuple] = {}
        self._matrices: dict[tuple, tuple] = {}

    def column_reaches(self, col: tuple) -> bool:
        got = self._col_reaches.get(col)
        if got is None:
            keys = tuple(itertools.chain(*col))
            got = self._col_reaches[col] = any(
                all(keys[k] == a for k, a in r) for r in self.reqs)
        return got

    def columns(self, classes: Mapping[Player, _Classes],
                alive: tuple) -> tuple:
        """The reaching columns of the view's ``grid``."""
        got = self._columns.get(alive)
        if got is None:
            got = self._columns[alive] = tuple(filter(
                self.column_reaches, self.view.grid(classes, alive)))
        return got

    def intern(self, cols: tuple) -> int:
        """A small id for a tuple of allowed reaching columns."""
        aid = self._aids.setdefault(cols, len(self._aids))
        self._allowed.setdefault(aid, cols)
        return aid

    def _matrix(self, v: tuple, aid: int) -> tuple:
        """Payoff rows for every continuation at the deviation sets, shared
        by all strategies with the same choices before the set: the branch
        tree, each row of terminal ids' index into the distinct rows, those
        rows, the column maxima and a verdict slot per distinct row.

        One loop plays the allowed columns in turn, each on its own flat
        list (``_TreeView``) with v's choices off the deviation positions,
        and branches in menu order where a column meets a deviation position
        that no branch above fixes; a branch's fix goes into every list.
        Its tree has a [position, {action: subtree}] list per branch and a
        row of terminal ids, one per column, per leaf.  Rows are compared
        first as tuples of terminal ids, then as payoffs, which are integers
        (``_TreeView.payoff``)."""
        key = (self.prefix_key(v), aid)
        got = self._matrices.get(key)
        if got is not None:
            return got
        view = self.view
        play, root = view.play, view.root
        w = list(v)
        for p in self.dev:
            w[p] = None
        flats = [[*w, *itertools.chain(*c)] for c in self._allowed[aid]]
        id_rows: list[tuple] = []
        fixed: list[int] = []  # the positions the current branch fixes
        top: dict = {}
        # per branch to play: how many positions are fixed above it, the one
        # it fixes and how, the columns' terminals so far, the next column's
        # node and the dict that takes its subtree
        stack = [(0, None, None, (), root, top)]
        while stack:
            depth, p, a, ids, n, at = stack.pop()
            while len(fixed) > depth:
                q = fixed.pop()
                for f in flats:
                    f[q] = None
            if p is not None:
                for f in flats:
                    f[p] = a
                fixed.append(p)
            while len(ids) < len(flats):
                x = play(flats[len(ids)], n)
                if type(x) is tuple:
                    n, q = x
                    at[a] = [q, {}]
                    stack.extend((len(fixed), q, b, ids, n, at[a][1])
                                 for b in reversed(self.dev[q]))
                    break
                ids += (x,)
                n = root
            else:
                at[a] = ids
                id_rows.append(ids)
        pay = view.payoff
        distinct: dict[tuple, int] = {}
        of = {ids: distinct.setdefault(tuple([pay[n] for n in ids]),
                                       len(distinct)) for ids in id_rows}
        rows = list(distinct)
        col_max = tuple(map(max, zip(*rows)))
        got = self._matrices[key] = (top[None], of, rows, col_max,
                                     [None] * len(rows))
        return got

    def optimal_for_some_belief(self, v: tuple, aid: int) -> bool:
        """True when some belief over the allowed columns makes the
        continuation of v weakly optimal among local deviations: its row is
        unbeaten at some column, else no row beats it at every column and
        the simplex over all the distinct rows finds a belief
        (``lp.find_belief``); a dominated row only adds an implied bound."""
        x, of, rows, col_max, verdicts = self._matrix(v, aid)
        while type(x) is list:
            x = x[1][v[x[0]]]
        r = of[x]
        if verdicts[r] is None:
            base = rows[r]
            verdicts[r] = any(map(eq, base, col_max)) \
                or self._lp(base, rows)
        return verdicts[r]

    def _lp(self, base: tuple, rows) -> bool:
        return find_belief([[v - b for v, b in zip(r, base)] for r in rows],
                           len(base)) is not None


@_memo
def _contexts(g: Game) -> dict[InfoSet, _SetContext]:
    """The set contexts of every real player's decision sets."""
    out = {}
    for i in g.players:
        sets = g.decision_sets(i)
        for t in {h.host for h in sets}:
            view = _TreeView(g, i, t)
            dev = view.deviations([h for h in sets if h.host == t])
            out.update((h, _SetContext(g, view, h, d)) for h, d in dev.items())
    return out


class _Classes:
    """An acting player's pure strategies in the classes a round keeps or
    drops whole, numbered in the order of their first members.

    A real player's classes are its realization classes: two pure
    strategies are realization-equivalent exactly when they reach the same
    decision sets, each in its host tree, and choose alike there.  The
    table is built by a loop over the decision-set positions, never by
    classifying vectors: it expands the partial classes position by
    position, and a position whose set a partial class reaches under the
    choices fixed so far splits it by its actions, while any other holds
    its first action and multiplies the class size by its menu size.  So each
    class is its first member's choices at the positions it reaches times
    every action at the others.  Nature reaches every position, so each of
    its vectors is its own class; no round drops one.
    """

    def __init__(self, g: Game, j: Player):
        sets = g.decision_sets(j)
        self.menus = [g.set_actions(h) for h in sets]  # per position
        # per set, per member, the own (position, action) constraints of the
        # path to it; nature's sets are always reached
        rows = [[()]] * len(sets) if j == NATURE else [
            [tuple((p, a) for k, _, p, a in _requirements(g, h.host)[m]
                   if k == j) for m in h.members] for h in sets]
        order = _position_order([{p for r in rs for p, _ in r}
                                 for rs in rows])
        # partial classes, each (first member, reached flags, size) over
        # the positions expanded so far; the others hold their first action
        part = [([m[0] for m in self.menus], [False] * len(sets), 1)]
        for k in order:
            menu, grown = self.menus[k], []
            for v, mark, size in part:
                if not _reaches(rows[k], v, mark):
                    grown.append((v, mark, size * len(menu)))
                    continue
                mark[k] = True
                grown.append((v, mark, size))
                for a in menu[1:]:
                    w = v.copy()
                    w[k] = a
                    grown.append((w, mark.copy(), size))
            part = grown
        if order != sorted(order):
            # reach reads a later position, so the classes need not come in
            # pool order of their first members, which is their actions' order
            rank = [dict(zip(m, itertools.count())) for m in self.menus]
            part.sort(key=lambda c: [r[a] for r, a in zip(rank, c[0])])
        # per class: its first member, the positions it reaches and its size
        self.first, self.reached, self.size = map(list, zip(*[
            (tuple(v), tuple(itertools.compress(range(len(sets)), mark)), size)
            for v, mark, size in part]))

    def members(self, alive: frozenset) -> list[tuple]:
        """The vectors of the alive classes, in ``strategy_vectors`` order:
        a loop over the positions extends each prefix by every action that
        one of its alive classes allows there.  Classes partition the pool,
        so every prefix ends in a vector."""
        first, reached = self.first, self.reached
        part = [((), sorted(alive))]
        for p, menu in enumerate(self.menus):
            part = [(v + (a,), keep) for v, cs in part for a in menu
                    if (keep := [c for c in cs if p not in reached[c]
                                 or first[c][p] == a])]
        return [v for v, cs in part if cs]


def _position_order(reads: Sequence[set]) -> list[int]:
    """The decision-set positions, each after every position its reach
    reads (least available first, so the identity when reach reads only
    earlier positions).  AssertionError when no such order exists."""
    order: list[int] = []
    done: set[int] = set()
    while len(order) < len(reads):
        k = next((k for k, r in enumerate(reads)
                  if k not in done and r <= done), None)
        if k is None:
            raise AssertionError("decision-set reach has no position order")
        order.append(k)
        done.add(k)
    return order


def _reaches(rows, v: list, mark: list) -> bool:
    """Whether a set is reached by v, given per member of the set the own
    (position, action) constraints of the path to it.  AssertionError when
    the answer turns on a position marked unreached: then a class would not
    be a product."""
    pending = False
    for row in rows:
        loose = False
        for p, a in row:
            if not mark[p]:
                loose = True
            elif v[p] != a:
                break
        else:
            if not loose:
                return True
            pending = True
    if pending:
        raise AssertionError("reach of a decision set reads an unreached "
                             "position")
    return False


@_memo
def _classes(g: Game, j: Player) -> _Classes:
    """Acting player j's classes over its pool of action vectors
    (``strategy_vectors``)."""
    return _Classes(g, j)


def _allowed_columns(ctx: _SetContext, classes: Mapping[Player, _Classes],
                     rounds: list[dict]) -> tuple:
    """Best-rationalization support: columns from the latest round whose
    survivors still reach the set.  Rounds hold the alive classes."""
    opponents = ctx.view.opponents
    for rd in reversed(rounds):
        cols = ctx.columns(classes, tuple(rd[j] for j in opponents))
        if cols:
            return cols
    raise AssertionError("no opposing profile reaches %s" % ctx.h.label())


def efr(g: Game) -> EfrTrace:
    """Iterate the belief-restriction procedure to its fixpoint.

    Runs once per game: every later call returns the same trace, which
    callers must not change.  TypeError when g is not a Game.
    """
    _check_game(g)
    return _efr(g)


@_memo
def _efr(g: Game) -> EfrTrace:
    rounds = _class_rounds(g)
    shared = {}
    for i in g.players:
        # one round per distinct class set, all building through one dict
        table, make, made = _classes(g, i), vector_strategy(g, i), {}
        shared[i] = {alive: _Round(table, alive, make, made)
                     for alive in {rd[i] for rd in rounds}}
    return EfrTrace([{i: shared[i][rd[i]] for i in g.players}
                     for rd in rounds], fixpoint_round=len(rounds) - 1)


class _Round(Sequence):
    """One player's survivors of one or more rounds with the same alive
    classes (see ``EfrTrace``).  Holds the class table, the strategy maker
    and the trace's dict of the player's strategies built so far, by
    vector, never the game; its own list is filled on the first read."""

    __hash__ = None  # equal to a list, which is unhashable

    def __init__(self, table: _Classes, alive: frozenset, make,
                 made: dict[tuple, PureStrategy]):
        self._table = table
        self._alive = alive
        self._make = make
        self._made = made
        self._list: Optional[list[PureStrategy]] = None

    def _members(self) -> list[PureStrategy]:
        """The strategies of the alive classes (``_Classes.members``), in
        pool order; callers must not change the list."""
        if self._list is None:
            made, make = self._made, self._make
            self._list = [made[v] if v in made else made.setdefault(v, make(v))
                          for v in self._table.members(self._alive)]
        return self._list

    def __len__(self) -> int:
        return sum(map(self._table.size.__getitem__, self._alive))

    def __getitem__(self, k):
        return self._members()[k]

    def __iter__(self):
        return iter(self._members())

    def __eq__(self, other) -> bool:
        if isinstance(other, _Round):
            if other._table is self._table:
                # classes partition the pool and none is empty
                return other._alive == self._alive
            other = other._members()
        if isinstance(other, list):
            return self._members() == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._members())


@_memo
def _class_rounds(g: Game) -> list[dict[Player, frozenset]]:
    """Per round of ``efr(g).rounds``, per acting player, the classes
    (``_classes``) whose members the round holds: the engine itself.

    A round decides a player's alive classes only at the sets whose
    interned allowed columns changed since the player was last decided:
    at every other set they all passed under those same columns.  A player
    none of whose opponents' alive classes changed in the last round, nature
    counted, keeps its classes without computing columns, since then no
    set's allowed columns changed."""
    ctxs = _contexts(g)
    classes = {j: _classes(g, j) for j in acting_players(g)}
    rounds = [{j: frozenset(range(len(c.first))) for j, c in classes.items()}]
    # per decision set, the columns its player's alive classes passed
    passed: dict[InfoSet, int] = {}
    while True:
        new = dict(rounds[-1])
        for i in g.players:
            if len(rounds) > 1 and all(rounds[-1][j] == rounds[-2][j]
                                       for j in classes if j != i):
                continue
            changed = {}
            for p, h in enumerate(g.decision_sets(i)):
                ctx = ctxs[h]
                aid = ctx.intern(_allowed_columns(ctx, classes, rounds))
                if passed.get(h) != aid:
                    changed[p] = ctx, aid
                    passed[h] = aid
            table = classes[i]
            new[i] = frozenset(c for c in rounds[-1][i]
                               if _rational(table, c, changed))
            assert new[i], "no rationalizable strategy for player %d" % i
        rounds.append(new)
        if new == rounds[-2]:
            return rounds


def _rational(table: _Classes, c: int, changed: dict) -> bool:
    """The verdict on class c, decided on its first member: optimal for
    some allowed belief at every set the class reaches among the changed
    ones, which map a set's position to its context and interned columns."""
    v = table.first[c]
    return all(changed[p][0].optimal_for_some_belief(v, changed[p][1])
               for p in table.reached[c] if p in changed)
