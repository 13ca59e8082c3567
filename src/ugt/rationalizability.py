"""Extensive-form rationalizability by iterated belief restriction.

Each round keeps the strategies that are rational at every information set
they reach, under some belief whose support obeys the best-rationalization
rule: at each information set, probability 1 goes to the opposing profiles
from the *latest* previous round that still reach the set (falling back all
the way to the full strategy set).

The engine (``_efr``) keeps or drops whole realization classes
(``_classes``), and ``efr`` builds its public trace from them: a verdict
reads a strategy only at the sets it reaches and through the opposing
columns there, so one member decides for its class, and the first members
of the opposing classes give every column that plays differently.  The
engine decides per-set optimality by exact linear feasibility over a
payoff matrix (continuations x allowed opposing profiles).  Each column of
the matrix comes from one walk of the host tree that branches only at the
deviation sets the play meets, and its entries are the player's payoffs
times one positive integer per set, so they compare and pivot as ints.
``efr_oracle`` recomputes everything by explicitly assembling whole belief
systems with Bayes conditioning enforced; it is exponential and guarded by
a cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import eq, ge, itemgetter
from typing import Mapping, Optional, Sequence

from .core import (
    NATURE, Game, InfoSet, NodeId, Player, hosts_reachable, info_arborescence)
from .lp import solve_feasibility
from .strategies import (
    PureProfile,
    PureStrategy,
    ZERO,
    ONE,
    _requirements,
    acting_players,
    action_vector,
    conditioned_belief,
    deviation_sets,
    is_rational_at,
    play_table,
    reaches,
    set_positions,
    strategy_vectors,
    vector_strategy,
)

DEFAULT_ORACLE_CAP = 1000


@dataclass
class BeliefConstraint:
    """Allowed support at one information set in one round."""

    player: Player
    info_set: InfoSet
    level: int  # the round whose survivors still reach the set
    profiles: list[PureProfile]  # restricted representatives, deduplicated


@dataclass
class EfrTrace:
    rounds: list[dict[Player, list[PureStrategy]]]
    belief_constraints: list[dict[InfoSet, BeliefConstraint]]
    fixpoint_round: int

    def surviving(self) -> dict[Player, list[PureStrategy]]:
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


class _SetContext:
    """Caches for one decision set; takes the game per call, never holds it.

    A column is the tuple of the opponents' keys, each an opponent's actions
    at its decision sets in the host tree; nature counts as an opponent.
    Equal columns play the host tree out identically.  A column's
    representative takes, per opponent, its key at the positions the host
    tree reads and the first action everywhere else.
    """

    def __init__(self, g: Game, i: Player, h: InfoSet):
        self.i = i
        self.h = h
        t = h.host
        self.kids = g._st.children[t]
        self.table = play_table(g, t)
        self.root = g.root(t)
        # i's payoffs at the terminals, times one positive integer scale
        pays = {n: g.nodes[n].payoffs[i]
                for n, kids in self.kids.items() if not kids}
        scale = math.lcm(*(x.denominator for x in pays.values()))
        self.payoff = {n: x.numerator * (scale // x.denominator)
                       for n, x in pays.items()}
        pos = set_positions(g, i)
        dev_sets = deviation_sets(g, i, h)
        self.menus = [g.set_actions(x) for x in dev_sets]
        self.dev = [pos[x] for x in dev_sets]
        # the vector positions a play-out of the host tree can consult
        used: dict[Player, list[int]] = {}
        for n in sorted(self.table):
            for j, p in self.table[n]:
                if p not in used.setdefault(j, []):
                    used[j].append(p)
        own = used.get(i, [])
        self.own_key = _getter(own)
        self.dev_key = _getter(self.dev)
        self.prefix_key = _getter([p for p in own if p not in self.dev])
        self.opponents = [j for j in acting_players(g) if j != i]
        self.opp_keys = [_getter(used.get(j, [])) for j in self.opponents]
        # per opponent, the positions its key reads and its first actions
        self.fills = [(used.get(j, []),
                       [g.set_actions(x)[0] for x in g.decision_sets(j)])
                      for j in self.opponents]
        # per member of h, the (player, set, position, action) constraints
        # of the path to it
        self.reqs = [_requirements(g, t, m) for m in h.members]
        # the own positions those constraints read
        self.reach_positions = sorted({p for r in self.reqs
                                       for j, _, p, _ in r if j == i})
        self.reach_key = _getter(self.reach_positions)
        self._col_reaches: dict[tuple, bool] = {}
        self._profiles: dict[tuple, dict] = {}
        self._restricted: dict[tuple, PureProfile] = {}
        self._columns: dict[tuple, tuple] = {}
        self._own_reach: dict[tuple, bool] = {}
        self._ids: dict[tuple, int] = {}
        self._allowed: dict[int, tuple] = {}
        self._matrices: dict[tuple, tuple] = {}

    def column_reaches(self, col: tuple) -> bool:
        got = self._col_reaches.get(col)
        if got is None:
            prof = {}
            for j, (at, first), key in zip(self.opponents, self.fills, col):
                v = list(first)
                for p, a in zip(at, key):
                    v[p] = a
                prof[j] = tuple(v)
            got = any(all(prof[j][p] == a for j, _, p, a in r if j != self.i)
                      for r in self.reqs)
            self._col_reaches[col] = got
            if got:
                self._profiles[col] = prof
        return got

    def representative(self, g: Game, col: tuple) -> PureProfile:
        """The reaching column's representative as PureStrategy objects,
        restricted to the host tree's partial game; built once per column
        and shared by every caller, which must not change it."""
        got = self._restricted.get(col)
        if got is None:
            keep = set(hosts_reachable(g, self.h.host))
            prof = self._profiles[col]
            got = self._restricted[col] = {
                j: PureStrategy.make(j, {x: a for x, a in zip(
                    g.decision_sets(j), prof[j]) if x.host in keep})
                for j in self.opponents}
        return got

    def columns(self, classes: Mapping[Player, _Classes],
                alive: tuple) -> tuple:
        """The reaching columns over the first members of the opponents'
        alive classes, each opponent's keys in class order.

        classes maps each opponent to its class table, and alive holds per
        opponent its alive classes."""
        got = self._columns.get(alive)
        if got is None:
            keys = [dict.fromkeys(get(classes[j].first[c])
                                  for c in sorted(live))
                    for j, get, live in zip(self.opponents, self.opp_keys,
                                            alive)]
            got = self._columns[alive] = tuple(
                c for c in itertools.product(*keys) if self.column_reaches(c))
        return got

    def strategy_reaches(self, v: tuple) -> bool:
        key = self.reach_key(v)
        got = self._own_reach.get(key)
        if got is None:
            got = any(all(v[p] == a for j, _, p, a in r if j == self.i)
                      for r in self.reqs)
            self._own_reach[key] = got
        return got

    def intern(self, cols: tuple) -> int:
        """A small id for a tuple of allowed reaching columns."""
        aid = self._ids.setdefault(cols, len(self._ids))
        self._allowed.setdefault(aid, cols)
        return aid

    def _walk(self, prof: Mapping[Player, list], n: NodeId):
        """The host tree played from n under prof, whose own vector holds
        None at the deviation positions not fixed yet: the terminal reached,
        or at the first such position met, (its deviation index, per action
        the walk with that action fixed)."""
        kids, table = self.kids, self.table
        pairs = table.get(n)
        while pairs is not None:
            acts = tuple([prof[j][p] for j, p in pairs])
            if None in acts:
                w = prof[self.i]
                p = next(p for j, p in pairs if j == self.i)
                k = self.dev.index(p)
                branches = {}
                for a in self.menus[k]:
                    w[p] = a
                    branches[a] = self._walk(prof, n)
                w[p] = None
                return k, branches
            n = kids[n][acts]
            pairs = table.get(n)
        return n

    def _matrix(self, v: tuple, aid: int) -> tuple:
        """Payoff rows for every continuation at the deviation sets, shared
        by all strategies with the same choices before the set: each
        continuation's index into the distinct rows, those rows, the
        column maxima, the distinct rows no other row dominates (only those
        can constrain a belief) and a verdict slot per distinct row.

        Each allowed column plays the host tree once, with v's choices off
        the deviation positions, branching only at the deviation positions
        the play meets; a continuation's cell is the terminal its actions
        select in that walk.  Rows are compared first as tuples of terminal
        ids, then as payoffs, which are integers (``payoff``)."""
        key = (self.prefix_key(v), aid)
        got = self._matrices.get(key)
        if got is not None:
            return got
        w = list(v)
        for p in self.dev:
            w[p] = None
        walks = [self._walk({**self._profiles[c], self.i: w}, self.root)
                 for c in self._allowed[aid]]
        index: dict[tuple, int] = {}
        at = {}
        for combo in itertools.product(*self.menus):
            ids = []
            for x in walks:
                while type(x) is tuple:
                    x = x[1][combo[x[0]]]
                ids.append(x)
            at[combo] = index.setdefault(tuple(ids), len(index))
        pay = self.payoff
        distinct: dict[tuple, int] = {}
        of = [distinct.setdefault(tuple([pay[n] for n in ids]), len(distinct))
              for ids in index]
        if len(distinct) < len(index):
            at = {combo: of[r] for combo, r in at.items()}
        rows = list(distinct)
        col_max = tuple(map(max, zip(*rows)))
        kept = [r for r in rows
                if not any(o != r and all(map(ge, o, r)) for o in rows)]
        got = self._matrices[key] = (at, rows, col_max, kept,
                                     [None] * len(rows))
        return got

    def optimal_for_some_belief(self, v: tuple, aid: int) -> bool:
        """True when some belief over the allowed columns makes the
        continuation of v weakly optimal among local deviations."""
        at, rows, col_max, kept, verdicts = self._matrix(v, aid)
        r = at[self.dev_key(v)]
        if verdicts[r] is None:
            base = rows[r]
            # point-belief fast path: a column where the base is unbeaten
            verdicts[r] = any(map(eq, base, col_max)) \
                or self._lp(base, kept)
        return verdicts[r]

    def _lp(self, base: tuple, rows) -> bool:
        n = len(base)
        a_ub = [[v - b for v, b in zip(r, base)] for r in rows]
        x = solve_feasibility(n, a_eq=[[ONE] * n], b_eq=[ONE],
                              a_ub=a_ub, b_ub=[ZERO] * len(rows))
        return x is not None

    def column(self, g: Game, p: PureProfile) -> tuple:
        """The column of an opposing profile of PureStrategy objects,
        restricted ones included.  Raises ValueError when the profile lacks
        a valid choice that the host tree consults."""
        col = tuple(get(action_vector(g, p[j], j) if j in p
                        else (None,) * len(g.decision_sets(j)))
                    for j, get in zip(self.opponents, self.opp_keys))
        if any(None in key for key in col):
            raise ValueError("profile lacks a choice that %s consults"
                             % self.h.host)
        return col


def _contexts(g: Game) -> dict[InfoSet, _SetContext]:
    """The set contexts of every real player's decision sets, built once
    per game together with each acting player's classes."""
    ix = g._ix
    if ix.efr_contexts is None:
        ix.efr_contexts = {}
        for j in acting_players(g):
            sets = None
            if j != NATURE:
                sets = [_SetContext(g, j, h) for h in g.decision_sets(j)]
                ix.efr_contexts.update((ctx.h, ctx) for ctx in sets)
            ix.classes[j] = _Classes(strategy_vectors(g, j), sets)
    return ix.efr_contexts


class _Classes:
    """An acting player's pure strategies in the classes a round keeps or
    drops whole, numbered in the order of their first members.

    A real player's classes are its realization classes: two pure
    strategies are realization-equivalent exactly when they reach the same
    decision sets, each in its host tree, and choose alike there.  Own
    reach reads only the positions on the paths to the sets, so it is found
    once per choice there.  Nature, given no set contexts, reaches every
    position, so each of its vectors is its own class; no round drops one.
    """

    def __init__(self, vectors: Sequence[tuple],
                 sets: Optional[Sequence[_SetContext]] = None):
        self.of: dict[tuple, int] = {}  # each vector's class, in pool order
        self.first: list[tuple] = []  # per class, its first member
        self.reached: list[tuple] = []  # per class, the positions it reaches
        if sets is None:
            path_key, reach = tuple, lambda v: [True] * len(v)
        else:
            path_key = _getter(sorted({p for ctx in sets
                                       for p in ctx.reach_positions}))
            reach = lambda v: [ctx.strategy_reaches(v) for ctx in sets]
        # per choice at those positions, the positions reached and the mask
        # selecting them
        shapes: dict[tuple, tuple] = {}
        ids: dict[tuple, int] = {}
        for v in vectors:
            u = path_key(v)
            shape = shapes.get(u)
            if shape is None:
                mask = reach(v)
                shape = shapes[u] = (
                    tuple(itertools.compress(range(len(v)), mask)), mask)
            at, mask = shape
            c = self.of[v] = ids.setdefault(
                (at, tuple(itertools.compress(v, mask))), len(ids))
            if c == len(self.first):
                self.first.append(v)
                self.reached.append(at)


def _classes(g: Game, j: Player) -> _Classes:
    """Acting player j's classes over its pool of action vectors
    (``strategy_vectors``)."""
    _contexts(g)
    return g._ix.classes[j]


def _allowed_columns(ctx: _SetContext, classes: Mapping[Player, _Classes],
                     rounds: list[dict], upto: int) -> tuple[int, tuple]:
    """Best-rationalization support: columns from the latest round whose
    survivors still reach the set.  Rounds hold the alive classes."""
    for m in range(upto, -1, -1):
        cols = ctx.columns(classes,
                           tuple(rounds[m][j] for j in ctx.opponents))
        if cols:
            return m, cols
    raise AssertionError("no opposing profile reaches %s" % ctx.h.label())


def efr(g: Game) -> EfrTrace:
    """Iterate the belief-restriction procedure to its fixpoint.

    Runs once per game: the trace is kept in the game's index, and every
    later call returns that same object, which callers must not change.
    """
    ix = g._ix
    if ix.efr_trace is None:
        rounds, ctxs, classes = _class_rounds(g), _contexts(g), ix.classes
        constraints = []
        for k in range(len(rounds) - 1):
            cons = {}
            for i in g.players:
                for h in g.decision_sets(i):
                    level, cols = _allowed_columns(ctxs[h], classes, rounds,
                                                   k)
                    cons[h] = BeliefConstraint(i, h, level, [
                        ctxs[h].representative(g, c) for c in cols])
            constraints.append(cons)
        # one object per pure strategy, shared by every round
        of = {i: classes[i].of for i in g.players}
        made = {i: dict(zip(of[i], map(vector_strategy(g, i), of[i])))
                for i in g.players}
        ix.efr_trace = EfrTrace(
            [{i: [made[i][v] for v, c in of[i].items() if c in rd[i]]
              for i in g.players} for rd in rounds],
            constraints, fixpoint_round=len(rounds) - 1)
    return ix.efr_trace


def _class_rounds(g: Game) -> list[dict[Player, frozenset]]:
    """Per round of ``efr(g).rounds``, per acting player, the classes
    (``_classes``) whose members the round holds; computed once per game."""
    if g._ix.efr_classes is None:
        g._ix.efr_classes = _efr(g)
    return g._ix.efr_classes


def _surviving_classes(g: Game) -> dict[Player, frozenset]:
    """Per acting player, the classes (``_classes``) whose members survive
    extensive-form rationalizability."""
    return _class_rounds(g)[-1]


def _efr(g: Game) -> list[dict[Player, frozenset]]:
    """Per round, per acting player, its alive classes (``_classes``)."""
    ctxs, classes = _contexts(g), g._ix.classes
    rounds = [{j: frozenset(range(len(c.first))) for j, c in classes.items()}]
    while True:
        new = dict(rounds[-1])
        for i in g.players:
            allowed_at = []
            for h in g.decision_sets(i):
                _, cols = _allowed_columns(ctxs[h], classes, rounds,
                                           len(rounds) - 1)
                allowed_at.append((ctxs[h], ctxs[h].intern(cols)))
            table = classes[i]
            new[i] = frozenset(c for c in rounds[-1][i]
                               if _rational(table, c, allowed_at))
            assert new[i], "no rationalizable strategy for player %d" % i
        rounds.append(new)
        if new == rounds[-2]:
            return rounds


def _rational(table: _Classes, c: int, allowed_at) -> bool:
    """The verdict on class c, decided on its first member: optimal for
    some allowed belief at every set the class reaches.  allowed_at holds
    per decision set its context and interned columns."""
    v = table.first[c]
    return all(allowed_at[p][0].optimal_for_some_belief(v, allowed_at[p][1])
               for p in table.reached[c])


def efr_sets(g: Game) -> dict[Player, list[PureStrategy]]:
    return efr(g).surviving()


def best_reply_exists(g: Game, i: Player, h: InfoSet, s_i: PureStrategy,
                      allowed: Sequence[PureProfile]) -> bool:
    """Whether some belief over the allowed profiles makes s_i's
    continuation at h weakly optimal among local deviations.

    Raises ValueError when h is not a decision set of player i, s_i is not
    a pure strategy of player i, the allowed set is empty, or s_i or an
    allowed profile lacks a choice that h's host tree consults or does not
    reach h.
    """
    allowed = list(allowed)
    if not allowed:
        raise ValueError("allowed set must be nonempty")
    ctx = _contexts(g).get(h)
    if ctx is None or ctx.i != i:
        raise ValueError("%s is no decision set of player %d" % (h.label(), i))
    v = action_vector(g, s_i, i)
    if None in ctx.own_key(v):
        raise ValueError("strategy lacks a choice that %s consults" % h.host)
    if not ctx.strategy_reaches(v):
        return True
    cols = dict.fromkeys(ctx.column(g, p) for p in allowed)
    if not all(map(ctx.column_reaches, cols)):
        raise ValueError("allowed profile does not reach %s" % h.label())
    return ctx.optimal_for_some_belief(v, ctx.intern(tuple(cols)))


# ---------------------------------------------------------------------------
# brute-force oracle


class OracleCapExceeded(RuntimeError):
    pass


def _candidate_beliefs(g: Game, ctx: _SetContext, cols: tuple):
    """Point beliefs on each allowed column plus the uniform mixture."""
    reps = [ctx.representative(g, c) for c in cols]
    out = [[(p, ONE)] for p in reps]
    if len(cols) > 1:
        u = Fraction(1, len(cols))
        out.append([(p, u) for p in reps])
    return out


def _support_allowed(g: Game, ctx: _SetContext, belief, cols: tuple) -> bool:
    allowed = set(cols)
    for p, w in belief:
        if w > 0 and ctx.column(g, p) not in allowed:
            return False
    return True


def efr_oracle(g: Game, cap: int = DEFAULT_ORACLE_CAP) -> dict[Player, list[PureStrategy]]:
    """Recompute the fixpoint by explicit belief-system search.

    Belief systems are assembled from point and uniform beliefs over the
    allowed supports, with Bayes conditioning enforced parent-to-child
    whenever the later set lives in a weakly poorer tree and gets positive
    mass.  Exponential; refuses games above the cap.
    """
    sizes = math.prod(len(strategy_vectors(g, i)) for i in g.players)
    if sizes > cap:
        raise OracleCapExceeded("strategy-profile count %d exceeds cap %d"
                                % (sizes, cap))
    ctxs = _contexts(g)
    make = {i: vector_strategy(g, i) for i in g.players}
    parents = {i: info_arborescence(g, i) for i in g.players}
    rounds = [{j: strategy_vectors(g, j) for j in acting_players(g)}]
    while True:
        k = len(rounds)
        new = dict(rounds[-1])
        for i in g.players:
            sets_i = g.decision_sets(i)
            allowed_at = {h: _oracle_columns(ctxs[h], rounds, k - 1)
                          for h in sets_i}
            survivors = [v for v in rounds[-1][i]
                         if _oracle_survives(g, i, make[i](v), sets_i,
                                             allowed_at, ctxs, parents[i])]
            assert survivors
            new[i] = survivors
        if new == rounds[-1]:
            return {i: list(map(make[i], new[i])) for i in g.players}
        rounds.append(new)


def _oracle_columns(ctx: _SetContext, rounds: list[dict[Player, list]],
                    upto: int) -> tuple:
    """The allowed columns of every survivor's key, read off the
    survivors' action vectors one by one; the engine reads only the first
    members of their classes."""
    for m in range(upto, -1, -1):
        keys = [dict.fromkeys(map(get, rounds[m][j]))
                for j, get in zip(ctx.opponents, ctx.opp_keys)]
        cols = tuple(c for c in itertools.product(*keys)
                     if ctx.column_reaches(c))
        if cols:
            return cols
    raise AssertionError("no opposing profile reaches %s" % ctx.h.label())


def _oracle_survives(g, i, s_i, sets_i, allowed_at, ctxs,
                     parent_of) -> bool:
    reached = [h for h in sets_i if reaches(g, {i: s_i}, h)]
    order = []
    done = set()

    def visit(h):
        if h in done:
            return
        done.add(h)
        p = parent_of.get(h)
        if p is not None and p in reached:
            visit(p)
        order.append(h)

    for h in reached:
        visit(h)

    def extend(idx, chosen):
        if idx == len(order):
            return True
        h = order[idx]
        ctx = ctxs[h]
        cols = allowed_at[h]
        p = parent_of.get(h)
        forced = None
        if p in chosen and g.leq(h.host, p.host):
            forced = conditioned_belief(g, chosen[p], h)
        if forced is not None:
            options = [forced]
        else:
            options = _candidate_beliefs(g, ctx, cols)
        for belief in options:
            if not _support_allowed(g, ctx, belief, cols):
                continue
            if not is_rational_at(g, i, h, s_i, belief):
                continue
            chosen[h] = belief
            if extend(idx + 1, chosen):
                return True
            del chosen[h]
        return False

    return extend(0, {})
