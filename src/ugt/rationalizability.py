"""Extensive-form rationalizability by iterated belief restriction.

Each round keeps the strategies that are rational at every information set
they reach, under some belief whose support obeys the best-rationalization
rule: at each information set, probability 1 goes to the opposing profiles
from the *latest* previous round that still reach the set (falling back all
the way to the full strategy set).

The engine decides per-set optimality by exact linear feasibility over a
payoff matrix (continuations x allowed opposing profiles).  ``efr_oracle``
recomputes everything by explicitly assembling whole belief systems with
Bayes conditioning enforced; it is exponential and guarded by a cap.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import Game, InfoSet, NATURE, Player, info_arborescence
from .lp import solve_feasibility
from .strategies import (
    PureProfile,
    PureStrategy,
    ZERO,
    ONE,
    _key_set,
    conditioned_belief,
    deviation_sets,
    has_nature,
    is_rational_at,
    play_out,
    pure_strategies,
    reaches,
    restrict_profile,
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


class _SetContext:
    """Caches for one decision set; takes the game per call, never holds it."""

    def __init__(self, g: Game, i: Player, h: InfoSet):
        self.i = i
        self.h = h
        t = h.host
        self.dev_sets = deviation_sets(g, i, h)
        self.menus = [g.set_actions(x) for x in self.dev_sets]
        # own and opposing decision points inside the host tree; these are
        # the only choices a play-out of the tree can consult
        own = []
        opp = []
        for n in sorted(g.trees[t]):
            if g.terminal_in(t, n):
                continue
            for j in sorted(g.nodes[n].players):
                ks = _key_set(g, j, t, n)
                if j == i:
                    if ks not in own:
                        own.append(ks)
                elif (j, ks) not in opp:
                    opp.append((j, ks))
        self.own_keys = own
        self.prefix_sets = [x for x in own if x not in self.dev_sets]
        self.opp_keys = opp
        self._col_reaches: dict[tuple, bool] = {}
        self._col_rep: dict[tuple, PureProfile] = {}
        self._own_reach: dict[tuple, bool] = {}
        self._matrices: dict[tuple, tuple] = {}
        self._verdicts: dict[tuple, bool] = {}

    def column(self, p: PureProfile) -> tuple:
        return tuple(p[j].action_at(hh) for j, hh in self.opp_keys)

    def column_reaches(self, g: Game, p: PureProfile) -> bool:
        col = self.column(p)
        got = self._col_reaches.get(col)
        if got is None:
            got = reaches(g, p, self.h)
            self._col_reaches[col] = got
            if got and col not in self._col_rep:
                self._col_rep[col] = dict(p)
        return got

    def representative(self, col: tuple) -> PureProfile:
        return self._col_rep[col]

    def strategy_reaches(self, g: Game, s_i: PureStrategy) -> bool:
        key = tuple(s_i.action_at(x) for x in self.own_keys)
        got = self._own_reach.get(key)
        if got is None:
            got = reaches(g, {self.i: s_i}, self.h)
            self._own_reach[key] = got
        return got

    def _matrix(self, g: Game, prefix: tuple, allowed: tuple) -> tuple:
        """Payoff rows for every continuation at the deviation sets, shared
        by all strategies with the same choices before the set."""
        key = (prefix, allowed)
        got = self._matrices.get(key)
        if got is not None:
            return got
        base = dict(zip(self.prefix_sets, prefix))
        rows = {}
        for combo in itertools.product(*self.menus):
            s = PureStrategy.make(
                self.i, {**base, **dict(zip(self.dev_sets, combo))})
            row = []
            for c in allowed:
                z = play_out(g, self.h.host, {**self._col_rep[c], self.i: s})
                row.append(g.nodes[z].payoffs[self.i])
            rows[combo] = tuple(row)
        col_max = tuple(max(r[c] for r in rows.values())
                        for c in range(len(allowed)))
        got = (rows, col_max)
        self._matrices[key] = got
        return got

    def optimal_for_some_belief(self, g: Game, s_i: PureStrategy,
                                allowed: tuple) -> bool:
        """True when some belief over the allowed columns makes s_i's
        continuation weakly optimal among local deviations."""
        prefix = tuple(s_i.action_at(x) for x in self.prefix_sets)
        combo = tuple(s_i.action_at(x) for x in self.dev_sets)
        key = (prefix, combo, allowed)
        got = self._verdicts.get(key)
        if got is not None:
            return got
        rows, col_max = self._matrix(g, prefix, allowed)
        base = rows[combo]
        # point-belief fast path: a column where the base is unbeaten
        if any(b == m for b, m in zip(base, col_max)):
            verdict = True
        else:
            verdict = self._lp(base, set(rows.values()))
        self._verdicts[key] = verdict
        return verdict

    def _lp(self, base: tuple, rows) -> bool:
        # only rows undominated among themselves can constrain the belief
        kept = [r for r in rows
                if not any(o != r and all(x >= y for x, y in zip(o, r))
                           for o in rows)]
        n = len(base)
        a_ub = [[v - b for v, b in zip(r, base)] for r in kept]
        x = solve_feasibility(n, a_eq=[[ONE] * n], b_eq=[ONE],
                              a_ub=a_ub, b_ub=[ZERO] * len(kept))
        return x is not None


def _contexts(g: Game) -> dict[InfoSet, _SetContext]:
    ix = g._ix
    if ix.efr_contexts is None:
        ix.efr_contexts = {h: _SetContext(g, i, h) for i in g.players
                           for h in g.decision_sets(i)}
    return ix.efr_contexts


def _opposing_pool(g: Game, i: Player,
                   per_player: Mapping[Player, Sequence[PureStrategy]],
                   nature: Sequence[PureStrategy]) -> list[PureProfile]:
    others = [j for j in g.players if j != i]
    pools = [per_player[j] for j in others]
    players = list(others)
    if nature:
        players = [NATURE] + players
        pools = [list(nature)] + pools
    return [dict(zip(players, combo)) for combo in itertools.product(*pools)]


def _allowed_columns(ctx: _SetContext, g: Game, i: Player,
                     rounds: list[dict[Player, list[PureStrategy]]],
                     nature: Sequence[PureStrategy],
                     upto: int) -> tuple[int, tuple]:
    """Best-rationalization support: columns from the latest round whose
    survivors still reach the set."""
    for m in range(upto, -1, -1):
        cols = []
        seen = set()
        for p in _opposing_pool(g, i, rounds[m], nature):
            if ctx.column_reaches(g, p):
                c = ctx.column(p)
                if c not in seen:
                    seen.add(c)
                    cols.append(c)
        if cols:
            return m, tuple(cols)
    raise AssertionError("no opposing profile reaches %s" % ctx.h.label())


def efr(g: Game) -> EfrTrace:
    """Iterate the belief-restriction procedure to its fixpoint.

    Runs once per game: the trace is kept in the game's index, and every
    later call returns that same object, which callers must not change.
    """
    ix = g._ix
    if ix.efr_trace is None:
        ix.efr_trace = _efr(g)
    return ix.efr_trace


def _efr(g: Game) -> EfrTrace:
    ctxs = _contexts(g)
    nature = pure_strategies(g, NATURE) if has_nature(g) else []
    rounds = [{i: pure_strategies(g, i) for i in g.players}]
    constraints: list[dict[InfoSet, BeliefConstraint]] = []
    while True:
        k = len(rounds)
        cons: dict[InfoSet, BeliefConstraint] = {}
        new: dict[Player, list[PureStrategy]] = {}
        for i in g.players:
            allowed_at: dict[InfoSet, tuple] = {}
            for h in g.decision_sets(i):
                ctx = ctxs[h]
                level, cols = _allowed_columns(ctx, g, i, rounds, nature, k - 1)
                allowed_at[h] = cols
                cons[h] = BeliefConstraint(
                    i, h, level,
                    [restrict_profile(g, ctx.representative(c), h.host)
                     for c in cols])
            survivors = []
            for s in rounds[-1][i]:
                ok = True
                for h, cols in allowed_at.items():
                    if not ctxs[h].strategy_reaches(g, s):
                        continue
                    if not ctxs[h].optimal_for_some_belief(g, s, cols):
                        ok = False
                        break
                if ok:
                    survivors.append(s)
            assert survivors, "no rationalizable strategy for player %d" % i
            new[i] = survivors
        constraints.append(cons)
        if new == rounds[-1]:
            rounds.append(new)
            return EfrTrace(rounds, constraints, fixpoint_round=k)
        rounds.append(new)


def efr_sets(g: Game) -> dict[Player, list[PureStrategy]]:
    return efr(g).surviving()


def best_reply_exists(g: Game, i: Player, h: InfoSet, s_i: PureStrategy,
                      allowed: Sequence[PureProfile]) -> bool:
    """Whether some belief over the allowed profiles makes s_i's
    continuation at h weakly optimal among local deviations."""
    allowed = list(allowed)
    if not allowed:
        raise ValueError("allowed set must be nonempty")
    if not reaches(g, {i: s_i}, h):
        return True
    ctx = _contexts(g)[h]
    cols = []
    seen = set()
    for p in allowed:
        if not ctx.column_reaches(g, p):
            raise ValueError("allowed profile does not reach %s" % h.label())
        c = ctx.column(p)
        if c not in seen:
            seen.add(c)
            cols.append(c)
    return ctx.optimal_for_some_belief(g, s_i, tuple(cols))


# ---------------------------------------------------------------------------
# brute-force oracle


def oracle_cap() -> int:
    return int(os.environ.get("UGT_ORACLE_CAP", str(DEFAULT_ORACLE_CAP)))


class OracleCapExceeded(RuntimeError):
    pass


def _candidate_beliefs(g: Game, ctx: _SetContext, cols: tuple):
    """Point beliefs on each allowed column plus the uniform mixture."""
    out = []
    for c in cols:
        out.append([(restrict_profile(g, ctx.representative(c), ctx.h.host),
                     ONE)])
    if len(cols) > 1:
        u = Fraction(1, len(cols))
        out.append([(restrict_profile(g, ctx.representative(c), ctx.h.host),
                     u) for c in cols])
    return out


def _support_allowed(ctx: _SetContext, belief, cols: tuple) -> bool:
    allowed = set(cols)
    for p, w in belief:
        if w > 0 and ctx.column(p) not in allowed:
            return False
    return True


def efr_oracle(g: Game, cap: Optional[int] = None) -> dict[Player, list[PureStrategy]]:
    """Recompute the fixpoint by explicit belief-system search.

    Belief systems are assembled from point and uniform beliefs over the
    allowed supports, with Bayes conditioning enforced parent-to-child
    whenever the later set lives in a weakly poorer tree and gets positive
    mass.  Exponential; refuses games above the cap.
    """
    cap = oracle_cap() if cap is None else cap
    sizes = 1
    strategy_pool = {i: pure_strategies(g, i) for i in g.players}
    for ss in strategy_pool.values():
        sizes *= len(ss)
    if sizes > cap:
        raise OracleCapExceeded("strategy-profile count %d exceeds cap %d"
                                % (sizes, cap))
    ctxs = _contexts(g)
    nature = pure_strategies(g, NATURE) if has_nature(g) else []
    parents = {i: info_arborescence(g, i) for i in g.players}
    rounds = [strategy_pool]
    while True:
        k = len(rounds)
        new = {}
        for i in g.players:
            sets_i = g.decision_sets(i)
            allowed_at = {}
            for h in sets_i:
                allowed_at[h] = _allowed_columns(ctxs[h], g, i, rounds,
                                                 nature, k - 1)[1]
            survivors = [s for s in rounds[-1][i]
                         if _oracle_survives(g, i, s, sets_i, allowed_at,
                                             ctxs, parents[i])]
            assert survivors
            new[i] = survivors
        if new == rounds[-1]:
            return new
        rounds.append(new)


def _oracle_survives(g, i, s_i, sets_i, allowed_at, ctxs, parent_of) -> bool:
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
            if not _support_allowed(ctx, belief, cols):
                continue
            if not is_rational_at(g, i, h, s_i, belief):
                continue
            chosen[h] = belief
            if extend(idx + 1, chosen):
                return True
            del chosen[h]
        return False

    return extend(0, {})
