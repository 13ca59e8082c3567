"""The reference layer: the object-world definitions, and the two
references built on them that check the engine (``rationalizability``).

The definitions work on ``PureStrategy`` objects and explicit beliefs over
opposing pure profiles.  ``best_reply_exists`` decides one strategy at one
information set, and ``efr_oracle`` recomputes the EFR fixpoint by explicit
belief-system search.  This module imports only ``core``, ``strategies`` and
``lp``, and no module of the package but its ``__init__`` imports it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import (
    Game, InfoSet, Player, TreeId, _check_game, hosts_reachable,
    info_arborescence)
from .lp import solve_feasibility
from .strategies import (
    ONE, ZERO, NodeRef, Profile, PureProfile, PureStrategy, Strategy, Target,
    _sets_along, acting_players, action_vector, behavior_payoff,
    deviation_sets, kernel_vector, play_out, play_table, profile_key,
    pure_strategies, reach_probability, reaches, strategy_vectors)

# a finite-support distribution over opposing pure profiles
Belief = Sequence[tuple[PureProfile, Fraction]]


def point_belief(profile: PureProfile) -> list[tuple[PureProfile, Fraction]]:
    return [(dict(profile), ONE)]


def occurs(g: Game, s: Profile, target: Target) -> bool:
    """Whether the upmost-tree counterpart of the target is realized.

    An information set occurs when some node carrying it (in any tree) has
    its upmost-tree copy on the realized path.
    """
    if isinstance(target, InfoSet):
        nodes = {n for (i, _, n), h in g.info.items()
                 if i == target.player and h == target}
        return any(occurs(g, s, (g.tbar, n)) for n in sorted(nodes))
    t, n = target
    if t not in g.trees or n not in g.trees[t]:
        raise KeyError("no node %r in tree %r" % (n, t))
    return reaches(g, s, (g.tbar, n))


def _positive(g: Game, s: Profile, node: NodeRef) -> bool:
    if all(isinstance(x, PureStrategy) for x in s.values()):
        return reaches(g, s, node)
    return reach_probability(g, s, node) > 0


def occurring_info_sets(g: Game, s: Profile, i: Player,
                        semantics: str = "occur") -> set[InfoSet]:
    """Player i's information sets reached (or occurring) with positive
    probability under the profile."""
    if semantics not in ("reach", "occur"):
        raise ValueError("semantics must be 'reach' or 'occur'")
    out = set()
    for h in g.info_sets(i):
        if semantics == "reach":
            hit = any(_positive(g, s, (h.host, m)) for m in h.members)
        else:
            nodes = {n for (j, _, n), v in g.info.items()
                     if j == i and v == h}
            hit = any(_positive(g, s, (g.tbar, n)) for n in sorted(nodes))
        if hit:
            out.add(h)
    return out


def path_info_sets(g: Game, s: Profile, i: Player) -> set[InfoSet]:
    """Information sets of player i at positive-probability upmost-tree
    path nodes (the sets a player actually experiences during play)."""
    tbar = g.tbar
    if all(isinstance(x, PureStrategy) for x in s.values()):
        nodes = g.path_in(tbar, play_out(g, tbar, s))
    else:
        nodes = [n for n in sorted(g.trees[tbar])
                 if reach_probability(g, s, (tbar, n)) > 0]
    return _sets_along(g, nodes, i)


# ---------------------------------------------------------------------------
# expected payoff and rationality at an information set


def _check_belief(g: Game, h: InfoSet, belief: Belief) -> None:
    total = sum((w for _, w in belief), ZERO)
    if total != 1 or any(w < 0 for _, w in belief):
        raise ValueError("belief at %s is not a distribution" % h.label())
    for p, w in belief:
        if w > 0 and not reaches(g, p, h):
            raise ValueError("belief at %s puts weight on a profile missing it"
                             % h.label())


def expected_payoff_at(g: Game, i: Player, h: InfoSet, s_i: Strategy,
                       belief: Belief, validate: bool = True) -> Fraction:
    """Expected payoff of player i at h, inside h's host tree.

    The belief is a finite-support distribution over opposing profiles (all
    reaching h); the player follows their own strategy from the root of the
    host tree onward.  s_i is a pure, behavior or mixed strategy of i (a
    mixed one plays its behavior form); ValueError otherwise.
    """
    if validate:
        _check_belief(g, h, belief)
    t = h.host
    # pure play follows one path; kernel vectors would only add allocations
    pure = isinstance(s_i, PureStrategy)
    own = None if pure else kernel_vector(g, s_i, i)
    total = ZERO
    for p, w in belief:
        if w == 0:
            continue
        if pure:
            z = play_out(g, t, {**p, i: s_i})
            total += w * g.nodes[z].payoffs[i]
        else:
            kernels = {j: kernel_vector(g, sj, j) for j, sj in p.items()}
            kernels[i] = own
            total += w * behavior_payoff(g, i, t, kernels)
    return total


def local_deviations(g: Game, i: Player, h: InfoSet,
                     s_i: PureStrategy) -> list[PureStrategy]:
    """All strategies distinct from s_i only at h and its successors."""
    sets = deviation_sets(g, i, h)
    menus = [g.set_actions(x) for x in sets]
    out = []
    for combo in itertools.product(*menus):
        updates = dict(zip(sets, combo))
        if all(s_i.action_at(x) == a for x, a in updates.items()):
            continue
        out.append(s_i.replace(updates))
    return out


def is_rational_at(g: Game, i: Player, h: InfoSet, s_i: PureStrategy,
                   belief: Belief) -> bool:
    """No local deviation strictly improves the expected payoff at h.

    Vacuously true when the player's own strategy already avoids h.
    """
    if not reaches(g, {i: s_i}, h):
        return True
    base = expected_payoff_at(g, i, h, s_i, belief)
    for dev in local_deviations(g, i, h, s_i):
        if expected_payoff_at(g, i, h, dev, belief, validate=False) > base:
            return False
    return True


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
    if i not in g.players or h not in g.decision_sets(i):
        raise ValueError("%s is no decision set of player %d" % (h.label(), i))
    # the (player, vector position) pairs that a play of h's host tree reads
    read = set(itertools.chain(*play_table(g, h.host).values()))
    for p in allowed:
        v = {j: action_vector(g, s, j) for j, s in {**p, i: s_i}.items()}
        if any(j not in v or v[j][k] is None for j, k in read):
            raise ValueError("a profile lacks a choice that %s consults"
                             % h.host)
    if not reaches(g, {i: s_i}, h):
        return True
    # expected_payoff_at raises when an allowed profile does not reach h
    rows = [[expected_payoff_at(g, i, h, s, point_belief(p)) for p in allowed]
            for s in [s_i, *local_deviations(g, i, h, s_i)]]
    n = len(allowed)
    a_ub = [[x - y for x, y in zip(r, rows[0])] for r in rows[1:]]
    return solve_feasibility(n, [[ONE] * n], [ONE], a_ub,
                             [ZERO] * len(a_ub)) is not None


# ---------------------------------------------------------------------------
# belief systems


@dataclass
class BeliefSystem:
    """Per-information-set beliefs over opposing pure profiles.

    Profiles may correlate opponents and nature.  Conditioning ties beliefs
    together along the came-before relation whenever the later set lives in
    a weakly poorer tree and receives positive mass.
    """

    owner: Player
    beliefs: dict[InfoSet, list[tuple[PureProfile, Fraction]]]


def restrict_strategy(g: Game, s: PureStrategy, t: TreeId) -> PureStrategy:
    """Restriction of a strategy to the t-partial game's information sets."""
    keep = set(hosts_reachable(g, t))
    return PureStrategy.make(
        s.owner, {h: a for h, a in s.choices if h.host in keep})


def restrict_profile(g: Game, s: PureProfile, t: TreeId) -> PureProfile:
    return {j: restrict_strategy(g, sj, t) for j, sj in s.items()}


def conditioned_belief(g: Game, belief: Belief,
                       h_to: InfoSet) -> Optional[list[tuple[PureProfile, Fraction]]]:
    """Bayes-condition a belief on reaching h_to, restricted to h_to's
    partial game; None when the event has probability zero."""
    mass = [(restrict_profile(g, p, h_to.host), w)
            for p, w in belief if w > 0 and reaches(g, p, h_to)]
    den = sum((w for _, w in mass), ZERO)
    if den == 0:
        return None
    grouped: dict = {}
    for p, w in mass:
        k = profile_key(p)
        if k in grouped:
            grouped[k] = (p, grouped[k][1] + w)
        else:
            grouped[k] = (p, w)
    return [(p, w / den) for p, w in grouped.values()]


def belief_equal(a: Belief, b: Belief) -> bool:
    def norm(bel):
        out: dict = {}
        for p, w in bel:
            if w != 0:
                k = profile_key(p)
                out[k] = out.get(k, ZERO) + w
        return out
    return norm(a) == norm(b)


def check_belief_system(g: Game, bs: BeliefSystem) -> list[str]:
    """Violations of the belief-system invariants (empty list = valid)."""
    problems = []
    for h, belief in bs.beliefs.items():
        try:
            _check_belief(g, h, belief)
        except ValueError as e:
            problems.append(str(e))
    parents = info_arborescence(g, bs.owner)
    for h, parent in parents.items():
        if parent is None or h not in bs.beliefs or parent not in bs.beliefs:
            continue
        if not g.leq(h.host, parent.host):
            continue  # awareness rises: conditioning impossible
        cond = conditioned_belief(g, bs.beliefs[parent], h)
        here = [(restrict_profile(g, p, h.host), w) for p, w in bs.beliefs[h]]
        if cond is not None and not belief_equal(cond, here):
            problems.append("belief at %s is not the conditional of %s"
                            % (h.label(), parent.label()))
    return problems


# ---------------------------------------------------------------------------
# brute-force oracle

DEFAULT_ORACLE_CAP = 1000


class OracleCapExceeded(RuntimeError):
    pass


def _candidate_beliefs(allowed: Mapping[tuple, PureProfile]) -> list:
    """Point beliefs on each allowed profile plus the uniform mixture."""
    out = [[(p, ONE)] for p in allowed.values()]
    if len(allowed) > 1:
        u = Fraction(1, len(allowed))
        out.append([(p, u) for p in allowed.values()])
    return out


def efr_oracle(g: Game, cap: int = DEFAULT_ORACLE_CAP) -> dict[Player, list[PureStrategy]]:
    """Recompute the fixpoint by explicit belief-system search.

    Belief systems are assembled from point and uniform beliefs over the
    allowed supports (``_allowed_profiles``), with Bayes conditioning
    enforced parent-to-child whenever the later set lives in a weakly
    poorer tree and gets positive mass.  Exponential; refuses games above
    the cap with OracleCapExceeded.  TypeError when g is not a Game or
    cap is not an int.
    """
    _check_game(g)
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise TypeError("cap must be an int, not %r" % (cap,))
    sizes = math.prod(len(strategy_vectors(g, i)) for i in g.players)
    if sizes > cap:
        raise OracleCapExceeded("strategy-profile count %d exceeds cap %d"
                                % (sizes, cap))
    parents = {i: info_arborescence(g, i) for i in g.players}
    rounds = [{j: pure_strategies(g, j) for j in acting_players(g)}]
    while True:
        new = dict(rounds[-1])
        for i in g.players:
            sets_i = g.decision_sets(i)
            allowed_at = {h: _allowed_profiles(g, i, h, rounds,
                                               len(rounds) - 1)[1]
                          for h in sets_i}
            new[i] = [s for s in rounds[-1][i]
                      if _oracle_survives(g, i, s, sets_i, allowed_at,
                                          parents[i])]
            assert new[i]
        if new == rounds[-1]:
            return {i: new[i] for i in g.players}
        rounds.append(new)


def _allowed_profiles(g: Game, i: Player, h: InfoSet,
                      pools: Sequence[Mapping[Player, Sequence[PureStrategy]]],
                      upto: int) -> tuple[int, dict[tuple, PureProfile]]:
    """Best-rationalization support at player i's decision set h: the
    latest round m <= upto whose opposing survivors (``pools[m]``, nature's
    whole pool included) reach h, and their distinct profiles restricted to
    h's partial game, keyed by ``profile_key``.

    Each opponent's pool is restricted and deduplicated before the product
    is taken; that loses nothing, as reach of h reads only sets inside
    h's partial game."""
    opponents = [j for j in acting_players(g) if j != i]
    for m in range(upto, -1, -1):
        restricted = [dict.fromkeys(restrict_strategy(g, s, h.host)
                                    for s in pools[m][j]) for j in opponents]
        allowed: dict[tuple, PureProfile] = {}
        for combo in itertools.product(*restricted):
            p = dict(zip(opponents, combo))
            if reaches(g, p, h):
                allowed.setdefault(profile_key(p), p)
        if allowed:
            return m, allowed
    raise AssertionError("no opposing profile reaches %s" % h.label())


def _oracle_survives(g, i, s_i, sets_i, allowed_at, parent_of) -> bool:
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
        allowed = allowed_at[h]
        p = parent_of.get(h)
        forced = None
        if p in chosen and g.leq(h.host, p.host):
            forced = conditioned_belief(g, chosen[p], h)
        if forced is not None:
            options = [forced]
        else:
            options = _candidate_beliefs(allowed)
        for belief in options:
            # the support filter: a forced belief may leave the support
            if any(w > 0 and profile_key(q) not in allowed
                   for q, w in belief):
                continue
            if not is_rational_at(g, i, h, s_i, belief):
                continue
            chosen[h] = belief
            if extend(idx + 1, chosen):
                return True
            del chosen[h]
        return False

    return extend(0, {})
