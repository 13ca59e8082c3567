"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

All comparisons are exact; no tolerances anywhere.
"""

import itertools
import random
from fractions import Fraction

from ugt.core import InfoSet, NATURE, validate_game
from ugt.discovery import (
    allowed_profiles,
    build_supergame,
    discovered_version,
    discovery_relations,
    run_discovery,
)
from ugt.equilibrium import (
    awareness_diagnostics,
    check_sce_behavior,
    construct_sce_efr,
    lift_pure,
)
from ugt.fixtures import FIXTURES, load
from ugt.randgen import generate_random_game, random_profile
from ugt.rationalizability import efr
from ugt.reference import OracleCapExceeded, efr_oracle
from ugt.strategies import (
    MixedStrategy,
    acting_players,
    kuhn_convert,
    pure_strategies,
    realization_equivalent,
    realized_tbar_path,
)


RESULTS: list[str] = []


def _report(num, name):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            line = "ACCEPTANCE %02d %s: %s" % (num, name, verdict)
            RESULTS.append(line)
            print(line)
            return False
    return _Ctx()


def _rational_profiles(g):
    pools = efr(g).rounds[1]
    players = list(g.players)
    return [dict(zip(players, combo))
            for combo in itertools.product(*[pools[i] for i in players])]


def test_criterion_01_example1_pipeline():
    with _report(1, "example-1 pipeline"):
        g = load("ex1_initial")
        surviving = efr(g).surviving()
        assert len(surviving[1]) == 1 and len(surviving[2]) == 1
        s = {1: surviving[1][0], 2: surviving[2][0]}
        assert realized_tbar_path(g, s) == [0, 1, 4]
        assert s[1].action_at(InfoSet(1, "T", (0,))) == "l1"
        assert s[2].action_at(InfoSet(2, "Tbar", (1,))) == "m2"
        rational = _rational_profiles(g)
        assert rational
        for prof in rational:
            v = check_sce_behavior(g, lift_pure(g, prof))
            assert not v.holds and v.violated_condition == "awareness"
            assert discovered_version(g, prof) == load("ex1_discovered")
        d = load("ex1_discovered")
        for s_i in efr(d).surviving()[1]:
            assert s_i.action_at(InfoSet(1, "Tbar", (0,))) == "r1"
        for prof in allowed_profiles(d, "all"):
            assert discovered_version(d, prof) == d
        pi, verdict = construct_sce_efr(d)
        assert verdict.holds


def test_criterion_02_example2_supergame():
    with _report(2, "example-2 supergame shape"):
        sg = build_supergame(load("ex2_initial"), "all")
        assert len(sg.states) == 4
        idx = {n: sg.index(load(n)) for n in
               ("ex2_initial", "ex2_rsc", "ex2_nonrat", "ex2_full")}
        assert sg.successors(idx["ex2_initial"]) == {
            idx["ex2_initial"], idx["ex2_rsc"], idx["ex2_nonrat"]}
        assert sg.successors(idx["ex2_rsc"]) == {
            idx["ex2_rsc"], idx["ex2_full"]}
        assert sg.successors(idx["ex2_nonrat"]) == {
            idx["ex2_nonrat"], idx["ex2_full"]}
        assert sg.is_absorbing(idx["ex2_full"])
        sg_efr = build_supergame(load("ex2_initial"), "efr")
        assert set(sg_efr.states) == {load("ex2_initial"), load("ex2_rsc")}


def _generated(seed):
    return generate_random_game(
        seed=seed, players=2 + (seed % 7 == 3),
        depth=2 + (seed % 2), branching=2 + (seed % 3 == 0),
        tree_count=2 + (seed % 3), nature=(seed % 5 == 0))


def test_criterion_03_discovered_version_properties():
    with _report(3, "discovered-version property suite (1000 pairs)"):
        pairs = 0
        for seed in range(250):
            g = _generated(seed)
            for k in range(4):
                s = random_profile(g, seed=10 * seed + k)
                d = discovered_version(g, s)
                assert validate_game(d).ok
                rel = discovery_relations(g, d)
                assert rel.more_awareness and rel.preserves_information
                assert discovered_version(g, s) == d
                pairs += 1
        assert pairs >= 1000


def test_criterion_04_equal_paths_equal_versions():
    with _report(4, "path determinism of discovery"):
        checked = 0
        for seed in range(120):
            g = _generated(seed)
            by_path = {}
            for k in range(12):
                s = random_profile(g, seed=100 * seed + k)
                path = tuple(realized_tbar_path(g, s))
                d = discovered_version(g, s)
                assert by_path.setdefault(path, d) == d
                checked += 1
        assert checked >= 1000


def test_criterion_05_trace_bound():
    with _report(5, "discovery traces stay within the state bound"):
        runs = 0
        for seed in range(120):
            g = generate_random_game(
                seed=seed, players=2, depth=2, branching=2,
                tree_count=2 + (seed % 2), nature=(seed % 6 == 0))
            bound = 1 + len(g.players) * len(g.trees)
            for policy in ("all", "rational_only", "efr"):
                for run_seed in range(3):
                    trace = run_discovery(g, policy, seed=run_seed)
                    assert len(trace.states) <= bound
                    runs += 1
        assert runs >= 1000


def test_criterion_06_efr_engine():
    with _report(6, "EFR monotonicity, nonemptiness, oracle agreement"):
        checked = 0
        for k in range(100):
            g = generate_random_game(seed=k, players=2, depth=2,
                                     branching=2 + (k % 2), tree_count=2)
            trace = efr(g)
            for i in g.players:
                prev = None
                for rd in trace.rounds:
                    cur = set(rd[i])
                    if prev is not None:
                        assert cur <= prev
                    prev = cur
                assert trace.surviving()[i]
            try:
                oracle = efr_oracle(g)
            except OracleCapExceeded:
                continue
            checked += 1
            for i in g.players:
                assert set(trace.surviving()[i]) == set(oracle[i])
        assert checked >= 75  # only the largest games exceed the oracle cap
        g = load("bos_aware")
        surviving = efr(g).surviving()
        outcomes = {tuple(realized_tbar_path(g, {1: x, 2: y}))
                    for x in surviving[1] for y in surviving[2]}
        assert outcomes == {(0, 2, 3)}  # in, then (B, b)


def test_criterion_07_common_constant_awareness_equilibria():
    with _report(7, "Nash on the common tree yields behavior equilibria"):
        for k in range(200):
            g = generate_random_game(
                seed=k, players=2, depth=2, branching=2 + (k % 2),
                tree_count=1 + (k // 2) % 2, nature=(k % 9 == 0),
                common_constant=True)
            pi, verdict = construct_sce_efr(g)
            assert verdict.holds
            assert check_sce_behavior(g, pi).holds
        # the converse is not asserted: these games have equilibria without
        # globally constant awareness
        for name in ("fig14", "ex2_rsc"):
            g = load(name)
            pi, verdict = construct_sce_efr(g)
            assert verdict.holds
            assert not awareness_diagnostics(g, pi).common_constant


def _mixtures(g, j, seed):
    pool = pure_strategies(g, j)
    rng = random.Random(seed)
    out = [MixedStrategy.degenerate(rng.choice(pool))]
    size = min(3, len(pool))
    if size > 1:
        support = rng.sample(pool, size)
        cuts = sorted(rng.randint(1, 9) for _ in range(size - 1))
        weights = [Fraction(b - a, 10)
                   for a, b in zip([0] + cuts, cuts + [10])]
        out.append(MixedStrategy.make(
            {s: w for s, w in zip(support, weights) if w > 0}))
    return out


def test_criterion_08_kuhn_exhaustive():
    with _report(8, "Kuhn conversion preserves every reach probability"):
        for name in sorted(FIXTURES):
            g = load(name)
            for j in acting_players(g):
                for sigma in _mixtures(g, j, seed=sum(name.encode()) + j):
                    pi = kuhn_convert(g, j, sigma)
                    assert realization_equivalent(g, j, sigma, pi)
                    back = kuhn_convert(g, j, pi)
                    assert realization_equivalent(g, j, pi, back)


def test_criterion_09_discovery_reaches_stable_equilibrium():
    with _report(9, "rationalizable discovery reaches an equilibrium"):
        for name in sorted(FIXTURES):
            g0 = load(name)
            trace = run_discovery(g0, "efr", seed=0)
            gstar = trace.absorbing
            pi, verdict = construct_sce_efr(gstar)
            assert verdict.holds
            assert check_sce_behavior(gstar, pi).holds
            # the absorbing game, with its equilibrium, is an absorbing
            # state of the rationalizable process from every visited state
            for state in trace.states:
                sg = build_supergame(state, "efr")
                k = sg.index(gstar)
                assert sg.is_absorbing(k)


def test_criterion_10_fig14_diagnostics():
    with _report(10, "awareness diagnostics on the fig14 equilibrium"):
        g = load("fig14")
        surviving = efr(g).surviving()
        profiles = [{1: x, 2: y}
                    for x in surviving[1] for y in surviving[2]]
        paths = {tuple(realized_tbar_path(g, s)) for s in profiles}
        assert len(paths) == 1  # unique equilibrium path
        report = awareness_diagnostics(g, lift_pure(g, profiles[0]))
        assert report.per_player_constant == {1: True, 2: True}
        assert report.mutual_belief_constant[1] is False
        assert report.mutual_belief_constant[2] is True
        assert report.common_constant is False
