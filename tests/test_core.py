import dataclasses
from fractions import Fraction

import pytest

from ugt.core import (
    CHECK_NAMES,
    Game,
    InfoSet,
    NodeData,
    StructuralError,
    hosts_reachable,
    info_arborescence,
    t_partial_game,
    validate_game,
    validate_structure,
)
from ugt.fixtures import FIXTURES, load


def reinfo(g: Game, **_ignored):
    return dict(g.info)


def rebuild(g: Game, info=None, trees=None, nodes=None) -> Game:
    return Game(g.players, trees or g.trees, nodes or g.nodes,
                info if info is not None else g.info)


def failed_names(g: Game) -> set[str]:
    return {c.name for c in validate_game(g).failed()}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_passes_all_checks(name):
    report = validate_game(load(name))
    assert report.ok, [(c.name, c.witnesses) for c in report.failed()]


def test_report_has_thirteen_named_checks():
    report = validate_game(load("ex1_initial"))
    assert [c.name for c in report.checks] == [n for n, _ in CHECK_NAMES]
    assert len(report.checks) == 13
    # descriptions ride along for reporting
    assert report.by_name("I6").description


# -- structural rejection ----------------------------------------------------


def test_unknown_child_is_structural():
    g = load("ex1_initial")
    nodes = dict(g.nodes)
    nodes[0] = NodeData(parent=None, players=(1,),
                        actions={1: ("l1", "r1")},
                        children={("l1",): 1, ("r1",): 99})
    with pytest.raises(StructuralError):
        rebuild(g, nodes=nodes)


def test_missing_information_set_is_structural():
    g = load("ex1_initial")
    info = dict(g.info)
    del info[(1, "T", 0)]
    with pytest.raises(StructuralError, match="missing information set"):
        validate_structure(rebuild(g, info=info))


def test_nature_information_set_is_structural():
    g = load("nature_coin")
    info = dict(g.info)
    info[(0, "G", 0)] = InfoSet(0, "G", (0,))
    with pytest.raises(StructuralError, match="nature"):
        validate_structure(rebuild(g, info=info))


def test_non_injective_successors_are_structural():
    g = load("trivial_single")
    nodes = dict(g.nodes)
    nodes[0] = NodeData(parent=None, players=(1,),
                        actions={1: ("a", "b")},
                        children={("a",): 1, ("b",): 1})
    nodes[1] = g.nodes[1]
    with pytest.raises(StructuralError, match="injective"):
        validate_structure(Game((1,), {"G": (0, 1)},
                                {0: nodes[0], 1: nodes[1]}, {}))


def test_member_outside_host_is_structural():
    g = load("ex1_initial")
    info = dict(g.info)
    # node 4 has no copy in tree T, so a T-hosted set cannot contain it
    info[(1, "Tbar", 4)] = InfoSet(1, "T", (4,))
    with pytest.raises(StructuralError, match="member outside host"):
        rebuild(g, info=info)


# -- axiom failures, one mutation per check ----------------------------------


def test_prop1_detects_early_termination():
    g = load("ex1_initial")
    trees = dict(g.trees)
    trees["S"] = frozenset({0, 1, 2})
    info = dict(g.info)
    for n in (0, 1, 2):
        for i in (1, 2):
            if n == 0 and i == 2:
                continue
            info[(i, "S", n)] = InfoSet(i, "S", (n,))
    bad = rebuild(g, trees=trees, info=info)
    report = validate_game(bad)
    assert not report.by_name("prop1").passed
    assert ("S", 1) in report.by_name("prop1").witnesses


def test_prop2_detects_non_product_children():
    g = load("bos_aware")
    trees = dict(g.trees)
    trees["S"] = frozenset({0, 1, 2, 3, 5, 6})  # drops one joint outcome
    info = dict(g.info)
    for n in (0, 1, 2, 3, 5, 6):
        movers = g.nodes[n].players or (1, 2)
        for i in movers:
            info[(i, "S", n)] = InfoSet(i, "S", (n,))
    report = validate_game(rebuild(g, trees=trees, info=info))
    assert not report.by_name("prop2").passed
    assert ("S", 2) in report.by_name("prop2").witnesses


def test_prop3_detects_partially_shared_labels():
    g = load("bos_aware")
    nodes = dict(g.nodes)
    nodes[2] = NodeData(parent=0, players=(1, 2),
                        actions={1: ("out", "S"), 2: ("b", "s")},
                        children={("out", "b"): 3, ("out", "s"): 4,
                                  ("S", "b"): 5, ("S", "s"): 6})
    assert "prop3" in failed_names(rebuild(g, nodes=nodes))


def test_U0_detects_host_above_tree():
    g = load("fig14")
    info = dict(g.info)
    info[(2, "T1", 2)] = InfoSet(2, "T3", (2,))
    names = failed_names(rebuild(g, info=info))
    assert "U0" in names
    # T3 grants an action (a) the T1 copy does not have
    assert "I4" in names


def test_U1_detects_self_exclusion():
    g = load("ex1_discovered")
    info = dict(g.info)
    info[(2, "Tbar", 3)] = InfoSet(2, "Tbar", (4,))
    assert "U1" in failed_names(rebuild(g, info=info))


def test_I2_detects_member_disagreement():
    g = load("ex1_initial")
    info = dict(g.info)
    # pool two terminals without telling the second one about it
    info[(2, "Tbar", 2)] = InfoSet(2, "Tbar", (2, 5))
    names = failed_names(rebuild(g, info=info))
    assert "I2" in names


def test_I3_detects_divined_awareness():
    g = load("ex2_initial")
    info = dict(g.info)
    info[(1, "T", 3)] = InfoSet(1, "Tp", (3,))
    names = failed_names(rebuild(g, info=info))
    assert "U0" in names
    assert "I3" in names


def test_I5_detects_split_information():
    g = load("bos_repeated")
    info = dict(g.info)
    for t in ("Tbar", "T0"):
        info[(1, t, 3)] = InfoSet(1, t, (3,))
        info[(1, t, 4)] = InfoSet(1, t, (4,))
    assert "I5" in failed_names(rebuild(g, info=info))


def test_I6_detects_forgotten_own_action():
    g = load("bos_repeated")
    info = dict(g.info)
    # pool two continuations reached by different own stage-1 actions
    for t in ("Tbar", "T0"):
        info[(1, t, 21)] = InfoSet(1, t, (21, 27))
        info[(1, t, 27)] = InfoSet(1, t, (21, 27))
        info[(1, t, 23)] = InfoSet(1, t, (23, 25))
        info[(1, t, 25)] = InfoSet(1, t, (23, 25))
    assert "I6" in failed_names(rebuild(g, info=info))


def test_U4_detects_intermediate_disagreement():
    g = load("ex2_initial")
    info = dict(g.info)
    info[(1, "Tpp", 0)] = InfoSet(1, "T", (0,))
    names = failed_names(rebuild(g, info=info))
    assert "U4" in names


def test_U5_detects_missing_projection():
    g = load("ex1_discovered")
    info = dict(g.info)
    info[(1, "T", 5)] = InfoSet(1, "T", (3, 5))
    names = failed_names(rebuild(g, info=info))
    assert "U5" in names


def test_I7_detects_payoff_mismatch():
    g = load("ex1_initial")
    info = dict(g.info)
    # relocate the set of the discovery terminal into the poor tree
    info[(1, "Tbar", 4)] = InfoSet(1, "T", (5,))
    names = failed_names(rebuild(g, info=info))
    assert "I7" in names


def test_I7_detects_nonterminal_member():
    g = load("ex1_initial")
    info = dict(g.info)
    # the discovery terminal's set holds a decision node of its host
    info[(1, "Tbar", 4)] = InfoSet(1, "T", (1,))
    report = validate_game(rebuild(g, info=info))
    assert report.by_name("I7").witnesses == ((1, "Tbar", 4, 1),)
    # giving that node the terminal's payoffs cannot hide it: a decision
    # node with payoffs is malformed
    nodes = dict(g.nodes)
    nodes[1] = dataclasses.replace(nodes[1], payoffs=nodes[4].payoffs)
    with pytest.raises(StructuralError, match="decision node 1 carries "
                                              "payoffs"):
        validate_game(rebuild(g, info=info, nodes=nodes))


def test_witnesses_capped():
    g = load("bos_repeated")
    info = {k: InfoSet(k[0], g.tbar, (k[2],)) if k[2] in g.trees["Tbar"]
            else v for k, v in g.info.items()}
    report = validate_game(rebuild(g, info=info))
    assert not report.ok
    for c in report.checks:
        assert len(c.witnesses) <= 8


# -- tree structure helpers --------------------------------------------------


def test_tree_order_and_tbar():
    g = load("ex2_initial")
    assert g.tbar == "Tbar"
    order = g.tree_order()
    assert order[0] == "T" and order[-1] == "Tbar"
    assert g.leq("T", "Tpp") and g.leq("T", "Tp")
    assert not g.leq("Tp", "Tpp") and not g.leq("Tpp", "Tp")
    assert g.join("Tp", "Tpp") == "Tbar"
    assert g.join("T", "Tp") == "Tp"


def test_restricted_actions():
    g = load("ex2_initial")
    assert g.actions_in("Tbar", 1, 2) == ("l2", "m2", "r2")
    assert g.actions_in("Tpp", 1, 2) == ("l2", "r2")
    assert g.actions_in("Tp", 3, 1) == ("y1",)
    assert g.actions_in("Tbar", 3, 1) == ("y1", "z1")


def test_paths_and_descendants():
    g = load("bos_repeated")
    assert g.path_in("Tbar", 31) == [0, 2, 3, 21, 31]
    assert g.path_in("T0", 31) == [0, 2, 3, 21, 31]
    assert 1 not in g.descendants_in("T0", 0)
    assert 11 in g.descendants_in("Tbar", 0)


def test_paths_and_descendants_stop_on_a_cycle(deadline):
    """A game built directly, never validated: nodes 3 and 4 of every tree
    are each the other's parent and only child."""
    g = load("trivial_single")
    nodes = dict(g.nodes)
    info = dict(g.info)
    trees = {t: set(ns) | {3, 4} for t, ns in g.trees.items()}
    for n, other in ((3, 4), (4, 3)):
        nodes[n] = NodeData(parent=other, players=(1,), actions={1: ("c",)},
                            children={("c",): other})
        for t in trees:
            info[(1, t, n)] = InfoSet(1, t, (n,))
    g = Game(g.players, trees, nodes, info)
    for t in trees:
        with pytest.raises(StructuralError,
                           match="tree %s: the parents above node 3" % t):
            g.path_in(t, 3)
        with pytest.raises(StructuralError,
                           match="tree %s: the children below node 4" % t):
            g.descendants_in(t, 4)


def test_terminal_in_tree_only():
    g = load("ex2_initial")
    assert g.terminal_in("Tp", 3) is False  # y1 remains available
    assert not g.nodes[3].is_terminal
    g2 = load("ex1_initial")
    assert g2.terminal_in("T", 1) is False
    assert g2.terminal_in("T", 5) is True


# -- canonical equality ------------------------------------------------------


def test_structural_equality_and_hash():
    assert load("ex1_initial") == load("ex1_initial")
    assert hash(load("ex2_initial")) == hash(load("ex2_initial"))
    assert load("ex1_initial") != load("ex1_discovered")
    assert len({load(n) for n in FIXTURES}) == len(FIXTURES)


# -- partial games -----------------------------------------------------------


def test_partial_game_to_unaware_tree_is_single_tree():
    g = load("ex1_initial")
    sub = t_partial_game(g, "T")
    assert set(sub.trees) == {"T"}
    assert all(h.host == "T" for h in sub.info.values())
    assert validate_game(sub).ok
    assert sub.nodes[1].actions[2] == ("l2", "r2")


def test_partial_game_of_upmost_tree_is_identity():
    g = load("ex2_initial")
    assert t_partial_game(g, "Tbar") == g


def test_partial_game_of_unknown_tree():
    with pytest.raises(ValueError, match="no tree 'nope'"):
        t_partial_game(load("ex2_initial"), "nope")


def test_partial_game_of_diamond_side_matches_small_game():
    g = load("ex2_initial")
    sub = t_partial_game(g, "Tp")
    assert validate_game(sub).ok
    assert set(sub.trees) == {"Tp", "T"}
    small = load("ex1_initial")
    # same two-tier awareness shape as the two-tree game: player 1 sees the
    # poor tree at the root, player 2 the rich one
    assert sub.info[(1, "Tp", 0)].host == "T"
    assert sub.info[(2, "Tp", 1)].host == "Tp"
    assert small.info[(1, "Tbar", 0)].host == "T"
    assert small.info[(2, "Tbar", 1)].host == "Tbar"
    # the collapsed action: player 1's second node is a forced move
    assert sub.actions_in("Tp", 3, 1) == ("y1",)


def test_hosts_reachable():
    g = load("ex2_initial")
    assert hosts_reachable(g, "Tbar") == ["T", "Tp", "Tpp", "Tbar"]
    assert hosts_reachable(g, "T") == ["T"]
    assert hosts_reachable(g, "Tp") == ["T", "Tp"]
    # used to leak a raw KeyError
    with pytest.raises(ValueError):
        hosts_reachable(g, "nope")


# -- information-set arborescence -------------------------------------------


def test_arborescence_single_root_two_trees():
    g = load("ex1_initial")
    parents = info_arborescence(g, 1)
    root = InfoSet(1, "T", (0,))
    assert parents[root] is None
    children = [h for h, p in parents.items() if p == root]
    # per tree: the poor tree has three terminal follow-ups, the rich one
    # adds the discovery terminal
    assert InfoSet(1, "Tbar", (4,)) in children
    assert InfoSet(1, "T", (3,)) in children
    assert len(children) == 4


def test_arborescence_stage_chain():
    g = load("bos_repeated")
    parents = info_arborescence(g, 2)
    stage1 = InfoSet(2, "T0", (2,))
    stage2 = InfoSet(2, "T0", (21, 25))
    assert parents[stage1] is None
    assert parents[stage2] == stage1
    assert parents[InfoSet(2, "T0", (30,))] == stage2
    assert parents[InfoSet(2, "Tbar", (12,))] == InfoSet(2, "Tbar", (11,))


def test_arborescence_nature_is_empty():
    g = load("nature_coin")
    assert info_arborescence(g, 0) == {}


def test_arborescence_of_unknown_player():
    # used to return {}, unlike pure_strategies on the same player
    with pytest.raises(ValueError, match="no player"):
        info_arborescence(load("ex1_initial"), 99)


def test_decision_sets_for_nature():
    g = load("nature_coin")
    sets = g.decision_sets(0)
    assert sets == [InfoSet(0, "G", (0,))]
    assert g.decision_sets(1) == [InfoSet(1, "G", (1, 2))]


def test_set_actions_identical_across_members():
    g = load("bos_repeated")
    h = InfoSet(2, "T0", (21, 25))
    assert g.set_actions(h) == ("b2b", "s2b")
    for m in h.members:
        assert g.actions_in("T0", m, 2) == ("b2b", "s2b")


def test_payoffs_are_fractions():
    g = load("ex1_initial")
    assert g.nodes[4].payoffs[2] == Fraction(10)
    assert all(isinstance(v, Fraction)
               for nd in g.nodes.values() for v in nd.payoffs.values())
