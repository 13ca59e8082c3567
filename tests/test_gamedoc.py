import json

import pytest

from ugt.fixtures import FIXTURES, load
from ugt.gamedoc import (
    DocAxiomError,
    DocSemanticError,
    DocSyntaxError,
    FORMAT_VERSION,
    game_dot,
    parse_game,
    serialize_game,
)
from ugt.randgen import generate_random_game


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_round_trip_fixtures(name):
    g = load(name)
    text = serialize_game(g)
    assert parse_game(text) == g
    # canonical form is stable under a second round trip
    assert serialize_game(parse_game(text)) == text


def test_round_trip_generated():
    for seed in range(25):
        g = generate_random_game(seed=seed, players=2, depth=3, branching=3,
                                 tree_count=3)
        assert parse_game(serialize_game(g)) == g


def test_provenance_is_ignored_for_equality():
    g = load("ex1_initial")
    a = serialize_game(g)
    b = serialize_game(g, provenance={"default": "constructed"})
    assert a != b
    assert parse_game(a) == parse_game(b)


def test_shipped_fixture_files_match_builders():
    from importlib import resources
    for name in sorted(FIXTURES):
        text = (resources.files("ugt") / "data"
                / ("%s.game.json" % name)).read_text()
        assert parse_game(text) == load(name)
        doc = json.loads(text)
        assert doc["format_version"] == FORMAT_VERSION
        assert "provenance" in doc


def test_syntax_error_carries_position():
    with pytest.raises(DocSyntaxError) as e:
        parse_game("{\n  broken")
    assert e.value.line == 2
    assert "syntax error" in str(e.value)


def test_missing_info_set_is_semantic():
    doc = json.loads(serialize_game(load("ex1_initial")))
    doc["info"] = [x for x in doc["info"]
                   if not (x["player"] == 2 and x["tree"] == "Tbar"
                           and x["node"] == 1)]
    with pytest.raises(DocSemanticError) as e:
        parse_game(json.dumps(doc))
    assert "(2, 'Tbar', 1)" in str(e.value)


def test_bad_successor_map_is_semantic():
    doc = json.loads(serialize_game(load("trivial_single")))
    first = next(n for n, nd in doc["nodes"].items() if nd["children"])
    doc["nodes"][first]["children"][0]["child"] = 999
    with pytest.raises(DocSemanticError):
        parse_game(json.dumps(doc))


def test_host_above_tree_is_axiom_failure():
    doc = json.loads(serialize_game(load("ex1_initial")))
    for x in doc["info"]:
        if x["player"] == 2 and x["tree"] == "T" and x["node"] == 1:
            x["host"] = "Tbar"
            x["members"] = [1]
    with pytest.raises(DocAxiomError) as e:
        parse_game(json.dumps(doc))
    assert "U0" in e.value.failed_names
    assert "confined awareness" in str(e.value)


def test_unsupported_version():
    doc = json.loads(serialize_game(load("trivial_single")))
    doc["format_version"] = 99
    with pytest.raises(DocSemanticError):
        parse_game(json.dumps(doc))


def test_game_dot_deterministic_and_complete():
    g = load("ex2_initial")
    out = game_dot(g)
    assert out == game_dot(g)
    assert out.startswith("digraph game {")
    for t in g.trees:
        assert 'subgraph "cluster_%s"' % t in out


def _first_decision_node(doc):
    return next(n for n, nd in doc["nodes"].items() if nd["actions"])


def _first_labels(doc, field):
    """The label lists of the first decision node: its action menus or its
    children's profiles."""
    nd = doc["nodes"][_first_decision_node(doc)]
    if field == "actions":
        return list(nd["actions"].values())
    return [c["profile"] for c in nd["children"]]


def _child(doc):
    """The first node with a parent."""
    return next(nd for nd in doc["nodes"].values() if nd["parent"] is not None)


def _rekey(d, key, new):
    d[new] = d.pop(key)


def _two_upmost(doc):
    """ex1_initial with two largest trees, each missing a different leaf."""
    doc["trees"].update(Tbar=[0, 1, 2, 3, 4], U=[0, 1, 2, 3, 5])
    doc["info"] = [e for e in doc["info"]
                   if (e["tree"], e["node"]) != ("Tbar", 5)]


# the id damages, from player-float to payoff-key-padded, each read through
# int() as the undamaged game; the version damages compared equal to 1
@pytest.mark.parametrize("damage", [
    lambda doc: doc.update(nodes=list(doc["nodes"].values())),
    lambda doc: doc.update(trees=list(doc["trees"].values())),
    lambda doc: doc["nodes"].update({"0": None}),
    lambda doc: doc["nodes"][_first_decision_node(doc)].update(
        actions=[["l1", "r1"]]),
    lambda doc: doc["info"][0].update(host=["T"]),
    lambda doc: doc.update(trees={}, info=[]),
    lambda doc: _first_labels(doc, "actions")[0].__setitem__(0, []),
    lambda doc: _first_labels(doc, "children")[0].__setitem__(0, {}),
    lambda doc: doc["players"].__setitem__(0, doc["players"][0] + 0.7),
    lambda doc: doc["players"].__setitem__(0, True),
    lambda doc: _child(doc).update(parent=_child(doc)["parent"] + 0.9),
    lambda doc: doc["info"][0]["members"].__setitem__(0, 0.0),
    lambda doc: _rekey(doc["nodes"], "1", " 1"),
    lambda doc: _rekey(next(nd["payoffs"] for nd in doc["nodes"].values()
                            if nd["payoffs"]), "1", "01"),
    lambda doc: doc.update(format_version=True),
    lambda doc: doc.update(format_version=1.0),
    lambda doc: doc["trees"]["T"].append(99),
    # X and Y have the upper bounds C, D and Tbar, but no least one
    lambda doc: doc["trees"].update(X=[0, 1, 2], Y=[0, 1, 3],
                                    C=[0, 1, 2, 3, 4], D=[0, 1, 2, 3, 5]),
    _two_upmost,
], ids=["nodes-list", "trees-list", "node-null", "actions-list",
        "host-list", "no-trees", "action-label-list", "profile-label-object",
        "player-float", "player-bool", "parent-float", "member-whole-float",
        "node-key-padded", "payoff-key-padded", "version-bool",
        "version-float", "tree-unknown-node", "no-join", "two-upmost"])
def test_wrong_document_shape_is_semantic(damage):
    doc = json.loads(serialize_game(load("ex1_initial")))
    damage(doc)
    with pytest.raises(DocSemanticError):
        parse_game(json.dumps(doc))
