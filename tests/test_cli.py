import hashlib
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from test_gamedoc import MALFORMED
from ugt import cli
from ugt.cli import main
from ugt.discovery import run_discovery
from ugt.fixtures import NAMES, load
from ugt.gamedoc import (
    DocAxiomError, DocSemanticError, GameDocError, parse_game, serialize_game)
from ugt.randgen import generate_random_game

DATA = resources.files("ugt") / "data"


@pytest.fixture
def game_file(tmp_path):
    def write(name):
        path = tmp_path / ("%s.game.json" % name)
        path.write_text(serialize_game(load(name)))
        return str(path)
    return write


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def run_json(capsys, *argv):
    status, out, _ = run(capsys, "--json", *argv)
    return status, json.loads(out)


def test_validate_ok(game_file, capsys):
    status, out, _ = run(capsys, "validate", game_file("ex1_initial"))
    assert status == 0
    assert "13 checks" in out


def test_validate_garbage(tmp_path, capsys):
    path = tmp_path / "garbage.game"
    path.write_text("not a game {")
    status, _, err = run(capsys, "validate", str(path))
    assert status == 2
    assert "syntax error" in err


def test_validate_wrong_shape(tmp_path, capsys):
    doc = json.loads(serialize_game(load("ex1_initial")))
    doc["nodes"] = list(doc["nodes"].values())
    path = tmp_path / "shape.game.json"
    path.write_text(json.dumps(doc))
    status, _, err = run(capsys, "validate", str(path))
    assert status == 2
    assert "nodes is not an object" in err


def test_validate_decision_node_with_payoffs(tmp_path, capsys):
    doc = json.loads(serialize_game(load("ex1_initial")))
    doc["nodes"]["1"]["payoffs"] = {"1": "3/1", "2": "1/1"}
    path = tmp_path / "payoffs.game.json"
    path.write_text(json.dumps(doc))
    status, _, err = run(capsys, "validate", str(path))
    assert status == 2
    assert "decision node 1 carries payoffs" in err


def test_validate_parent_cycle_exits_2(parent_cycle_text, deadline,
                                       tmp_path, capsys):
    path = tmp_path / "cycle.game.json"
    path.write_text(parent_cycle_text)
    status, _, err = run(capsys, "validate", str(path))
    assert status == 2
    assert "tree G: node 3 not connected to root" in err


def repeated_mover_doc():
    """A one-player document whose root lists player 1 twice among its
    movers, with a child for each of the four profiles."""
    profiles = [[x, y] for x in "ab" for y in "ab"]
    nodes = {"0": {"actions": {"1": ["a", "b"]}, "parent": None,
                   "children": [{"child": c, "profile": p}
                                for c, p in enumerate(profiles, 1)],
                   "payoffs": {}, "players": [1, 1]}}
    for c in range(1, 5):
        nodes[str(c)] = {"actions": {}, "children": [], "parent": 0,
                         "payoffs": {"1": "%d/1" % c}, "players": []}
    return {"format_version": 1, "players": [1], "nodes": nodes,
            "trees": {"G": list(range(5))},
            "info": [{"host": "G", "members": [n], "node": n, "player": 1,
                      "tree": "G"} for n in range(5)]}


def test_a_mover_listed_twice_exits_2(tmp_path, capsys):
    text = json.dumps(repeated_mover_doc())
    with pytest.raises(DocSemanticError, match="name a player twice"):
        parse_game(text)
    path = tmp_path / "twice.game.json"
    path.write_text(text)
    status, out, err = run(capsys, "validate", str(path))
    assert status == 2 and not out
    assert "node 0: active players [1, 1] name a player twice" in err


def test_nature_key_message_is_the_same_under_any_hash_seed(tmp_path):
    """A nature key at each tree's root of ``ex2_initial``: the CLI lists
    them in the document's order, whatever the string hash seed."""
    doc = json.loads(serialize_game(load("ex2_initial")))
    trees = sorted(doc["trees"], reverse=True)
    doc["info"] += [{"host": t, "members": [0], "node": 0, "player": 0,
                     "tree": t} for t in trees]
    path = tmp_path / "nature.game.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    runs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        runs.append(subprocess.run(
            [sys.executable, "-m", "ugt.cli", "validate", str(path)],
            capture_output=True, env=env, timeout=60))
    assert runs[0].returncode == runs[1].returncode == 2
    assert runs[0].stdout == runs[1].stdout == b""
    assert runs[0].stderr == runs[1].stderr
    err = runs[0].stderr.decode()
    assert [err.index("(0, '%s', 0)" % t) for t in trees] == \
        sorted(err.index("(0, '%s', 0)" % t) for t in trees)


@pytest.mark.parametrize("version", [True, 1.0])
def test_validate_format_version_not_an_integer(version, tmp_path, capsys):
    doc = json.loads(serialize_game(load("ex1_initial")))
    doc["format_version"] = version
    path = tmp_path / "version.game.json"
    path.write_text(json.dumps(doc))
    status, _, err = run(capsys, "validate", str(path))
    assert status == 2
    assert "unsupported format_version" in err


def test_validate_unhashable_action_label(tmp_path, capsys):
    doc = json.loads(serialize_game(load("ex2_initial")))
    doc["nodes"]["0"]["actions"]["1"][0] = []
    path = tmp_path / "label.game.json"
    path.write_text(json.dumps(doc))
    status, _, err = run(capsys, "validate", str(path))
    assert status == 2
    assert "actions of node 0 is not a list of strings" in err


@pytest.mark.parametrize("command", ["validate", "efr"])
def test_information_set_without_members_exits_2(command, tmp_path, capsys):
    doc = json.loads(serialize_game(load("bos_repeated")))
    [x] = [x for x in doc["info"]
           if (x["player"], x["tree"], x["node"]) == (1, "Tbar", 1)]
    x["host"], x["members"] = "T0", []
    text = json.dumps(doc)
    with pytest.raises(DocSemanticError, match="no members"):
        parse_game(text)
    path = tmp_path / "empty.game.json"
    path.write_text(text)
    status, out, err = run(capsys, command, str(path))
    assert status == 2 and not out
    assert "info set 1@T0{}: no members" in err


def test_validate_axiom_failure(game_file, tmp_path, capsys):
    doc = json.loads(serialize_game(load("ex1_initial")))
    for x in doc["info"]:
        if x["player"] == 2 and x["tree"] == "T" and x["node"] == 1:
            x["host"] = "Tbar"
            x["members"] = [1]
    path = tmp_path / "bad.game.json"
    path.write_text(json.dumps(doc))
    status, payload = run_json(capsys, "validate", str(path))
    assert status == 1
    assert not payload["ok"]
    assert "U0" in payload["error"]


def test_efr_json(game_file, capsys):
    status, payload = run_json(capsys, "efr", game_file("ex1_initial"),
                               "--trace")
    assert status == 0
    assert len(payload["surviving"]["1"]) == 1
    choice = payload["surviving"]["1"][0]["choices"][0]
    assert choice["action"] == "l1"
    assert payload["rounds"][-1] == {"1": 1, "2": 1}


def test_efr_trace_json_is_pinned(capsys):
    """``ugt --json efr --trace`` on every shipped fixture, byte for byte:
    the rounds are read lazily, their sizes from the class tables."""
    digest = hashlib.sha256()
    for name in NAMES:
        status, out, _ = run(capsys, "--json", "efr", "--trace",
                             str(DATA / ("%s.game.json" % name)))
        assert status == 0
        digest.update(out.encode())
    assert digest.hexdigest() == \
        "64362c443ff72061d8de96d69123f272711981ebe8ae0c66b65328005f6644f8"


def test_discover_two_state_trace(game_file, capsys):
    status, payload = run_json(capsys, "discover", game_file("ex1_initial"),
                               "--policy", "efr")
    assert status == 0
    assert payload["num_states"] == 2
    assert payload["absorbing_reached"]


def test_discover_steps_out(game_file, tmp_path, capsys):
    out = tmp_path / "steps.dot"
    status, payload = run_json(capsys, "discover", game_file("ex1_initial"),
                               "--policy", "efr", "--steps-out", str(out))
    assert status == 0 and payload["num_states"] == 2
    assert out.read_text() == 'digraph trace {\n  "s0" -> "s1";\n}\n'


@pytest.mark.parametrize("argv", [
    ["discover", "--policy", "efr", "--steps-out"],
    ["supergame", "--policy", "efr", "--dot"],
], ids=["steps-out", "dot"])
def test_unwritable_output_file_exits_2(argv, game_file, tmp_path, capsys):
    # both used to leak a FileNotFoundError
    target = str(tmp_path / "missing" / "x.dot")
    status, out, err = run(capsys, argv[0], game_file("ex1_initial"),
                           *argv[1:], target)
    assert status == 2 and not out
    assert err.startswith("error: ") and target in err


def test_supergame_dot_output(game_file, tmp_path, capsys):
    out = tmp_path / "sg.dot"
    status, payload = run_json(capsys, "supergame", game_file("ex2_initial"),
                               "--policy", "all", "--dot", str(out))
    assert status == 0
    assert payload["num_states"] == 4
    assert out.read_text().startswith("digraph discovery {")


def test_sce_behavior_fails_awareness(game_file, capsys):
    status, payload = run_json(capsys, "sce", game_file("ex1_initial"),
                               "--mode", "behavior")
    assert status == 1
    assert payload["holds"] is False
    assert payload["violated_condition"] == "awareness"


def test_sce_search_finds_holding_profile(game_file, capsys):
    status, payload = run_json(capsys, "sce", game_file("ex1_discovered"),
                               "--mode", "efr")
    assert status == 0
    assert payload["holds"] is True


# a pure profile of ex1_discovered that is self-confirming
PURE_PROFILE = {"profile": {
    "1": {"pure": [
        {"host": "Tbar", "members": [0], "action": "r1"}]},
    "2": {"pure": [
        {"host": "Tbar", "members": [1], "action": "m2"},
        {"host": "T", "members": [1], "action": "r2"}]},
}}


def test_sce_with_profile_file(game_file, tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(PURE_PROFILE))
    status, payload = run_json(capsys, "sce", game_file("ex1_discovered"),
                               "--mode", "pure", "--profile", str(path))
    assert status == 0 and payload["holds"]
    status, payload = run_json(capsys, "sce", game_file("ex1_discovered"),
                               "--mode", "behavior", "--profile", str(path))
    assert status == 0 and payload["holds"]


def test_sce_with_behavior_profile_file(game_file, tmp_path, capsys):
    def profile(weights):
        return {"profile": {
            "1": {"behavior": [{"host": "G", "members": [0],
                                "weights": weights}]},
            "2": {"behavior": [{"host": "G", "members": [0],
                                "weights": {"h": "1/2", "t": "1/2"}}]},
        }}

    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile({"H": "1/2", "T": "1/2"})))
    game = game_file("matching_pennies")
    for mode in ("behavior", "efr"):
        status, payload = run_json(capsys, "sce", game, "--mode", mode,
                                   "--profile", str(path))
        assert status == 0 and payload["holds"]
    path.write_text(json.dumps(profile({"H": "1"})))
    status, payload = run_json(capsys, "sce", game, "--mode", "behavior",
                               "--profile", str(path))
    assert status == 1 and payload["violated_condition"] == "rationality"


@pytest.mark.parametrize("doc", [
    {"profile": [1, 2]},
    {"profile": {"1": {"behavior": [{"host": "G", "members": [0],
                                     "weights": [["H", "1"]]}]}}},
    {"profile": {"1": {"behavior": [{"host": "G", "members": [0],
                                     "weights": {"zz": "1"}}]},
                 "2": {"behavior": [{"host": "G", "members": [0],
                                     "weights": {"h": "1"}}]}}},
])
def test_sce_malformed_profile_exits_2(doc, game_file, tmp_path, capsys):
    # the first two used to leak an AttributeError, the third to pass
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    status, out, err = run(capsys, "sce", game_file("matching_pennies"),
                           "--mode", "behavior", "--profile", str(path))
    assert status == 2 and not out
    assert err.startswith("error: ")


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000, b'{"profile": {"1": "\xff"}}',
], ids=["deep", "not-utf-8"])
def test_sce_unreadable_profile_exits_2(text, game_file, tmp_path, capsys):
    # these used to leak a RecursionError and a UnicodeDecodeError
    path = tmp_path / "profile.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    status, out, err = run(capsys, "sce", game_file("matching_pennies"),
                           "--mode", "behavior", "--profile", str(path))
    assert status == 2 and not out
    assert err.startswith("error: %s: " % path)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_validate_unreadable_document_exits_2(name, tmp_path, capsys):
    text = MALFORMED[name][0]
    path = tmp_path / "bad.game.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    status, out, err = run(capsys, "--json", "validate", str(path))
    assert status == 2 and not out
    assert err.startswith("error: %s: " % path)


@pytest.mark.parametrize("damage", [
    lambda p: p["2"]["pure"][0].update(members=[1.25]),
    lambda p: p["2"]["pure"][0].update(members=[True]),
    lambda p: p.update({" 1": p.pop("1")}),
], ids=["member-float", "member-bool", "player-key-padded"])
def test_sce_profile_ids_must_be_integers(damage, game_file, tmp_path,
                                          capsys):
    # each damaged id reads, through int(), as the holding PURE_PROFILE
    profile = json.loads(json.dumps(PURE_PROFILE))
    damage(profile["profile"])
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    status, out, err = run(capsys, "sce", game_file("ex1_discovered"),
                           "--mode", "pure", "--profile", str(path))
    assert status == 2 and not out
    assert err.startswith("error: ") and "bad id" in err


def test_construct_sce_three_players_exits_2(tmp_path, capsys):
    # rationalizable self-confirming, so the refusal is the player count;
    # it used to leak a NotImplementedError traceback
    path = tmp_path / "three.game.json"
    path.write_text(serialize_game(generate_random_game(
        players=3, seed=0, depth=2, tree_count=1)))
    status, out, err = run(capsys, "--json", "construct-sce", str(path))
    assert status == 2 and not out
    assert err.startswith("error: ") and "two players" in err


@pytest.mark.parametrize("command,name", [
    ("efr", "efr"), ("construct-sce", "construct_sce_efr")])
def test_out_of_memory_exits_3(command, name, game_file, monkeypatch,
                               capsys):
    # a game too large for memory must not exit 1, which also means "no
    # SCE": one error line and the documented status 3, no traceback
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, name, exhausted)
    status, out, err = run(capsys, "--json", command, game_file("ex2_rsc"))
    assert status == 3 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "memory" in err and "Traceback" not in err


def test_construct_sce(game_file, capsys):
    status, payload = run_json(capsys, "construct-sce",
                               game_file("ex1_discovered"))
    assert status == 0
    assert payload["holds"]
    assert "1" in payload["profile"]


def test_construct_sce_negative(game_file, capsys):
    status, payload = run_json(capsys, "construct-sce",
                               game_file("ex1_initial"))
    assert status == 1
    assert not payload["holds"]


def test_export_round_trip(game_file, capsys):
    status, out, _ = run(capsys, "export", game_file("ex2_rsc"),
                         "--format", "canonical-json")
    assert status == 0
    assert parse_game(out) == load("ex2_rsc")
    status, out, _ = run(capsys, "export", game_file("ex2_rsc"),
                         "--format", "dot")
    assert status == 0
    assert out.startswith("digraph game {")


def test_missing_file(capsys):
    status, _, err = run(capsys, "validate", "/nonexistent.game.json")
    assert status == 2
    assert err


def test_bad_arguments(capsys):
    assert main(["discover"]) == 2
    capsys.readouterr()


def test_reused_parser_keeps_no_state(game_file, monkeypatch, capsys):
    """One parser serves every call: a refused argv and an explicit option
    leave nothing behind for the next call."""
    seeds = []

    def record(g, policy, seed=None):
        seeds.append(seed)
        return run_discovery(g, policy, seed=seed)

    monkeypatch.setattr(cli, "run_discovery", record)
    path = game_file("ex1_initial")
    assert main(["discover", path, "--policy", "nope"]) == 2
    for argv, code in [(["--seed", "7", "--steps-out", os.devnull], 0),
                       ([], 0), (["--seed", "x"], 2), ([], 0)]:
        status, out, _ = run(capsys, "discover", path, "--policy", "efr",
                             *argv)
        assert status == code
    assert seeds == [7, 0, 0]
    assert out == "2 states, absorbing reached\n"


# ---------------------------------------------------------------------------
# the input boundary under mutated documents

FUZZ_FIXTURES = ["ex1_initial", "ex2_initial", "matching_pennies",
                 "nature_coin", "trivial_single"]
# what a retyped field becomes: every JSON type, and numbers that are
# valid elsewhere in a document
FUZZ_VALUES = [None, True, 0, -1, 7, 1.5, "", "x", "1/0", [], ["x"], [[]],
               {}, {"1": "x"}]


def _slots(x, path=()):
    """The path of every value below the document root."""
    items = x.items() if isinstance(x, dict) else \
        enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _slots(v, path + (k,))


def _mutate(doc, path, op, value):
    """Drop, retype or duplicate the field at path, or write it as an id in
    a wrong form: an integer as a float, a decimal key padded."""
    *head, last = path
    parent = doc
    for k in head:
        parent = parent[k]
    if op == "id":
        if type(parent[last]) is int:
            parent[last] = float(parent[last])
        elif isinstance(last, str) and last.isdecimal():
            parent[" " + last] = parent.pop(last)
    elif op == "drop":
        del parent[last]
    elif op == "retype":
        parent[last] = json.loads(json.dumps(value))
    elif isinstance(parent, list):
        parent.insert(last, json.loads(json.dumps(parent[last])))
    else:
        parent[last + "0"] = json.loads(json.dumps(parent[last]))


@given(name=st.sampled_from(FUZZ_FIXTURES), data=st.data())
@settings(derandomize=True, database=None, deadline=None, max_examples=400)
def test_mutated_documents_fail_only_as_documented(name, data):
    original = serialize_game(load(name))
    doc = json.loads(original)
    # the version as the integer 1, or as a value equal to it that is not
    doc["format_version"] = data.draw(st.sampled_from([1, 1, 1, 1.0, True]))
    done = []
    for _ in range(data.draw(st.integers(1, 3))):
        slots = sorted(_slots(doc), key=repr)
        if slots:
            done.append((data.draw(st.sampled_from(slots)),
                         data.draw(st.sampled_from(["drop", "retype", "dup",
                                                    "id"]))))
            _mutate(doc, *done[-1], data.draw(st.sampled_from(FUZZ_VALUES)))
        if done[0][1] == "id":
            break   # a first id mutation stays alone
    text = json.dumps(doc)
    try:
        parse_game(text)
        want = 0
    except DocAxiomError:
        want = 1
    except GameDocError:
        want = 2
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "fuzz.game.json")
        with open(path, "w") as f:
            f.write(text)
        assert main(["validate", path]) == want
    # an id or a version in a wrong form is refused, never read as another
    # game
    version = json.loads(text).get("format_version")
    if type(version) is not int or version != 1:
        assert want == 2
    (path, op), *_ = done
    if op == "id" \
            and json.loads(original) != json.loads(text, parse_float=str):
        assert want == 2
