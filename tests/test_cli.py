import json

import pytest

from ugt.cli import main
from ugt.fixtures import load
from ugt.gamedoc import parse_game, serialize_game


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


def test_discover_two_state_trace(game_file, capsys):
    status, payload = run_json(capsys, "discover", game_file("ex1_initial"),
                               "--policy", "efr")
    assert status == 0
    assert payload["num_states"] == 2
    assert payload["absorbing_reached"]


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


def test_sce_with_profile_file(game_file, tmp_path, capsys):
    profile = {"profile": {
        "1": {"pure": [
            {"host": "Tbar", "members": [0], "action": "r1"}]},
        "2": {"pure": [
            {"host": "Tbar", "members": [1], "action": "m2"},
            {"host": "T", "members": [1], "action": "r2"}]},
    }}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    status, payload = run_json(capsys, "sce", game_file("ex1_discovered"),
                               "--mode", "pure", "--profile", str(path))
    assert status == 0 and payload["holds"]
    status, payload = run_json(capsys, "sce", game_file("ex1_discovered"),
                               "--mode", "behavior", "--profile", str(path))
    assert status == 0 and payload["holds"]


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
