import json
import signal
import sys

import pytest

from ugt.fixtures import load
from ugt.gamedoc import serialize_game


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance":
            lines.extend(getattr(mod, "RESULTS", []))
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(lines)):
            terminalreporter.write_line(line)


@pytest.fixture
def deadline():
    """Fail the test with TimeoutError if it runs past 3 seconds, so that
    a regression to an endless loop fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("test ran past its deadline")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(3)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture
def parent_cycle_text():
    """``trivial_single`` with nodes 3 and 4 added to its tree, each the
    other's parent and only child, with information sets for both."""
    doc = json.loads(serialize_game(load("trivial_single")))
    for n, other in ((3, 4), (4, 3)):
        doc["nodes"][str(n)] = {
            "actions": {"1": ["c"]},
            "children": [{"child": other, "profile": ["c"]}],
            "parent": other, "payoffs": {}, "players": [1]}
        doc["info"].append({"host": "G", "members": [n], "node": n,
                            "player": 1, "tree": "G"})
    doc["trees"]["G"] += [3, 4]
    return json.dumps(doc)
