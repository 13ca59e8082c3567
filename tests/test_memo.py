"""The memo homes of a game and the tables kept in them.

Every table a game derives is built by a function under ``core._memo`` and
kept in one of two dicts: the game's own (``_memo``) or the one a game
shares with its discovered versions (``_shared``).  The reach table
(``strategies._requirements``) is checked here against the per-node
rebuild from ``path_in`` that it replaced, and the source of ``ugt`` is
checked for caches kept anywhere else.  Its import graph is checked too:
the reference layer (``reference``) imports only ``core``, ``strategies``
and ``lp``, and no module but the package's ``__init__`` imports it.
"""

import ast
import pickle
from pathlib import Path

import pytest

from ugt.core import NATURE, Game, InfoSet
from ugt.discovery import _discovered_along, _path_classes, build_supergame
from ugt.fixtures import FIXTURES, load
from ugt.randgen import generate_random_game
from ugt.rationalizability import _classes, _contexts, efr
from ugt.strategies import (
    _requirements, acting_players, play_table, set_positions)

SRC = Path(__file__).resolve().parents[1] / "src" / "ugt"
HOMES = {"_memo", "_shared"}


def games():
    out = [(name, load(name)) for name in sorted(FIXTURES)]
    for shape, extra in (("plain", {}), ("nature", dict(nature=True)),
                         ("3p", dict(players=3))):
        out += [("%s-%d" % (shape, seed),
                 generate_random_game(seed=seed, depth=3, branching=2,
                                      tree_count=3, **extra))
                for seed in range(8)]
    return out


def reference_requirements(g, t, n):
    """The constraints of the path to n in t, rebuilt from ``path_in`` by
    finding each step's action profile among its parent's children."""
    reqs = []
    path = g.path_in(t, n)
    for b, nxt in zip(path, path[1:]):
        prof = next(pr for pr, c in g.children_in(t, b).items() if c == nxt)
        for a, j in zip(prof, sorted(g.nodes[b].players)):
            x = InfoSet(NATURE, t, (b,)) if j == NATURE else g.info[(j, t, b)]
            reqs.append((j, x, set_positions(g, j)[x], a))
    return tuple(reqs)


@pytest.mark.parametrize("name,g", games(), ids=[n for n, _ in games()])
def test_reach_table_matches_path_rebuild(name, g):
    for t in g.tree_order():
        table = _requirements(g, t)
        assert set(table) == g.trees[t]
        for n in g.trees[t]:
            assert table[n] == reference_requirements(g, t, n), (t, n)


def test_memoized_calls_return_the_same_object():
    g = load("ex2_initial")
    t = g.tbar
    for f, args in ((_requirements, (t,)), (play_table, (t,)),
                    (set_positions, (1,)), (_classes, (1,)), (efr, ()),
                    (_contexts, ()), (Game.canonical_key, ()),
                    (Game._above_below, (t,)), (Game._own_keys, (1,))):
        assert f(g, *args) is f(g, *args), f.__name__
    # the public list is a fresh copy of the kept tuple
    sets = g.decision_sets(1)
    assert sets == g.decision_sets(1) and sets is not g.decision_sets(1)
    sets.clear()
    assert g.decision_sets(1)


def test_discovered_version_shares_only_the_structure_memo():
    g = load("ex2_initial")
    moved = [v for v in (_discovered_along(g, path)
                         for path, _, _ in _path_classes(g, "all"))
             if v is not g]
    assert moved
    for v in moved:
        assert v._shared is g._shared and v._memo is not g._memo
        # a table of the structure is built once for both
        assert v._own_keys(1) is g._own_keys(1)
        assert v.actions_in(g.tbar, g.root(g.tbar), 1) \
            is g.actions_in(g.tbar, g.root(g.tbar), 1)
        # a table of the info is each game's own
        assert set_positions(v, 1) is not set_positions(g, 1)


@pytest.mark.parametrize("name", ["ex2_initial", "nature_coin"])
def test_memo_keys_hold_only_plain_ids(name):
    """After a full pass, every key is a memoized function and players,
    tree ids or node ids; no key holds an information set or a game."""
    g0 = load(name)
    sg = build_supergame(g0, "efr")
    for g in sg.states:
        efr(g)
        for j in acting_players(g):
            _classes(g, j)
        for t in g.trees:
            _requirements(g, t)
        g.canonical_key()
    for g in sg.states:
        for home in (g._memo, g._shared):
            assert home
            for f, *args in home:
                assert callable(f)
                assert all(type(a) in (int, str) for a in args), (f, args)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_pickled_game_starts_with_empty_memos(name):
    g = load(name)
    trace = efr(g)
    h = pickle.loads(pickle.dumps(g))
    assert (h._memo, h._shared, h._shape) == ({}, {}, None)
    assert h == g
    assert efr(h) is not trace and efr(h).surviving() == trace.surviving()


# ---------------------------------------------------------------------------
# no module keeps a cache of its own


def _game_names(func) -> set[str]:
    """The parameters of func that hold a game: those annotated ``Game``
    and those named g."""
    args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    return {a.arg for a in args
            if a.arg == "g" or (a.annotation is not None
                                and ast.unparse(a.annotation).strip("'\"")
                                == "Game")}


def _root(target):
    """The name an assignment target stores into, through attributes and
    subscripts, with whether an attribute lies on the way."""
    through = False
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        through |= isinstance(target, ast.Attribute)
        target = target.value
    return (target.id if isinstance(target, ast.Name) else None), through


def cache_problems(path: Path) -> list[str]:
    """Where a module touches a memo home or stores into a game."""
    tree = ast.parse(path.read_text())
    problems = []
    core = path.name == "core.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in HOMES \
                and not core:
            problems.append("%s:%d touches %s" % (path.name, node.lineno,
                                                  node.attr))
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        games = _game_names(node)
        if core and node.name in ("__init__", "_with_info"):
            continue  # the two places a game's fields are set
        for sub in ast.walk(node):
            targets = []
            if isinstance(sub, ast.Assign):
                targets = sub.targets
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            elif isinstance(sub, ast.Call) \
                    and ast.unparse(sub.func) in ("setattr",
                                                  "object.__setattr__") \
                    and sub.args:
                targets = [ast.Attribute(sub.args[0], "?", ast.Store())]
            for target in targets:
                for leaf in (target.elts if isinstance(target, ast.Tuple)
                             else [target]):
                    name, through = _root(leaf)
                    if name in games and through:
                        problems.append("%s:%d stores into %s" % (
                            path.name, sub.lineno, ast.unparse(leaf)))
    return problems


def test_only_core_touches_the_memo_homes():
    files = sorted(SRC.glob("*.py"))
    assert {"core.py", "strategies.py", "discovery.py"} \
        <= {p.name for p in files}
    problems = [p for path in files for p in cache_problems(path)]
    assert problems == []


def ugt_imports(path: Path) -> set[str]:
    """The ``ugt`` modules that the module at path imports, relatively
    (``from .core import x``, ``from . import core``) or by name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(a.name for a in node.names)
            elif (node.module or "").startswith("ugt."):
                out.add(node.module.split(".")[1])
            elif node.module == "ugt":
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("ugt."))
    return out


def test_reference_layer_stands_apart():
    """The reference layer checks the engine, so it imports only the
    object-world modules, and no module but the package's own
    ``__init__`` imports it."""
    graph = {p.stem: ugt_imports(p) for p in SRC.glob("*.py")}
    assert graph["reference"] <= {"core", "strategies", "lp"}
    assert {"core", "strategies"} <= graph["reference"]
    assert {m for m, deps in graph.items() if "reference" in deps} \
        == {"__init__"}
    # the walk sees the engine's own imports
    assert {"core", "strategies", "lp"} <= graph["rationalizability"]


def test_cache_check_sees_a_module_cache(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(g, t):\n"
        "    g._tables = {}\n"
        "def h(game: 'Game', t):\n"
        "    game.info_cache[t] = 1\n"
        "def k(x: Game):\n"
        "    setattr(x, 'cache', {})\n"
        "def m(g):\n"
        "    return g._memo\n")
    assert len(cache_problems(bad)) == 4
