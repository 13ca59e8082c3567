"""Canonical JSON interchange format and DOT export for games.

The on-disk format is versioned JSON with sorted keys and rationals written
as "p/q" strings, so files are diffable and round-trip stable.  An optional
``provenance`` block may annotate a document (for example which payoffs are
documented versus constructed); it never takes part in structural equality
and parsing ignores it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Optional

from .core import (
    Game,
    InfoSet,
    NodeData,
    StructuralError,
    validate_game,
)

FORMAT_VERSION = 1


class GameDocError(ValueError):
    """Base class for game-document problems."""


class DocSyntaxError(GameDocError):
    """Malformed JSON; carries the decoder's position."""

    def __init__(self, msg: str, line: int, column: int):
        super().__init__("syntax error at line %d column %d: %s"
                         % (line, column, msg))
        self.line = line
        self.column = column


class DocSemanticError(GameDocError):
    """Well-formed JSON that does not describe a game (missing fields,
    unknown ids, non-bijective successor maps, ...)."""


class DocAxiomError(GameDocError):
    """A structurally sound game that fails named axiom checks."""

    def __init__(self, report):
        self.report = report
        failed = report.failed()
        super().__init__("axiom failure: " + "; ".join(
            "%s (%s)" % (c.name, c.description) for c in failed))
        self.failed_names = [c.name for c in failed]


def _frac_str(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _parse_frac(s, where: str) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        raise DocSemanticError("bad rational %r in %s" % (s, where)) from None


def _read_id(x, where: str, key: bool = False) -> int:
    """x as a player or node id: a JSON integer that is not a boolean, or,
    as an object key (key set), the decimal text of one."""
    if key and isinstance(x, str):
        try:
            if str(int(x)) == x:
                return int(x)
        except ValueError:
            pass
    elif isinstance(x, int) and not isinstance(x, bool):
        return x
    raise DocSemanticError("bad id %r in %s" % (x, where))


def _object(x, where: str) -> dict:
    """x itself, when the document has a JSON object there."""
    if not isinstance(x, dict):
        raise DocSemanticError("%s is not an object" % where)
    return x


def _labels(x, where: str) -> tuple:
    """x as a tuple, when the document has a list of strings there."""
    if not isinstance(x, list) or not all(isinstance(a, str) for a in x):
        raise DocSemanticError("%s is not a list of strings" % where)
    return tuple(x)


def serialize_game(g: Game, provenance: Optional[Mapping] = None) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    nodes = {}
    for n in sorted(g.nodes):
        nd = g.nodes[n]
        nodes[str(n)] = {
            "parent": nd.parent,
            "players": sorted(nd.players),
            "actions": {str(i): list(nd.actions[i]) for i in nd.actions},
            "children": [{"profile": list(p), "child": c}
                         for p, c in sorted(nd.children.items())],
            "payoffs": {str(i): _frac_str(v)
                        for i, v in sorted(nd.payoffs.items())},
        }
    doc = {
        "format_version": FORMAT_VERSION,
        "players": list(g.players),
        "trees": {t: sorted(ns) for t, ns in g.trees.items()},
        "nodes": nodes,
        "info": [{"player": i, "tree": t, "node": n,
                  "host": h.host, "members": list(h.members)}
                 for (i, t, n), h in sorted(g.info.items())],
    }
    if provenance is not None:
        doc["provenance"] = dict(provenance)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_game(text: str) -> Game:
    """Parse canonical JSON into a validated Game.

    Raises DocSyntaxError for malformed JSON, DocSemanticError for schema or
    structural problems, and DocAxiomError (with the full report) when a
    named axiom check fails.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocSyntaxError(e.msg, e.lineno, e.colno) from None
    if not isinstance(doc, dict):
        raise DocSemanticError("document is not an object")
    version = doc.get("format_version")
    # a JSON integer that is not a boolean, as for ids: 1.0 and true are not 1
    if type(version) is not int or version != FORMAT_VERSION:
        raise DocSemanticError("unsupported format_version %r" % (version,))
    for field in ("players", "trees", "nodes", "info"):
        if field not in doc:
            raise DocSemanticError("missing field %r" % field)
    try:
        players = [_read_id(i, "players") for i in doc["players"]]
        nodes = {}
        for key, nd in _object(doc["nodes"], "nodes").items():
            n = _read_id(key, "nodes", key=True)
            nd = _object(nd, "node %s" % key)
            where = "node %d" % n
            children = {}
            for entry in nd.get("children", []):
                children[_labels(entry["profile"], "a profile of node %s"
                                 % key)] = _read_id(entry["child"], where)
            acts = "actions of node %d" % n
            pays = "payoffs of node %d" % n
            nodes[n] = NodeData(
                parent=None if nd.get("parent") is None
                else _read_id(nd["parent"], where),
                players=tuple(sorted(_read_id(i, where)
                                     for i in nd.get("players", []))),
                actions={_read_id(i, acts, key=True): _labels(a, acts)
                         for i, a in _object(nd.get("actions", {}),
                                             acts).items()},
                children=children,
                payoffs={_read_id(i, pays, key=True): _parse_frac(v, pays)
                         for i, v in _object(nd.get("payoffs", {}),
                                             pays).items()})
        trees = {t: [_read_id(n, "tree %s" % t) for n in ns]
                 for t, ns in _object(doc["trees"], "trees").items()}
        info = {}
        for entry in doc["info"]:
            if not all(isinstance(entry[k], str) for k in ("tree", "host")):
                raise DocSemanticError("info entry %r: tree names must be "
                                       "strings" % (entry,))
            key = (_read_id(entry["player"], "info"), entry["tree"],
                   _read_id(entry["node"], "info"))
            info[key] = InfoSet(key[0], entry["host"], tuple(sorted(
                _read_id(m, "info") for m in entry["members"])))
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, GameDocError):
            raise
        raise DocSemanticError("malformed document: %s" % e) from None

    try:
        g = Game(players, trees, nodes, info)
    except StructuralError as e:
        raise DocSemanticError(str(e)) from None
    try:
        report = validate_game(g)
    except StructuralError as e:
        raise DocSemanticError(str(e)) from None
    if not report.ok:
        raise DocAxiomError(report)
    return g


# ---------------------------------------------------------------------------
# DOT export


def game_dot(g: Game) -> str:
    """Deterministic DOT rendering: one cluster per tree (poorest first),
    edges labeled with action profiles, information sets annotated."""
    lines = ["digraph game {", "  rankdir=TB;"]
    for t in g.tree_order():
        lines.append('  subgraph "cluster_%s" {' % t)
        lines.append('    label="%s";' % t)
        for n in sorted(g.trees[t]):
            nd = g.nodes[n]
            if g.terminal_in(t, n):
                pay = ",".join(_frac_str(nd.payoffs[i])
                               for i in g.players)
                label = "%d (%s)" % (n, pay)
                shape = "box"
            else:
                sets = [g.info[(i, t, n)].label()
                        for i in sorted(nd.players) if (i, t, n) in g.info]
                label = "%d %s" % (n, " ".join(sets))
                shape = "ellipse"
            lines.append('    "%s_%d" [shape=%s,label="%s"];'
                         % (t, n, shape, label))
        for n in sorted(g.trees[t]):
            for prof, c in sorted(g.children_in(t, n).items()):
                lines.append('    "%s_%d" -> "%s_%d" [label="%s"];'
                             % (t, n, t, c, ",".join(prof)))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
