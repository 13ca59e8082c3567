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
    _check_game,
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


# Each helper below names the place it reads as ``where % args``, formatted
# only when it raises.


def _parse_frac(s, where: str, *args) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        raise DocSemanticError("bad rational %r in %s"
                               % (s, where % args)) from None


def _read_id(x, where: str, *args, key: bool = False) -> int:
    """x as a player or node id: a JSON integer that is not a boolean, or,
    as an object key (key set), the decimal text of one."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if key and isinstance(x, str):
        try:
            if str(int(x)) == x:
                return int(x)
        except ValueError:
            pass
    raise DocSemanticError("bad id %r in %s" % (x, where % args))


def _object(x, where: str, *args) -> dict:
    """x itself, when the document has a JSON object there."""
    if not isinstance(x, dict):
        raise DocSemanticError("%s is not an object" % (where % args))
    return x


def _labels(x, where: str, *args) -> tuple:
    """x as a tuple, when the document has a list of strings there."""
    if not isinstance(x, list) or not all(isinstance(a, str) for a in x):
        raise DocSemanticError("%s is not a list of strings" % (where % args))
    return tuple(x)


def serialize_game(g: Game, provenance: Optional[Mapping] = None) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.
    TypeError when g is not a Game or provenance is neither None nor a
    mapping."""
    _check_game(g)
    if provenance is not None and not isinstance(provenance, Mapping):
        raise TypeError("provenance must be a mapping, not %r" % (provenance,))
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

    Raises TypeError when text is not a str, bytes or bytearray,
    DocSyntaxError for malformed JSON or bytes that do not decode,
    DocSemanticError for schema or structural problems, for nesting too
    deep to read and for an integer too long to convert, and DocAxiomError
    (with the full report) when a named axiom check fails.
    """
    if not isinstance(text, (str, bytes, bytearray)):
        raise TypeError("a game document is text, not %r" % (text,))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocSyntaxError(e.msg, e.lineno, e.colno) from None
    except UnicodeDecodeError as e:
        read = e.object[:e.start].decode(e.encoding, "replace")
        raise DocSyntaxError("%s (%s)" % (e.reason, e.encoding),
                             read.count("\n") + 1,
                             len(read) - read.rfind("\n")) from None
    except ValueError as e:  # an integer beyond Python's conversion limit
        raise DocSemanticError("malformed document: %s" % e) from None
    except RecursionError:
        raise DocSemanticError("document nests too deeply to read") from None
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
        acts, pays = "actions of node %d", "payoffs of node %d"
        for key, nd in _object(doc["nodes"], "nodes").items():
            n = _read_id(key, "nodes", key=True)
            nd = _object(nd, "node %s", key)
            children = {}
            for entry in nd.get("children", []):
                children[_labels(entry["profile"], "a profile of node %s",
                                 key)] = _read_id(entry["child"], "node %d", n)
            nodes[n] = NodeData(
                parent=None if nd.get("parent") is None
                else _read_id(nd["parent"], "node %d", n),
                players=tuple(sorted(_read_id(i, "node %d", n)
                                     for i in nd.get("players", []))),
                actions={_read_id(i, acts, n, key=True): _labels(a, acts, n)
                         for i, a in _object(nd.get("actions", {}),
                                             acts, n).items()},
                children=children,
                payoffs={_read_id(i, pays, n, key=True):
                         _parse_frac(v, pays, n)
                         for i, v in _object(nd.get("payoffs", {}),
                                             pays, n).items()})
        trees = {t: [_read_id(n, "tree %s", t) for n in ns]
                 for t, ns in _object(doc["trees"], "trees").items()}
        info, sets = {}, {}   # sets: one InfoSet per distinct set
        for entry in doc["info"]:
            if not (isinstance(entry["tree"], str)
                    and isinstance(entry["host"], str)):
                raise DocSemanticError("info entry %r: tree names must be "
                                       "strings" % (entry,))
            key = (_read_id(entry["player"], "info"), entry["tree"],
                   _read_id(entry["node"], "info"))
            fields = (key[0], entry["host"], tuple(sorted(
                [_read_id(m, "info") for m in entry["members"]])))
            h = sets.get(fields)
            if h is None:
                h = sets[fields] = InfoSet(*fields)
            info[key] = h
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
    edges labeled with action profiles, information sets annotated.
    TypeError when g is not a Game."""
    _check_game(g)
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
