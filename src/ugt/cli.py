"""Command-line surface: ``ugt <subcommand> <file> [options]``.

Subcommands: validate, efr, discover, supergame, sce, construct-sce and
export.  Machine-readable output is available everywhere via ``--json``.
Exit status is 0 for success or a positive verdict, 1 for a definite
negative verdict, 2 for errors (bad files, bad arguments), and 3 when the
game is too large for memory (``MemoryError``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from .core import Game, InfoSet
from .discovery import (
    allowed_profiles,
    build_supergame,
    run_discovery,
    supergame_dot,
)
from .equilibrium import (
    check_sce_behavior,
    check_sce_efr,
    check_sce_pure,
    construct_sce_efr,
)
from .gamedoc import (
    DocAxiomError,
    GameDocError,
    _read_id,
    game_dot,
    parse_game,
    serialize_game,
)
from .rationalizability import efr
from .strategies import BehaviorStrategy, PureStrategy

POLICY = {"efr": "efr", "rational": "rational_only", "all": "all"}


class CliError(Exception):
    def __init__(self, message: str, status: int = 2):
        super().__init__(message)
        self.status = status


def _load(path: str) -> Game:
    # bytes, so that a document that does not decode is the parser's error
    try:
        with open(path, "rb") as f:
            text = f.read()
    except OSError as e:
        raise CliError(str(e))
    try:
        return parse_game(text)
    except GameDocError as e:
        raise CliError("%s: %s" % (path, e)) from e


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise CliError(str(e))


def _frac(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _pure_json(s: PureStrategy) -> dict:
    return {"player": s.owner,
            "choices": [{"set": h.label(), "action": a}
                        for h, a in sorted(s.as_dict().items())]}


def _behavior_json(pi_i: BehaviorStrategy) -> dict:
    return {"player": pi_i.owner,
            "kernels": [{"set": h.label(),
                         "weights": {a: _frac(p) for a, p in kern}}
                        for h, kern in pi_i.kernels]}


def _verdict_json(v) -> dict:
    return {"holds": v.holds, "violated_condition": v.violated_condition,
            "player": v.player, "detail": v.detail}


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


# ---------------------------------------------------------------------------
# profile files


def _parse_set(entry: dict, player: int) -> InfoSet:
    return InfoSet(player, entry["host"], tuple(sorted(
        _read_id(m, "members") for m in entry["members"])))


def _read_profile(path: str) -> dict:
    """A profile document maps player ids to either a pure plan
    ({"pure": [{"host", "members", "action"}...]}) or behavior kernels
    ({"behavior": [{"host", "members", "weights"}...]})."""
    try:
        with open(path, "rb") as f:
            doc = json.loads(f.read())
    except (OSError, ValueError) as e:
        raise CliError("%s: %s" % (path, e))
    except RecursionError:
        raise CliError("%s: nests too deeply to read" % path)
    out = {}
    try:
        for key, desc in doc["profile"].items():
            j = _read_id(key, "profile", key=True)
            if "pure" in desc:
                out[j] = PureStrategy.make(j, {
                    _parse_set(e, j): e["action"] for e in desc["pure"]})
            elif "behavior" in desc:
                out[j] = BehaviorStrategy.make(j, {
                    _parse_set(e, j): {a: Fraction(w)
                                       for a, w in e["weights"].items()}
                    for e in desc["behavior"]})
            else:
                raise CliError("player %d: neither pure nor behavior" % j)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CliError("%s: malformed profile: %s" % (path, e))
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    try:
        _load(args.file)
    except CliError as e:
        if isinstance(e.__cause__, DocAxiomError):
            _emit(args, {"ok": False, "error": str(e)}, str(e))
            return 1
        raise
    _emit(args, {"ok": True}, "%s: all 13 checks pass" % args.file)
    return 0


def _cmd_efr(args) -> int:
    g = _load(args.file)
    trace = efr(g)
    surviving = trace.surviving()
    payload = {"fixpoint_round": trace.fixpoint_round}
    if args.json:
        # only the JSON form lists the survivors; the text gives their count
        payload["surviving"] = {str(i): [_pure_json(s) for s in surviving[i]]
                                for i in g.players}
    lines = ["fixpoint after round %d" % trace.fixpoint_round]
    for i in g.players:
        lines.append("player %d: %d surviving" % (i, len(surviving[i])))
    if args.trace:
        payload["rounds"] = [
            {str(i): len(rd[i]) for i in g.players} for rd in trace.rounds]
        for k, rd in enumerate(trace.rounds):
            lines.append("round %d sizes: %s"
                         % (k, {i: len(rd[i]) for i in g.players}))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_discover(args) -> int:
    g = _load(args.file)
    trace = run_discovery(g, POLICY[args.policy], seed=args.seed)
    payload = {"num_states": len(trace.states),
               "absorbing_reached": True,
               "steps": [_pure_json(s[j]) for s in trace.profiles
                         for j in sorted(s)]}
    lines = ["%d states, absorbing reached" % len(trace.states)]
    if args.steps_out:
        _write(args.steps_out, "digraph trace {\n" + "\n".join(
            '  "s%d" -> "s%d";' % (k, k + 1)
            for k in range(len(trace.states) - 1)) + "\n}\n")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_supergame(args) -> int:
    g = _load(args.file)
    sg = build_supergame(g, POLICY[args.policy])
    absorbing = sorted(k for k in sg.edges if sg.is_absorbing(k))
    if args.dot:
        _write(args.dot, supergame_dot(sg))
    payload = {"num_states": len(sg.states), "initial": sg.initial,
               "absorbing": absorbing,
               "edges": {str(k): sorted(sg.successors(k)) for k in sg.edges}}
    _emit(args, payload, "%d states, absorbing: %s"
          % (len(sg.states), absorbing))
    return 0


def _checker(mode):
    return {"pure": check_sce_pure, "behavior": check_sce_behavior,
            "efr": check_sce_efr}[mode]


def _cmd_sce(args) -> int:
    g = _load(args.file)
    check = _checker(args.mode)
    if args.profile:
        try:
            v = check(g, _read_profile(args.profile))
        except ValueError as e:
            raise CliError(str(e))
        _emit(args, _verdict_json(v),
              "holds" if v.holds else "fails: %s (player %s)"
              % (v.violated_condition, v.player))
        return 0 if v.holds else 1
    # without a profile: search the rational profiles (the surviving ones
    # for mode efr), nature's pure moves enumerated alongside
    first = None
    checked = 0
    policy = "efr" if args.mode == "efr" else "rational_only"
    for s in allowed_profiles(g, policy):
        checked += 1
        v = check(g, s)
        if v.holds:
            payload = _verdict_json(v)
            payload["profile"] = {str(j): _pure_json(s[j]) for j in sorted(s)}
            _emit(args, payload, "holds (found among %d profiles)" % checked)
            return 0
        if first is None:
            first = v
    payload = _verdict_json(first)
    payload["profiles_checked"] = checked
    _emit(args, payload, "fails: %s (player %s; %d profiles checked)"
          % (first.violated_condition, first.player, checked))
    return 1


def _cmd_construct_sce(args) -> int:
    g = _load(args.file)
    try:
        pi, verdict = construct_sce_efr(g)
    except ValueError as e:
        _emit(args, {"holds": False, "error": str(e)}, "failed: %s" % e)
        return 1
    except NotImplementedError as e:
        raise CliError(str(e))
    payload = _verdict_json(verdict)
    payload["profile"] = {str(j): _behavior_json(pi[j]) for j in sorted(pi)}
    _emit(args, payload,
          "constructed; verification %s"
          % ("holds" if verdict.holds else "FAILS"))
    return 0 if verdict.holds else 1


def _cmd_export(args) -> int:
    g = _load(args.file)
    out = game_dot(g) if args.format == "dot" else serialize_game(g)
    sys.stdout.write(out)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so every ``main`` call reuses it."""
    p = argparse.ArgumentParser(
        prog="ugt",
        description="analysis of extensive-form games with unawareness")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="run the 13 structural checks")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("efr", help="extensive-form rationalizability")
    sp.add_argument("file")
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(func=_cmd_efr)

    sp = sub.add_parser("discover", help="simulate a discovery process")
    sp.add_argument("file")
    sp.add_argument("--policy", choices=sorted(POLICY), required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--steps-out", metavar="DOT")
    sp.set_defaults(func=_cmd_discover)

    sp = sub.add_parser("supergame", help="build the discovery supergame")
    sp.add_argument("file")
    sp.add_argument("--policy", choices=sorted(POLICY), required=True)
    sp.add_argument("--dot", metavar="FILE")
    sp.set_defaults(func=_cmd_supergame)

    sp = sub.add_parser("sce", help="self-confirming equilibrium check")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=["pure", "behavior", "efr"],
                    required=True)
    sp.add_argument("--profile", metavar="FILE")
    sp.set_defaults(func=_cmd_sce)

    sp = sub.add_parser("construct-sce",
                        help="build and verify an equilibrium in "
                             "rationalizable conjectures")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_construct_sce)

    sp = sub.add_parser("export", help="write the game in another format")
    sp.add_argument("file")
    sp.add_argument("--format", choices=["dot", "canonical-json"],
                    required=True)
    sp.set_defaults(func=_cmd_export)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as e:
        print("error: %s" % e, file=sys.stderr)
        return e.status
    except MemoryError:
        print("error: out of memory: the game is too large", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
