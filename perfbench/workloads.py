"""The three workloads: inputs, the calls of one pass, and output checks.

Every workload is driven by one closed-loop caller: the next call starts
when the previous one returns, in a single process with no threads.  A
workload hands the runner a list of ``Call`` records per pass; the runner
times each thunk and afterwards, outside the timed region, asks the
workload to check what it returned.

* ``fixtures_cli`` -- the 11 small bundled fixtures, each through
  ``ugt.cli.main`` for 11 subcommand forms.  Every call re-reads and
  re-validates its file, so game construction and fixed per-call cost
  dominate: the build-heavy use of ``cli``, ``gamedoc`` and ``core``.
  EFR and the LP see only tiny games.
* ``bos_repeated`` -- the two 37-node repeated battle-of-the-sexes
  fixtures, parsed fresh each pass, then ``efr``, the EFR supergame and
  ``construct_sce_efr``.  One game with thousands of pure strategies is
  queried millions of times: the query-heavy use of ``strategies``,
  ``rationalizability``, ``lp`` and ``equilibrium``.  Parsing is a sliver.
* ``random_grid`` -- generated games over a fixed ``GenParams`` grid, each
  through parse, EFR, the all-profiles supergame, an EFR discovery run, the
  construction on its absorbing state and both SCE checks on a random
  profile.  Many small multi-tree lattices, with nature and three players:
  ``discovery`` does most of the work, EFR little.

The random games form a fixed corpus (generator seeds depend on the grid
cell and draw number only); ``--seed`` picks the checked profiles, the
discovery sampler's seed and the call order.  Per-game cost spans two
orders of magnitude (its coefficient of variation over admitted draws was
about 1), so a pass over ~46 games drawn afresh from each seed would move
by roughly a fifth between seeds, and no run length that fits the time
budget averages that out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import ugt
from ugt import cli
from ugt.core import NATURE, Game, InfoSet
from ugt.strategies import acting_players

FIXTURE_DIR = os.path.join(os.path.dirname(ugt.__file__), "data")
SMALL_FIXTURES = sorted(n for n in ugt.FIXTURES if not n.startswith("bos_repeated"))

CLI_FORMS = {
    "validate": ["validate"],
    "efr": ["efr", "--trace"],
    "discover": ["discover", "--policy", "efr"],
    "supergame-all": ["supergame", "--policy", "all"],
    "supergame-rational": ["supergame", "--policy", "rational"],
    "supergame-efr": ["supergame", "--policy", "efr"],
    "sce-pure": ["sce", "--mode", "pure"],
    "sce-behavior": ["sce", "--mode", "behavior"],
    "sce-efr": ["sce", "--mode", "efr"],
    "construct-sce": ["construct-sce"],
    "export-dot": ["export", "--format", "dot"],
}

# which calls make up the efr_s, supergame_s and construct_s metrics
STAGE_OF_FORM = {"efr": "efr", "supergame-all": "supergame",
                 "supergame-rational": "supergame",
                 "supergame-efr": "supergame", "construct-sce": "construct"}

GRID = list(itertools.product((2, 3), (3, 4), (2, 3), (3, 5), (False, True)))
GRID_DRAWS = 6           # generator draws per grid cell
PROFILE_BUDGET = 2 ** 14  # bound on pure profiles in any discovered version


@dataclass
class Call:
    game: str
    op: str
    thunk: Callable[[], Any]

    @property
    def stage(self) -> str:
        """The stage (efr, supergame, construct, ...) the call belongs to."""
        return STAGE_OF_FORM.get(self.op, self.op)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name + ".game.json")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# canonical views of outputs, for digests


def _strategy(s) -> list:
    return sorted((h.label(), a) for h, a in s.as_dict().items())


def _behavior(b) -> list:
    return [(h.label(), [(a, str(p)) for a, p in kern]) for h, kern in b.kernels]


def efr_view(trace) -> dict:
    return {"fixpoint": trace.fixpoint_round,
            "surviving": {str(i): sorted(_strategy(s) for s in pool)
                          for i, pool in trace.surviving().items()}}


def supergame_view(sg) -> dict:
    """States as canonical documents and edges between them, so that the
    view does not depend on the order in which states were found."""
    names = [digest(ugt.serialize_game(g)) for g in sg.states]
    return {"states": sorted(names),
            "edges": sorted((names[k], list(p), names[j])
                            for k, e in sg.edges.items() for p, j in e.items()),
            "absorbing": sorted(names[k] for k in sg.edges
                                if sg.is_absorbing(k))}


def verdict_view(v) -> dict:
    return {"holds": v.holds, "violated": v.violated_condition,
            "player": v.player}


def construct_view(out, profile: bool = True) -> dict:
    if isinstance(out[0], str):
        return {"outcome": out[0]}
    pi, verdict = out
    view = {"verdict": verdict_view(verdict)}
    if profile:
        view["profile"] = {str(j): _behavior(pi[j]) for j in sorted(pi)}
    return view


def construct(g: Game):
    """construct_sce_efr, with its two documented refusals as outcomes."""
    try:
        return ugt.construct_sce_efr(g)
    except NotImplementedError:
        return ("not-implemented", "")
    except ValueError as e:
        return ("not-rsc", str(e))


# ---------------------------------------------------------------------------
# fixtures_cli


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def cli_verdict(form: str, code: int, text: str) -> dict:
    """The part of a CLI call's output that states its verdict.

    Witnesses that a correct engine may choose differently (the equilibrium
    found, the profile a search stops at, the order states are numbered in)
    are left out, so that the expected file pins verdicts, not choices.
    """
    try:
        out = json.loads(text)
    except ValueError:
        return {"exit": code, "text": text}
    if form == "discover":
        out = {k: out[k] for k in ("num_states", "absorbing_reached")}
    elif form.startswith("supergame"):
        edges = out["edges"]
        out = {"num_states": out["num_states"],
               "absorbing": len(out["absorbing"]),
               "out_degrees": sorted((len(succ), int(k) in succ)
                                     for k, succ in edges.items())}
    elif form.startswith("sce") or form == "construct-sce":
        out = {k: out.get(k) for k in ("holds", "violated_condition",
                                       "player", "error")}
    return {"exit": code, "verdict": out}


def cli_argv(fixture: str, form: str) -> list[str]:
    words = CLI_FORMS[form]
    return ["--json", words[0], fixture_path(fixture)] + words[1:]


class FixturesCli:
    name = "fixtures_cli"

    def __init__(self, expected: dict):
        self.expected = expected["fixtures_cli"]

    def setup(self, seed: int):
        for name in SMALL_FIXTURES:
            with open(fixture_path(name)) as f:
                ugt.parse_game(f.read())
        keys = [(n, form) for n in SMALL_FIXTURES for form in CLI_FORMS]
        random.Random(seed).shuffle(keys)
        return keys

    def calls(self, keys) -> list[Call]:
        return [Call(n, form,
                     lambda argv=cli_argv(n, form): run_cli(argv))
                for n, form in keys]

    def check_pass(self, keys, results) -> list[Optional[str]]:
        out = []
        for (n, form), res in zip(keys, results):
            if res is None:
                out.append(None)   # the call's own error already counts
                continue
            code, text = res
            want = self.expected["%s|%s" % (n, form)]
            got = {"exit": code, "digest": digest(cli_verdict(form, code, text))}
            out.append(None if got == want else
                       "%s %s: got %s, expected %s" % (n, form, got, want))
        return out


# ---------------------------------------------------------------------------
# bos_repeated


BOS_GAMES = ("bos_repeated", "bos_repeated_discovered")
# efr(bos_repeated) takes a few seconds, short enough for bursts on a shared
# machine to show, so each pass times it on several fresh parses
BOS_EFR_REPEATS = 3


class BosRepeated:
    name = "bos_repeated"

    def __init__(self, expected: dict):
        self.expected = expected["bos_repeated"]

    def setup(self, seed: int):
        texts = {}
        for name in BOS_GAMES:
            with open(fixture_path(name)) as f:
                texts[name] = f.read()
            ugt.parse_game(texts[name])
        return texts

    def calls(self, texts) -> list[Call]:
        """Fresh parses, efr, then the EFR supergame on the last efr'd game
        and the construction on the discovered game."""
        games = {}

        def parse(name):
            games[name] = ugt.parse_game(texts[name])
            return games[name]

        g0, g1 = BOS_GAMES
        out = []
        for _ in range(BOS_EFR_REPEATS):
            out += [Call(g0, "parse", lambda: parse(g0)),
                    Call(g0, "efr", lambda: ugt.efr(games[g0]))]
        return out + [
            Call(g0, "supergame", lambda: ugt.build_supergame(games[g0], "efr")),
            Call(g1, "parse", lambda: parse(g1)),
            Call(g1, "construct", lambda: construct(games[g1])),
        ]

    @staticmethod
    def view(call: Call, texts, result) -> dict:
        if call.op == "parse":
            return {"canonical": ugt.serialize_game(result) == texts[call.game]}
        if call.op == "efr":
            return efr_view(result)
        if call.op == "supergame":
            return supergame_view(result)
        return construct_view(result, profile=False)

    def check_pass(self, texts, results) -> list[Optional[str]]:
        out: list[Optional[str]] = []
        for call, res in zip(self.calls(texts), results):
            if res is None:
                out.append(None)   # the call's own error already counts
                continue
            view = self.view(call, texts, res)
            key = "%s %s" % (call.game, call.op)
            got = digest(view)
            bad = None if got == self.expected[key] else \
                "digest %s, expected %s" % (got, self.expected[key])
            # independent of the expected file: the construction verifies,
            # and the EFR supergame has an absorbing state
            if call.op == "construct" and \
                    not view.get("verdict", {}).get("holds"):
                bad = "construct_sce_efr verdict does not hold"
            if call.op == "supergame" and not view["absorbing"]:
                bad = "EFR supergame has no absorbing state"
            out.append(bad)
        return out


# ---------------------------------------------------------------------------
# random_grid


def profile_count(g: Game) -> int:
    """Pure profiles of g, from its decision-set action counts."""
    n = 1
    for j in acting_players(g):
        for h in g.decision_sets(j):
            n *= len(g.actions_in(h.host, h.members[0], j)
                     if j == NATURE else g.set_actions(h))
    return n


def profile_bound(g: Game) -> int:
    """An upper bound on the pure profiles of every discovered version of g.

    Discovery rewrites information sets but keeps the trees, nodes and
    nature: a real player has at most one decision set per (tree, node) key
    where they move, with at most the richest tree's actions there.  The
    supergame enumerates the profiles of each version, so this, not the
    initial count, bounds its work.
    """
    n = 1
    for h in g.decision_sets(NATURE):
        n *= len(g.actions_in(h.host, h.members[0], NATURE))
    for (i, _t, node) in g.info:
        if i in g.nodes[node].players:
            n *= len(g.actions_in(g.tbar, node, i))
    return n


def consistent_across_trees(g: Game, s_j) -> bool:
    """Whether a pure strategy reads the same action at a decision node in
    every tree; pure and lifted-behavior SCE agree on profiles of such
    strategies.  Nature's synthetic sets are one per tree and node."""
    j = s_j.owner

    def at(t, n):
        h = InfoSet(NATURE, t, (n,)) if j == NATURE else g.info[(j, t, n)]
        return s_j.action_at(h)

    for t in g.trees:
        if t == g.tbar:
            continue
        for n in sorted(g.trees[t]):
            if g.terminal_in(t, n) or j not in g.nodes[n].players:
                continue
            want = at(g.tbar, n)
            if want in g.actions_in(t, n, j) and at(t, n) != want:
                return False
    return True


@dataclass
class GridGame:
    label: str
    text: str
    profile: dict
    discovery_seed: int
    players: int


class RandomGrid:
    name = "random_grid"

    def __init__(self, expected: dict):
        self.refused: list[dict] = []
        self.first: dict[str, list] = {}   # label -> views of the first pass
        self.skipped: dict[str, int] = {}

    def setup(self, seed: int):
        rng = random.Random(seed)
        refused, games = [], []
        for k, (pl, d, b, tc, nat) in enumerate(GRID):
            params = ugt.GenParams(players=pl, depth=d, branching=b,
                                   tree_count=tc, nature=nat)
            for r in range(GRID_DRAWS):
                gen_seed = 1000 * r + k
                g = ugt.generate_random_game(params, seed=gen_seed)
                label = "p%dd%db%dt%d%s#%d" % (pl, d, b, tc, "n" if nat else "",
                                             gen_seed)
                bound = profile_bound(g)
                if bound > PROFILE_BUDGET:
                    refused.append({"game": label, "profiles": profile_count(g),
                                    "bound": bound})
                    continue
                games.append(GridGame(
                    label, ugt.serialize_game(g),
                    ugt.random_profile(g, seed=rng.randrange(2 ** 31)),
                    rng.randrange(2 ** 31), pl))
        rng.shuffle(games)
        self.refused = refused
        return games

    def calls(self, games) -> list[Call]:
        out = []
        for gg in games:
            box = {}

            def parse(gg=gg, box=box):
                box["g"] = ugt.parse_game(gg.text)
                return box["g"]

            def discover(gg=gg, box=box):
                box["trace"] = ugt.run_discovery(box["g"], "efr",
                                                 seed=gg.discovery_seed)
                return box["trace"]

            out += [
                Call(gg.label, "parse", parse),
                Call(gg.label, "efr", lambda box=box: ugt.efr(box["g"])),
                Call(gg.label, "supergame",
                     lambda box=box: ugt.build_supergame(box["g"], "all")),
                Call(gg.label, "discover", discover),
                Call(gg.label, "construct",
                     lambda box=box: construct(box["trace"].absorbing)),
                Call(gg.label, "sce_pure",
                     lambda gg=gg, box=box: ugt.check_sce_pure(box["g"], gg.profile)),
                Call(gg.label, "sce_behavior",
                     lambda gg=gg, box=box: ugt.check_sce_behavior(
                         box["g"], ugt.lift_pure(box["g"], gg.profile))),
            ]
        return out

    @staticmethod
    def views(gg: GridGame, res: list) -> list:
        g, trace, sg, disc, built, pure, behav = res
        return [ugt.serialize_game(g), efr_view(trace), supergame_view(sg),
                [ugt.serialize_game(s) for s in disc.states],
                construct_view(built), verdict_view(pure), verdict_view(behav)]

    def check_pass(self, games, results) -> list[Optional[str]]:
        out: list[Optional[str]] = []
        for n, gg in enumerate(games):
            res = results[7 * n: 7 * n + 7]
            if any(r is None for r in res):
                out += [None] * 7   # an earlier failure already counts
                continue
            views = [digest(v) for v in self.views(gg, res)]
            if gg.label not in self.first:
                self.first[gg.label] = views
                out += self.crosscheck(gg, res)
            else:
                out += [None if a == b else "%s: output changed between passes"
                        % gg.label for a, b in zip(views, self.first[gg.label])]
        return out

    def _skip(self, what: str) -> None:
        self.skipped[what] = self.skipped.get(what, 0) + 1

    def crosscheck(self, gg: GridGame, res: list) -> list[Optional[str]]:
        """Independent checks, once per game and outside the timed region."""
        g, trace, sg, disc, built, pure, behav = res
        bad: list[Optional[str]] = [None] * 7
        if ugt.serialize_game(g) != gg.text:
            bad[0] = "%s: parse/serialize round trip differs" % gg.label
        try:
            oracle = ugt.efr_oracle(g)
            if any(set(trace.surviving()[i]) != set(oracle[i])
                   for i in g.players):
                bad[1] = "%s: efr disagrees with efr_oracle" % gg.label
        except ugt.OracleCapExceeded:
            self._skip("efr_oracle over its cap")
        if any(s not in sg.states for s in disc.states):
            bad[2] = "%s: an EFR discovery state is missing from the " \
                     "all-profiles supergame" % gg.label
        if not ugt.build_supergame(disc.absorbing, "efr").is_absorbing(0):
            bad[3] = "%s: discovery stopped at a non-absorbing state" % gg.label
        if isinstance(built[0], str):
            outcome = built[0]
            if outcome == "not-implemented" and gg.players < 3:
                bad[4] = "%s: construction refused a 2-player game" % gg.label
            if outcome == "not-rsc" and \
                    ugt.equilibrium.is_rationalizable_self_confirming(disc.absorbing):
                bad[4] = "%s: construction refused a rationalizable " \
                         "self-confirming game" % gg.label
        elif not built[1].holds:
            bad[4] = "%s: constructed equilibrium fails verification" % gg.label
        if all(consistent_across_trees(g, s) for s in gg.profile.values()):
            if pure.holds != behav.holds:
                bad[5] = bad[6] = "%s: pure and behavior SCE disagree" % gg.label
        else:
            self._skip("SCE agreement (profile not consistent across trees)")
        return bad


WORKLOADS = {w.name: w for w in (FixturesCli, BosRepeated, RandomGrid)}
