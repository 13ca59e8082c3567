"""Built-in example games used across the test-suite and the demos.

Each fixture ships once, as the canonical document ``data/<name>.game.json``;
``load(name)`` parses a fresh Game from it and ``ugt export --format dot``
draws it.  The families:

* ``ex1_*``  -- a two-move game where player 1 is unaware of player 2's
                middle action m2 until the m2 terminal is reached
                (``ex1_initial``); in ``ex1_discovered`` player 1 knows m2.
* ``ex2_*``  -- the same skeleton plus a follow-up z1 of player 1 that player
                2 is in turn unaware of: a diamond lattice of four views
                (Tbar has m2 and z1, Tpp drops m2, Tp drops z1, T drops both)
                and mutual, asymmetric unawareness.  In ``ex2_initial``
                each is unaware of the other's; in ``ex2_rsc`` player 1 has
                discovered m2, in ``ex2_nonrat`` player 2 has discovered z1,
                and in ``ex2_full`` both are aware within every view.
* ``bos_*``  -- a battle of the sexes with an outside option: ``bos_aware``
                is the fully aware single tree; ``bos_repeated`` plays it
                twice with player 2 unaware of the outside option and
                monitoring that pools the opponent's stage-1 coordination
                action; ``bos_repeated_discovered`` follows player 2's
                discovery of the outside option.
* ``fig14``  -- four trees separating the two constant-awareness notions:
                along the unique equilibrium path player 1 never becomes
                aware of a and player 2 never of L and R, yet inside player
                1's view the host of player 2's sets shifts along the path.
* small single-tree games: ``matching_pennies``, ``trivial_single`` (one
  player, one move) and ``nature_coin`` (nature flips a coin that player 1
  does not observe).

Payoffs are exact rationals.  Stage-2 action labels in the repeated game
carry the stage-1 history tag, since two decision nodes of one player in one
tree may share action labels only if they share the information set.
"""

from __future__ import annotations

from functools import partial
from importlib import resources
from typing import Callable

from .core import Game
from .gamedoc import parse_game

NAMES = ("ex1_initial", "ex1_discovered", "ex2_initial", "ex2_rsc",
         "ex2_nonrat", "ex2_full", "bos_aware", "bos_repeated",
         "bos_repeated_discovered", "fig14", "matching_pennies",
         "trivial_single", "nature_coin")

# games meant as starting points of a discovery process
INITIAL_GAMES = ("ex1_initial", "ex2_initial", "bos_aware", "bos_repeated",
                 "fig14", "matching_pennies", "trivial_single", "nature_coin")


def load(name: str) -> Game:
    """A freshly parsed copy of the named fixture.

    ValueError when name is not a fixture."""
    if name not in NAMES:
        raise ValueError("unknown fixture %r (available: %s)"
                         % (name, ", ".join(sorted(NAMES))))
    path = resources.files("ugt") / "data" / f"{name}.game.json"
    return parse_game(path.read_text(encoding="utf-8"))


FIXTURES: dict[str, Callable[[], Game]] = {n: partial(load, n) for n in NAMES}
