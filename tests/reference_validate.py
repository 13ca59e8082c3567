"""The axiom validator as it was before it read per-game tables: every
check scans the trees or walks paths per information key.  Kept unchanged
as the reference that ``test_validate_reference.py`` compares
``ugt.core.validate_game`` with, report for report and error for error.
"""

import itertools

from ugt.core import (
    CHECK_NAMES,
    NATURE,
    CheckResult,
    Game,
    InfoSet,
    NodeId,
    Player,
    StructuralError,
    ValidationReport,
)


def _structural_problems(g: Game) -> list[str]:
    if not g.trees:
        return ["game has no trees"]
    problems: list[str] = []
    # unique maximum tree
    sizes = sorted(((len(ns), t) for t, ns in g.trees.items()), reverse=True)
    if len(sizes) > 1 and sizes[0][0] == sizes[1][0]:
        top = [t for t, ns in g.trees.items() if len(ns) == sizes[0][0]]
        if len({g.trees[t] for t in top}) > 1:
            problems.append("no unique upmost tree among %s" % sorted(top))
    tbar = g.tbar
    if g.trees[tbar] != frozenset(g.nodes):
        problems.append("upmost tree does not cover all nodes")
    # successor maps are bijections onto declared children
    for n, nd in g.nodes.items():
        plist = sorted(nd.players)
        if nd.is_terminal:
            if nd.players:
                problems.append("terminal node %d has active players" % n)
            missing = [i for i in g.players if i not in nd.payoffs]
            if missing:
                problems.append("terminal node %d lacks payoffs for %s" % (n, missing))
            continue
        if nd.payoffs:
            problems.append("decision node %d carries payoffs" % n)
        if not nd.players:
            problems.append("decision node %d has no active players" % n)
            continue
        if len(set(nd.players)) < len(nd.players):
            problems.append("node %d: active players %s name a player twice"
                            % (n, list(nd.players)))
        if set(nd.actions) != set(nd.players):
            problems.append("node %d: actions not declared per active player" % n)
            continue
        profs = set(itertools.product(*[nd.actions[i] for i in plist]))
        if set(nd.children) != profs:
            problems.append("node %d: successor map domain is not the profile product" % n)
        if len(set(nd.children.values())) != len(nd.children):
            problems.append("node %d: successor map not injective" % n)
        for c in nd.children.values():
            if g.nodes[c].parent != n:
                problems.append("node %d: child %d has parent %s" %
                                (n, c, g.nodes[c].parent))
    # each node except the global root is someone's child
    child_of = {c for nd in g.nodes.values() for c in nd.children.values()}
    roots = [n for n in g.nodes if n not in child_of]
    if len(roots) != 1:
        problems.append("upmost tree has %d roots" % len(roots))
    # per-tree arborescence
    for t, ns in g.trees.items():
        try:
            r = g.root(t)
        except StructuralError as e:
            problems.extend(e.problems)
            continue
        for n in ns:
            # follow parents inside t, stopping where the chain would repeat
            up, seen = n, set()
            while up in ns and up not in seen:
                seen.add(up)
                top, up = up, g.nodes[up].parent
            if up in ns or top != r:
                problems.append("tree %s: node %d not connected to root" % (t, n))
    # joins exist
    order = sorted(g.trees)
    for a in order:
        for b in order:
            if a < b:
                try:
                    g.join(a, b)
                except StructuralError as e:
                    problems.extend(e.problems)
    # information completeness
    have = set(g.info)
    for key in g.info_domain():
        if key not in have:
            problems.append("missing information set for key %s" % (key,))
    for key in g.info:
        i, t, n = key
        if i == NATURE:
            problems.append("nature carries no information sets: %s" % (key,))
    return problems


def reference_validate_structure(g: Game) -> None:
    problems = _structural_problems(g)
    if problems:
        raise StructuralError(problems)


def reference_validate_game(g: Game) -> ValidationReport:
    """Run the thirteen named structural-axiom checks.

    Raises StructuralError for malformed input; axiom failures are reported,
    with witnesses, not raised.  All failures are collected, not just the
    first.
    """
    reference_validate_structure(g)
    fails: dict[str, list] = {name: [] for name, _ in CHECK_NAMES}
    tbar = g.tbar

    tree_list = g.tree_order()
    for t in tree_list:
        ns = g.trees[t]
        for n in sorted(ns):
            nd = g.nodes[n]
            if g.terminal_in(t, n):
                # prop1
                if not nd.is_terminal:
                    fails["prop1"].append((t, n))
                continue
            # prop2: children in t = product of the restricted action sets
            # (each nonempty: a node not terminal in t has a child in t)
            restr = [g.actions_in(t, n, i) for i in sorted(nd.players)]
            if set(itertools.product(*restr)) != set(g.children_in(t, n)):
                fails["prop2"].append((t, n))
        # prop3 and I5, per player within tree t
        for i in g.players:
            decs = [n for n in sorted(ns)
                    if i in g.nodes[n].players and not g.terminal_in(t, n)]
            for a_idx in range(len(decs)):
                for b_idx in range(a_idx + 1, len(decs)):
                    n, m = decs[a_idx], decs[b_idx]
                    an = set(g.actions_in(t, n, i))
                    am = set(g.actions_in(t, m, i))
                    if an & am and an != am:
                        fails["prop3"].append((t, i, n, m))
                    if an == am and g.info[(i, t, n)] != g.info[(i, t, m)]:
                        fails["I5"].append((t, i, n, m))

    for (i, t, n), h in sorted(g.info.items()):
        nd = g.nodes[n]
        host = h.host
        # U0
        if not g.leq(host, t):
            fails["U0"].append((i, t, n))
        # U1
        if n in g.trees[host] and n not in h.members:
            fails["U1"].append((i, t, n))
        # I2
        for m in h.members:
            key = (i, host, m)
            if key not in g.info or g.info[key] != h:
                fails["I2"].append((i, t, n, m))
        # I4 (decision sets only)
        if i in nd.players and not g.terminal_in(t, n):
            own = set(g.actions_in(t, n, i))
            for m in h.members:
                if not set(g.actions_in(host, m, i)) <= own:
                    fails["I4"].append((i, t, n, m))
        # I3: from any decision member, later sets of i within the host tree
        # never point outside the host tree
        for m in h.members:
            if i in g.nodes[m].players and not g.terminal_in(host, m):
                for d in g.descendants_in(host, m):
                    if i in g.nodes[d].players and not g.terminal_in(host, d):
                        if not g.leq(g.info[(i, host, d)].host, host):
                            fails["I3"].append((i, t, n, d))
        # I6: perfect recall (binds at decision nodes of i)
        if i in nd.players and not g.terminal_in(t, n):
            path = g.path_in(t, n)
            for k, anc in enumerate(path[:-1]):
                if i not in g.nodes[anc].players:
                    continue
                h_anc = g.info[(i, t, anc)]
                a_i = _action_towards(g, anc, path[k + 1], i)
                for m in h.members:
                    mpath = g.path_in(host, m)
                    ok = False
                    for j, b in enumerate(mpath[:-1]):
                        if i in g.nodes[b].players \
                                and g.info.get((i, host, b)) == h_anc \
                                and _action_towards(g, b, mpath[j + 1], i) == a_i:
                            ok = True
                            break
                    if not ok:
                        fails["I6"].append((i, t, n, m, anc))
        # I7: terminal sets
        if g.terminal_in(t, n):
            for m in h.members:
                if not g.terminal_in(host, m):
                    fails["I7"].append((i, t, n, m))
                elif g.nodes[m].payoffs.get(i) != nd.payoffs.get(i):
                    fails["I7"].append((i, t, n, m))

    # U4 / U5 over comparable tree triples
    for (i, t2, n), h in sorted(g.info.items()):
        # U4: for any intermediate tree between the host and the key's tree
        # that contains a copy of n, the copy carries the very same set
        for t1 in tree_list:
            if t1 == t2 or not (g.leq(h.host, t1) and g.leq(t1, t2)):
                continue
            if n in g.trees[t1] and g.info.get((i, t1, n)) != h:
                fails["U4"].append((i, t2, n, t1))
        # U5: in any tree below the host that contains a copy of n, the set
        # is the projection (copies of the members)
        for t0 in tree_list:
            if t0 == h.host or not g.leq(t0, h.host):
                continue
            if n not in g.trees[t0]:
                continue
            want = tuple(m for m in sorted(h.members) if m in g.trees[t0])
            if not want or g.info.get((i, t0, n)) != InfoSet(i, t0, want):
                fails["U5"].append((i, t2, n, t0))

    checks = tuple(CheckResult(name, desc, not fails[name],
                               tuple(sorted(set(fails[name]))[:8]))
                   for name, desc in CHECK_NAMES)
    return ValidationReport(checks)


def _action_towards(g: Game, n: NodeId, child: NodeId, i: Player) -> str:
    nd = g.nodes[n]
    idx = sorted(nd.players).index(i)
    for prof, c in nd.children.items():
        if c == child:
            return prof[idx]
    raise KeyError("node %d is not a child of %d" % (child, n))
