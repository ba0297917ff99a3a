"""Pure-Python search kernel for exhaustive {0,1} weighting enumeration.

This is the reference kernel and the fallback of vcew.oracle.  Its compiled
twin, _search.c (loaded through vcew._search_c), walks the same search tree
and counts the same nodes, so both return the same witnesses, counts and
node counts; vcew.oracle uses the compiled one whenever its shared library
sits next to the package.  Every traversal takes an
``oracle.SearchInstance`` and returns ``(value, nodes visited)``.

Search tree
-----------
The kernel enumerates assignments to the F "free" (not pre-weighted) edges.
Along the search path it keeps ``colors[v]``, the induced color of v under
the decided prefix plus the pre-weighting (undecided free edges contribute
0, matching the candidate each leaf represents).  A node is pruned, after
being counted, when

* some vertex color exceeds its upper bound (colors only grow along a
  path), or
* some settled edge has equal endpoint colors.  A graph edge is settled once
  every free edge incident to one of its endpoints has been decided: its
  endpoint colors can no longer change below that node.

Two traversal modes:

* combination mode (solve_ones): candidates with exactly c weight-1 free
  edges, in lexicographic order of the chosen position tuples, for
  c = 0, 1, ..., maxc.  The first proper candidate is returned, which makes
  witnesses deterministic.
* binary mode (count_all / exists_proper): full 0/1 tree over free edges,
  weight 0 before weight 1, used where enumeration order does not matter.

Settle table
------------
``skey[j]`` is the largest free position incident to edge j's endpoints (-1
when there is none), so edge j is settled exactly when the last decided free
position reaches skey[j].  ``_settle_table`` groups the edges by skey once
per call: ``at[p]`` holds the endpoint pairs of the edges that settle when
position p is decided.  solve_ones also lists the endpoints of every edge
in settle order (``su``/``sv``) with ``end[p + 1]``, the index of the first
edge still unsettled once p is decided, so the table stays O(m).  Settled
colors are frozen, so a node only checks the group its own decision
settles, and nothing but the two color bumps is undone on the way back.

Child-side pruning
------------------
Each child is counted, then tested inline; a child that fails (a bound
exceeded, or an equal-color pair in the group it settles) is counted but
not entered.  Node counts are therefore those of a walk that enters every
child and tests it on entry, which is how _search.c counts them.  In
combination mode, a position skipped by one sibling stays 0 in every later
sibling, so a conflict in ``at[p]`` under the parent's colors prunes all
later siblings: they are counted in one step.  The last level (one weight-1
edge left to place) checks the edges from ``end[p + 1]`` on in the loop
instead of calling down to a leaf.
"""

from __future__ import annotations

from itertools import accumulate


def _settle_table(inst):
    """The root group (edges with skey -1) and ``at`` (see above)."""
    eu, ev, skey = inst.eu, inst.ev, inst.skey
    groups = [[] for _ in range(len(inst.fu) + 1)]
    for j in inst.sorder:
        groups[skey[j] + 1].append((eu[j], ev[j]))
    return tuple(groups[0]), [tuple(group) for group in groups[1:]]


def _root_ok(inst, colors, root) -> bool:
    bounds = inst.bounds
    if any(colors[v] > bounds[v] for v in range(inst.n)):
        return False
    return all(colors[u] != colors[v] for u, v in root)


def solve_ones(inst, maxc):
    """First proper assignment with at most maxc weight-1 free edges.

    Returns (chosen_positions | None, nodes_visited).  Positions index the
    free-edge list; enumeration is by ascending popcount, ties lexicographic.
    """
    fu, fv, bounds = inst.fu, inst.fv, inst.bounds
    f = len(fu)
    colors = list(inst.colors)
    root, at = _settle_table(inst)
    su = [inst.eu[j] for j in inst.sorder]
    sv = [inst.ev[j] for j in inst.sorder]
    m = len(su)
    end = list(accumulate(map(len, at), initial=len(root)))
    root_ok = _root_ok(inst, colors, root)
    chosen: list[int] = []  # filled deepest first on success
    nodes = 0

    def place(start: int, remaining: int) -> bool:
        # Children of a passed node whose free positions below `start` are
        # decided and which has `remaining` weight-1 edges left to place.
        nonlocal nodes
        last = f - remaining
        for p in range(start, last + 1):
            nodes += 1
            u = fu[p]
            v = fv[p]
            cu = colors[u] + 1
            cv = colors[v] + 1
            if cu <= bounds[u] and cv <= bounds[v]:
                colors[u] = cu
                colors[v] = cv
                for a, b in at[p]:
                    if colors[a] == colors[b]:
                        break
                else:
                    if remaining == 1:
                        for i in range(end[p + 1], m):
                            if colors[su[i]] == colors[sv[i]]:
                                break
                        else:
                            chosen.append(p)
                            return True
                    elif place(p + 1, remaining - 1):
                        chosen.append(p)
                        return True
                colors[u] = cu - 1
                colors[v] = cv - 1
            for a, b in at[p]:
                if colors[a] == colors[b]:
                    nodes += last - p
                    return False
        return False

    for c in range(min(maxc, f) + 1):
        nodes += 1
        if not root_ok:
            continue
        if c == 0:
            if all(colors[a] != colors[b] for group in at for a, b in group):
                return [], nodes
        elif place(0, c):
            return chosen[::-1], nodes
    return None, nodes


def count_all(inst):
    """Number of proper assignments over all 2^F completions."""
    return _binary_walk(inst, early=False)


def exists_proper(inst):
    """Whether some proper completion respects the per-vertex color bounds."""
    count, nodes = _binary_walk(inst, early=True)
    return count > 0, nodes


def _binary_walk(inst, early):
    fu, fv, bounds = inst.fu, inst.fv, inst.bounds
    f = len(fu)
    colors = list(inst.colors)
    root, at = _settle_table(inst)
    if not _root_ok(inst, colors, root):
        return 0, 1
    if f == 0:
        return 1, 1
    nodes = 1

    def walk(d: int) -> int:
        # Proper completions below a passed node whose positions below d are
        # decided: the weight-0 child, then the weight-1 child.
        nonlocal nodes
        leaf = d + 1 == f
        pairs = at[d]
        nodes += 1
        for a, b in pairs:
            if colors[a] == colors[b]:
                total = 0
                break
        else:
            total = 1 if leaf else walk(d + 1)
            if early and total:
                return total
        nodes += 1
        u = fu[d]
        v = fv[d]
        cu = colors[u] + 1
        cv = colors[v] + 1
        if cu <= bounds[u] and cv <= bounds[v]:
            colors[u] = cu
            colors[v] = cv
            for a, b in pairs:
                if colors[a] == colors[b]:
                    break
            else:
                total += 1 if leaf else walk(d + 1)
            colors[u] = cu - 1
            colors[v] = cv - 1
        return total

    return walk(0), nodes
