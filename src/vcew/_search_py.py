"""Pure-Python search kernel for exhaustive {0,1} weighting enumeration.

This is the reference kernel and the fallback of vcew.oracle.  Its compiled
twin, _search.c (loaded through vcew._search_c), mirrors solve_ones only,
so this docstring describes both, and both return the same witnesses and
node counts; vcew.oracle uses the compiled one whenever its shared library
sits next to the package.  count_all and exists_proper run in Python on
both backends.  Every traversal takes an ``oracle.SearchInstance`` and
returns ``(value, nodes visited)``.

Search tree
-----------
The kernel enumerates assignments to the F "free" (not pre-weighted) edges.
Along the search path it keeps ``colors[v]``, the induced color of v under
the decided prefix plus the pre-weighting (undecided free edges contribute
0, matching the candidate each leaf represents).  A node is pruned, after
being counted, when some settled edge has equal endpoint colors.  A graph
edge is settled once every free edge incident to one of its endpoints has
been decided: its endpoint colors can no longer change below that node.
The search has no per-vertex color ceiling; vcew.treewidth answers
color-bounded queries.

Two traversal modes:

* binary mode (``_walk``): the 0/1 tree over free positions in order,
  weight 0 before weight 1, with at most ``cap`` weight-1 free edges on a
  path (a weight-1 child is not visited once the cap is used up).
  count_all and exists_proper walk it with cap F; exists_proper stops at
  the first proper completion.  Neither has a caller in the package: they
  stay only because the benchmark's tracer (perfbench/spans.py) wraps
  them, and go when it no longer does.
* combination mode (solve_ones with ``fewest``): candidates with exactly c
  weight-1 free edges, in lexicographic order of the chosen position
  tuples, for c = 0, 1, ..., maxc.  The first proper candidate is
  returned, which makes witnesses deterministic.

solve_ones runs in up to two phases.  It first decides: a binary walk
capped at min(maxc, F) weight-1 edges, in twin order (below), stopped at
the first proper completion.  When there is none, it returns None at once;
this replaces one combination pass per popcount level, each of which starts
again from the root.  Without ``fewest`` the walk's first completion is the
witness: the lexicographically least proper 0/1 vector over the free
positions (0 before 1, earlier positions first) that keeps every twin class
in order and has at most the cap of ones.  The walk records its weight-1
positions on the way back from that completion, and the node count is the
walk's alone.  With ``fewest`` it then runs the combination passes from the
popcount floor (below) up, and their first hit, the fewest-ones lex-first
witness, is returned; the node count is the walk's plus the passes'.
vcew.oracle asks for ``fewest`` by default; the prewt route
(vcew.preweight) does not.

Twin order
----------
Two vertices with a free edge are twins when every other vertex is joined
to both the same way (not at all, free, or pre-weighted with one value)
and an edge between them, if any, is free.  Swapping two twins maps the
instance onto itself, so any permutation of a twin class maps each proper
completion to one with the same popcount.  Permuting every class so that
its colors ascend by id shows that a proper completion within the cap
exists only if one with every class in that order does.
``oracle._prepare`` lists the consecutive members (a, b), a < b, of each
class in ``twins``, ordered by the position where both have settled, with
``tend`` laid out like ``end``; ``tw[p]``, sliced like ``at[p]``, is the
group whose order is final once p is decided.  The decide walk fails a
child, exactly as it fails one with an equal-color pair, when some pair of
its group has color(a) > color(b).  The passes keep every order: the
lex-first witness need not be ordered, and an ordered pass would reach its
first hit later.  count_all and exists_proper walk without the order
(empty ``tw`` groups), so they still count every completion.

Popcount floor
--------------
``oracle._prepare`` also sets ``lo`` (0 when it prepares for a search
without the passes): no proper completion has fewer than lo weight-1 free
edges.  It takes vertex-disjoint cliques of vertices with a free edge,
greedily from the highest degree down.  A clique's colors are
distinct and at least the colors its pre-weights give, so they exceed
those start colors by at least the least such sum; each weight-1 free edge
adds at most 2 to the excess summed over the cliques, so lo is half the
summed least excess, rounded up.  The passes below lo all fail, so
solve_ones starts at min(lo, cap) and returns the same first hit, with
fewer nodes.

Settle table
------------
``oracle._prepare`` lists the graph's edges in settle order, ``pairs``,
with ``end[p]``, the index of the first edge that settles at position p or
later: the last free position touching either endpoint is then decided
and the edge's endpoint colors can no longer change.  The edges settled at
the root come before ``end[0]``, and ``at[p]``, sliced once per call, is
the group that settles when p is decided (_search.c reads it as
``pairs[end[p]:end[p + 1]]``).  The table is O(m).  Settled colors are
frozen, so a node only checks the group its own decision settles, and
nothing but the two color bumps is undone on the way back.

Child-side pruning
------------------
Each child is counted, then tested inline; a child that fails (an
equal-color pair in the group it settles) is counted but not entered.
Both kernels count this way, so node counts are those of a walk that
enters every child and tests it on entry.

The binary walk follows a run of weight-0 children in a loop: a weight-0
decision changes no color, so the run goes on until a group has an
equal-color pair or every position is decided.  It then tries the weight-1
children of the run deepest first, which is the weight-0-first order, and
recurses only into those, so its depth is at most cap + 1.

In combination mode, a position skipped by one sibling stays 0 in every
later sibling, so a conflict in ``at[p]`` under the parent's colors prunes
all later siblings; a call adds its counted children to the node count once,
on return.  The last level (one weight-1 edge left to place) checks
``pairs[end[p]:]``, every edge still unsettled, in the loop instead of
calling down to a leaf.  The slice is a list, taken from one copy of
``pairs`` per call; a copy of every tail at once would take O(F m) memory
(_search.c reads ``end[p]..m`` in place).
"""

from __future__ import annotations


def _groups(items, end):
    """``at`` or ``tw`` (see above): the items of each free position."""
    return [items[end[p]:end[p + 1]] for p in range(len(end) - 1)]


def solve_ones(inst, maxc, fewest=True):
    """A proper assignment with at most maxc weight-1 free edges.

    Returns (chosen_positions | None, nodes_visited).  Positions index the
    free-edge list.  With `fewest` the witness is the first by ascending
    popcount, ties lexicographic; without it, the decide walk's first
    completion (see above), and no popcount pass runs.
    """
    at = _groups(inst.pairs, inst.end)
    cap = min(maxc, len(inst.fu))
    path: list[int] = []
    found, nodes = _walk(inst, at, _groups(inst.twins, inst.tend), cap, True, path)
    if not found:
        return None, nodes
    if not fewest:
        return path[::-1], nodes
    chosen, more = _combinations(inst, at, cap)
    return chosen, nodes + more


def _combinations(inst, at, cap):
    """Combination mode below a root that passed: (positions | None, nodes)."""
    fu, fv, end = inst.fu, inst.fv, inst.end
    # A list, so that the last level's slices are lists: CPython 3.11 keeps
    # freed 20-element tuples on a free list that it never takes them back
    # from, so tuple slices here raised a process's peak RSS.
    pairs = list(inst.pairs)
    f = len(fu)
    colors = list(inst.colors)
    chosen: list[int] = []  # filled deepest first on success
    nodes = 0

    def place(start: int, remaining: int) -> bool:
        # Children of a passed node whose free positions below `start` are
        # decided and which has `remaining` weight-1 edges left to place.
        nonlocal nodes
        last = f - remaining
        for p in range(start, last + 1):
            u = fu[p]
            v = fv[p]
            cu = colors[u] + 1
            cv = colors[v] + 1
            colors[u] = cu
            colors[v] = cv
            if remaining == 1:
                for a, b in pairs[end[p]:]:
                    if colors[a] == colors[b]:
                        break
                else:
                    nodes += p - start + 1
                    chosen.append(p)
                    return True
            else:
                for a, b in at[p]:
                    if colors[a] == colors[b]:
                        break
                else:
                    if place(p + 1, remaining - 1):
                        nodes += p - start + 1
                        chosen.append(p)
                        return True
            colors[u] = cu - 1
            colors[v] = cv - 1
            for a, b in at[p]:
                if colors[a] == colors[b]:
                    nodes += last - start + 1
                    return False
        nodes += last - start + 1
        return False

    for c in range(min(inst.lo, cap), cap + 1):
        nodes += 1
        if c == 0:
            for a, b in pairs[end[0]:]:
                if colors[a] == colors[b]:
                    break
            else:
                return [], nodes
        elif place(0, c):
            return chosen[::-1], nodes
    return None, nodes


def count_all(inst):
    """Number of proper assignments over all 2^F completions."""
    return _walk(inst, _groups(inst.pairs, inst.end), _unordered(inst), len(inst.fu), False, [])


def exists_proper(inst):
    """Whether some completion is proper."""
    count, nodes = _walk(inst, _groups(inst.pairs, inst.end), _unordered(inst), len(inst.fu), True, [])
    return count > 0, nodes


def _unordered(inst):
    """Empty twin groups: count_all and exists_proper walk every order."""
    return [()] * len(inst.fu)


def _walk(inst, at, tw, cap, early, path):
    """(proper completions, nodes) of the binary walk with at most `cap`
    weight-1 free edges, failing a node that breaks the twin order of its
    group in `tw`; with `early` it stops at the first completion and lists
    that completion's weight-1 positions in `path`, deepest first."""
    fu, fv = inst.fu, inst.fv
    f = len(fu)
    last = f - 1
    colors = list(inst.colors)
    if any(colors[u] == colors[v] for u, v in inst.pairs[:inst.end[0]]):
        return 0, 1
    nodes = 1

    def walk(d: int, remaining: int) -> int:
        # Proper completions below a passed node whose positions below d are
        # decided, with at most `remaining` more weight-1 edges.
        nonlocal nodes
        q = d  # the weight-0 run: the weight-0 children at d..q-1 pass
        while q < f:
            for a, b in at[q]:
                if colors[a] == colors[b]:
                    break
            else:
                for a, b in tw[q]:
                    if colors[a] > colors[b]:
                        break
                else:
                    q += 1
                    continue
            break
        if q < f:  # the weight-0 child at q fails
            nodes += q - d + 1
            total = 0
        elif early:
            nodes += f - d
            return 1
        else:
            nodes += f - d
            total = 1
            q = last
        if not remaining:
            return total
        # the weight-1 children at q, q-1, ..., d; an early stop at p uncounts p-1..d
        nodes += q - d + 1
        p = q + 1
        while p > d:
            p -= 1
            u = fu[p]
            v = fv[p]
            cu = colors[u] + 1
            cv = colors[v] + 1
            colors[u] = cu
            colors[v] = cv
            for a, b in at[p]:
                if colors[a] == colors[b]:
                    break
            else:
                for a, b in tw[p]:
                    if colors[a] > colors[b]:
                        break
                else:
                    total += 1 if p == last else walk(p + 1, remaining - 1)
            colors[u] = cu - 1
            colors[v] = cv - 1
            if early and total:
                nodes -= p - d
                path.append(p)
                return total
        return total

    return walk(0, cap), nodes
