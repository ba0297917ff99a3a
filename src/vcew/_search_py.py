"""Pure-Python search kernel for exhaustive {0,1} weighting enumeration.

This is the reference kernel and the fallback of vcew.oracle.  Its compiled
twin, _search.c (loaded through vcew._search_c), follows the same steps, so
both return the same witnesses, counts and node counts; vcew.oracle uses the
compiled one whenever its shared library sits next to the package.  Every
traversal takes an ``oracle.SearchInstance`` and returns
``(value, nodes visited)``.

Shared machinery
----------------
The kernel enumerates assignments to the F "free" (not pre-weighted) edges.
It maintains, incrementally along the search path:

* ``colors[v]``: the induced color of v under the decided prefix plus the
  pre-weighting (undecided free edges contribute 0, matching the candidate
  each leaf represents).
* a "settled" edge counter: a graph edge is settled once every free edge
  incident to one of its endpoints has been decided; its endpoint colors can
  no longer change in the current subtree, so an equal-color settled edge
  prunes the subtree.  ``skey[j]`` is the largest free-edge position
  incident to edge j's endpoints (-1 when there is none); edges settle in
  ``sorder`` (sorted by key) as the decided prefix grows.
* ``over``: the number of vertices whose color exceeds its upper bound.
  Colors only grow along a path, so over > 0 prunes.

Two traversal modes:

* combination mode (solve_ones): candidates with exactly c weight-1 free
  edges, in lexicographic order of the chosen position tuples, for
  c = 0, 1, ..., maxc.  The first proper candidate is returned, which makes
  witnesses deterministic.
* binary mode (count_all / exists_proper): full 0/1 tree over free edges,
  used where enumeration order does not matter.
"""

from __future__ import annotations


def solve_ones(inst, maxc):
    """First proper assignment with at most maxc weight-1 free edges.

    Returns (chosen_positions | None, nodes_visited).  Positions index the
    free-edge list; enumeration is by ascending popcount, ties lexicographic.
    """
    m, eu, ev, fu, fv, sorder = inst.m, inst.eu, inst.ev, inst.fu, inst.fv, inst.sorder
    f = len(fu)
    state = _State(inst)
    colors = state.colors
    chosen: list[int] = []

    def dfs(start: int, remaining: int) -> bool:
        state.nodes += 1
        if state.sconf or state.over:
            return False
        if remaining == 0:
            q = state.ptr
            while q < m:
                j = sorder[q]
                if colors[eu[j]] == colors[ev[j]]:
                    return False
                q += 1
            return True
        for p in range(start, f - remaining + 1):
            state.bump_up(fu[p])
            state.bump_up(fv[p])
            old = state.ptr
            state.settle(p)
            chosen.append(p)
            if dfs(p + 1, remaining - 1):
                return True
            chosen.pop()
            state.unsettle(old)
            state.bump_down(fv[p])
            state.bump_down(fu[p])
        return False

    top = min(maxc, f)
    for c in range(top + 1):
        if dfs(0, c):
            return list(chosen), state.nodes
    return None, state.nodes


def count_all(inst):
    """Number of proper assignments over all 2^F completions."""
    return _binary_walk(inst, early=False)


def exists_proper(inst):
    """Whether some proper completion respects the per-vertex color bounds."""
    count, nodes = _binary_walk(inst, early=True)
    return count > 0, nodes


class _State:
    __slots__ = ("m", "sorder", "skey", "colors", "bounds", "eu", "ev", "ptr", "sconf", "over", "nodes")

    def __init__(self, inst):
        self.m = inst.m
        self.sorder = inst.sorder
        self.skey = inst.skey
        self.colors = colors = list(inst.colors)
        self.bounds = bounds = inst.bounds
        self.eu = inst.eu
        self.ev = inst.ev
        self.ptr = 0
        self.sconf = 0
        self.over = sum(1 for v in range(inst.n) if colors[v] > bounds[v])
        self.nodes = 0
        self.settle(-1)

    def settle(self, p: int) -> None:
        sorder, skey, colors = self.sorder, self.skey, self.colors
        eu, ev = self.eu, self.ev
        ptr = self.ptr
        while ptr < self.m:
            j = sorder[ptr]
            if skey[j] > p:
                break
            if colors[eu[j]] == colors[ev[j]]:
                self.sconf += 1
            ptr += 1
        self.ptr = ptr

    def unsettle(self, old: int) -> None:
        # Settled endpoint colors are frozen, so re-comparing reverses exactly.
        sorder, colors = self.sorder, self.colors
        eu, ev = self.eu, self.ev
        ptr = self.ptr
        while ptr > old:
            ptr -= 1
            j = sorder[ptr]
            if colors[eu[j]] == colors[ev[j]]:
                self.sconf -= 1
        self.ptr = ptr

    def bump_up(self, v: int) -> None:
        c = self.colors[v]
        if c == self.bounds[v]:
            self.over += 1
        self.colors[v] = c + 1

    def bump_down(self, v: int) -> None:
        c = self.colors[v] - 1
        self.colors[v] = c
        if c == self.bounds[v]:
            self.over -= 1


def _binary_walk(inst, early):
    fu, fv = inst.fu, inst.fv
    f = len(fu)
    state = _State(inst)

    def walk(d: int) -> int:
        state.nodes += 1
        if state.sconf or state.over:
            return 0
        if d == f:
            return 1
        # weight 0
        old = state.ptr
        state.settle(d)
        total = walk(d + 1)
        state.unsettle(old)
        if early and total:
            return total
        # weight 1
        state.bump_up(fu[d])
        state.bump_up(fv[d])
        old = state.ptr
        state.settle(d)
        total += walk(d + 1)
        state.unsettle(old)
        state.bump_down(fv[d])
        state.bump_down(fu[d])
        return total

    return walk(0), state.nodes
