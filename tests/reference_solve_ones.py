"""The popcount enumeration of ``vcew._search_py.solve_ones`` before the
kernel decided with a capped walk first, kept verbatim as the reference of
the differential tests in test_oracle.py: the two-phase kernel must choose
the same positions.  "see above" refers to the kernel's module docstring
as it was then, which described ``at`` as a list of per-position groups.
Only ``_settle_table`` is new: it derives the groups from the graph's edges
and the free positions, not from the settle table the instance carries, so
a wrong settle order in ``oracle._prepare`` still fails the comparison.
The per-vertex color bound tests went with the bounds that instances
carried; on an unbounded instance they never pruned.
"""

from itertools import accumulate


def _settle_table(inst):
    """The root group (edges with no free position at either endpoint) and
    ``at`` (see above), each group in canonical edge order."""
    last = [-1] * inst.n  # the last free position at each vertex
    for p, (u, v) in enumerate(zip(inst.fu, inst.fv)):
        last[u] = last[v] = p
    groups = [[] for _ in range(len(inst.fu) + 1)]
    for u, v in sorted(inst.pairs):  # the graph's edges in canonical order
        groups[max(last[u], last[v]) + 1].append((u, v))
    return tuple(groups[0]), [tuple(group) for group in groups[1:]]


def _root_ok(colors, root) -> bool:
    return all(colors[u] != colors[v] for u, v in root)


def solve_ones(inst, maxc):
    """First proper assignment with at most maxc weight-1 free edges.

    Returns (chosen_positions | None, nodes_visited).  Positions index the
    free-edge list; enumeration is by ascending popcount, ties lexicographic.
    """
    fu, fv = inst.fu, inst.fv
    f = len(fu)
    colors = list(inst.colors)
    root, at = _settle_table(inst)
    su = [u for group in (root, *at) for u, _ in group]
    sv = [v for group in (root, *at) for _, v in group]
    m = len(su)
    end = list(accumulate(map(len, at), initial=len(root)))
    root_ok = _root_ok(colors, root)
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


