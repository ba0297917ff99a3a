"""The popcount enumeration of ``vcew._search_py.solve_ones`` before the
kernel decided with a capped walk first, kept verbatim as the reference of
the differential tests in test_oracle.py: the two-phase kernel must choose
the same positions.  "see above" refers to the kernel's module docstring
as it was then, which described ``at`` as a list of per-position groups.
"""

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


