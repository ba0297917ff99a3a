"""The reference for ``solve_ones`` with ``fewest=False``: the decide walk's
first completion, the lexicographically least 0/1 vector over the free
positions (0 before 1, earlier positions first) that is proper, keeps every
twin class's colours ascending by id, and has at most the cap of ones.

It is built from the graph, the pre-weights and the definition of twins,
not from the settle and twin tables that ``oracle._prepare`` builds, and it
shares no code with the kernels.  Its depth-first enumeration in that order
cuts a prefix only once one of its constraints is final (no free edge at
either end of the edge or twin pair is undecided) and broken, so the first
vector it completes is the least one.
"""


def _twins(g, pre, last):
    """Every pair a < b of twins: both have a free edge, any edge ab is free,
    and every other vertex is joined to both the same way (not at all, free,
    or pre-weighted with one value)."""
    joined = {e: pre.get(e, "free") for e in g.edges}

    def how(a, b):
        return joined.get((min(a, b), max(a, b)))

    touched = [v for v in range(g.vertex_count) if last[v] >= 0]
    return [
        (a, b)
        for i, a in enumerate(touched)
        for b in touched[i + 1:]
        if how(a, b) in (None, "free")
        and all(how(a, x) == how(b, x) for x in range(g.vertex_count) if x not in (a, b))
    ]


def first_completion(g, pre, maxc):
    """The weight-1 free positions of the least such vector, or None.
    Positions index the free edges in canonical order."""
    free = [e for e in g.edges if e not in pre]
    f = len(free)
    cap = min(maxc, f)
    last = [-1] * g.vertex_count  # the last free position at each vertex
    for p, (u, v) in enumerate(free):
        last[u] = last[v] = p
    # final[p + 1] holds the constraints that are final once p is decided,
    # final[0] those with no free edge at either end
    final = [[] for _ in range(f + 1)]
    for u, v in g.edges:
        final[max(last[u], last[v]) + 1].append((u, v, False))
    for a, b in _twins(g, pre, last):
        final[max(last[a], last[b]) + 1].append((a, b, True))
    colors = [0] * g.vertex_count
    for (u, v), value in pre.items():
        colors[u] += value
        colors[v] += value
    chosen = []

    def holds(group):
        return all(colors[a] <= colors[b] if twin else colors[a] != colors[b] for a, b, twin in group)

    def extend(p):
        # the least valid completion of the decided positions below p
        if not holds(final[p]):
            return False
        if p == f:
            return True
        if extend(p + 1):  # weight 0 first
            return True
        if len(chosen) == cap:
            return False
        u, v = free[p]
        colors[u] += 1
        colors[v] += 1
        chosen.append(p)
        if extend(p + 1):
            return True
        chosen.pop()
        colors[u] -= 1
        colors[v] -= 1
        return False

    return chosen if extend(0) else None
