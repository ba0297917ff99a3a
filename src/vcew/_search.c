/*
 * Compiled search kernel: the line-for-line twin of solve_ones in
 * vcew/_search_py.py, whose docstring describes the search tree, its order,
 * its pruning and its node count for both kernels.  walk_root and walk are
 * the decide walk (_walk and its nested walk, always in twin order), which
 * writes its first completion's weight-1 positions into chosen; place is
 * the nested place of _combinations, whose popcount passes run only when
 * the record's fewest flag is set and then overwrite chosen with the
 * fewest-ones witness; conflict, misordered, take and untake are the group
 * tests and color bumps those loops make inline.
 * Beyond the prepared instance the record holds only the colors along the
 * search path, the node count and the fewest flag; there is no per-vertex
 * color ceiling, so a node is pruned on an equal-color settled edge, or in
 * the walk a twin pair out of order, only.  There is no Python API:
 * vcew/_search_c.py fills a Search record through ctypes and calls
 * solve_ones at the end of this file.  README.md ("Install") says how to
 * build it.
 */

/* One prepared instance, filled by the caller.  colors holds the start
 * colors on entry and is changed by the search. */
typedef struct {
    int m, f;             /* edges, free edges */
    int lo;               /* popcount floor: no proper completion has fewer ones */
    const int *pu, *pv;   /* the q-th edge to settle joins pu[q] and pv[q] */
    const int *fu, *fv;   /* free position p joins fu[p] and fv[p] */
    const int *end;       /* end[p]: first edge settling at position p or later */
    const int *tu, *tv;   /* the t-th twin pair in order-check order */
    const int *tend;      /* tend[p]: first twin pair checked at position p or later */
    long long *colors;    /* per vertex */
    long long nodes;      /* search nodes visited */
    int fewest;           /* 1: the popcount passes pick the witness; 0: the walk's path is it */
} Search;

/* sizeof(Search), which vcew/_search_c.py checks against its mirror. */
int search_record_size(void)
{
    return (int)sizeof(Search);
}

/* Whether some edge of pairs[lo:hi] has equal endpoint colors. */
static int conflict(const Search *s, int lo, int hi)
{
    for (int q = lo; q < hi; q++)
        if (s->colors[s->pu[q]] == s->colors[s->pv[q]])
            return 1;
    return 0;
}

/* Whether a twin pair checked at p has color(tu) > color(tv). */
static int misordered(const Search *s, int p)
{
    for (int t = s->tend[p]; t < s->tend[p + 1]; t++)
        if (s->colors[s->tu[t]] > s->colors[s->tv[t]])
            return 1;
    return 0;
}

/* Whether the child that decides p fails in the walk: an equal-color pair
 * in the group it settles or a twin pair out of order. */
static int fails(const Search *s, int p)
{
    return conflict(s, s->end[p], s->end[p + 1]) || misordered(s, p);
}

/* Give free edge p weight 1. */
static void take(Search *s, int p)
{
    s->colors[s->fu[p]]++;
    s->colors[s->fv[p]]++;
}

/* Undo take(s, p). */
static void untake(Search *s, int p)
{
    s->colors[s->fu[p]]--;
    s->colors[s->fv[p]]--;
}

/* Children of a passed node whose free positions below start are decided and
 * which has `remaining` weight-1 edges left to place; on success the chosen
 * positions are written from chosen on, shallowest first. */
static int place(Search *s, int start, int remaining, int *chosen)
{
    int last = s->f - remaining;
    for (int p = start; p <= last; p++) {
        take(s, p);
        if (remaining == 1 ? !conflict(s, s->end[p], s->m)
                : !conflict(s, s->end[p], s->end[p + 1]) && place(s, p + 1, remaining - 1, chosen + 1)) {
            s->nodes += p - start + 1;
            *chosen = p;
            return 1;
        }
        untake(s, p);
        if (conflict(s, s->end[p], s->end[p + 1]))
            break;
    }
    s->nodes += last - start + 1;
    return 0;
}

/* The first proper completion in twin order below a passed node whose
 * positions below d are decided, with at most `remaining` more weight-1
 * edges: writes its weight-1 positions from chosen on, shallowest first,
 * and returns how many, or -1 when there is none. */
static int walk(Search *s, int d, int remaining, int *chosen)
{
    int f = s->f, q = d;  /* the weight-0 run: the weight-0 children at d..q-1 pass */
    while (q < f && !fails(s, q))
        q++;
    if (q == f) {
        s->nodes += f - d;
        return 0;
    }
    s->nodes += q - d + 1;  /* the weight-0 child at q fails */
    if (!remaining)
        return -1;
    /* the weight-1 children at q, q-1, ..., d; a hit at p uncounts p-1..d */
    s->nodes += q - d + 1;
    for (int p = q; p >= d; p--) {
        take(s, p);
        int below = fails(s, p) ? -1 : p == f - 1 ? 0 : walk(s, p + 1, remaining - 1, chosen + 1);
        untake(s, p);
        if (below >= 0) {
            s->nodes -= p - d;
            *chosen = p;
            return below + 1;
        }
    }
    return -1;
}

/* The decide walk from the root with at most cap weight-1 free edges. */
static int walk_root(Search *s, int cap, int *chosen)
{
    s->nodes = 1;
    return conflict(s, 0, s->end[0]) ? -1 : walk(s, 0, cap, chosen);
}

/* A proper assignment with at most maxc weight-1 free edges: with fewest the
 * first by ascending count, ties lexicographic, else the walk's first
 * completion.  Writes the chosen free positions to chosen (room for f) and
 * returns how many, or -1 when there is none. */
int solve_ones(Search *s, int maxc, int *chosen)
{
    int cap = maxc < s->f ? maxc : s->f;
    int found = walk_root(s, cap, chosen);
    if (found < 0 || !s->fewest)
        return found;
    for (int c = s->lo < cap ? s->lo : cap; c <= cap; c++) {
        s->nodes++;
        if (c == 0 ? !conflict(s, s->end[0], s->m) : place(s, 0, c, chosen))
            return c;
    }
    return -1;
}
