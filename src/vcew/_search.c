/*
 * Compiled search kernel: the line-for-line twin of vcew/_search_py.py, whose
 * docstring describes the search tree, its order, its pruning and its node
 * count for both kernels.  walk_root and walk are _walk and its nested walk,
 * place is the nested place of _combinations, and conflict, take and untake
 * are the group tests and color bumps those loops make inline.  Beyond the
 * prepared instance the record holds only the colors along the search path
 * and the node count; there is no per-vertex color ceiling, so a node is
 * pruned on an equal-color settled edge only.  There is no Python API:
 * vcew/_search_c.py fills a Search record through ctypes and calls the three
 * entry points at the end of this file.  README.md ("Install") says how to
 * build it.
 */

/* One prepared instance, filled by the caller.  colors holds the start
 * colors on entry and is changed by the search. */
typedef struct {
    int m, f;             /* edges, free edges */
    const int *pu, *pv;   /* the q-th edge to settle joins pu[q] and pv[q] */
    const int *fu, *fv;   /* free position p joins fu[p] and fv[p] */
    const int *end;       /* end[p]: first edge settling at position p or later */
    long long *colors;    /* per vertex */
    long long nodes;      /* search nodes visited */
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

/* Proper completions below a passed node whose positions below d are
 * decided, with at most `remaining` more weight-1 edges; with `early` it
 * stops at the first one. */
static long long walk(Search *s, int d, int remaining, int early)
{
    int f = s->f, q = d;  /* the weight-0 run: the weight-0 children at d..q-1 pass */
    long long total = 0;
    while (q < f && !conflict(s, s->end[q], s->end[q + 1]))
        q++;
    if (q < f) {  /* the weight-0 child at q fails */
        s->nodes += q - d + 1;
    } else {
        s->nodes += f - d;
        if (early)
            return 1;
        total = 1;
        q = f - 1;
    }
    if (!remaining)
        return total;
    /* the weight-1 children at q, q-1, ..., d; an early stop at p uncounts p-1..d */
    s->nodes += q - d + 1;
    for (int p = q; p >= d; p--) {
        take(s, p);
        if (!conflict(s, s->end[p], s->end[p + 1]))
            total += p == f - 1 ? 1 : walk(s, p + 1, remaining - 1, early);
        untake(s, p);
        if (early && total) {
            s->nodes -= p - d;
            return total;
        }
    }
    return total;
}

/* The binary walk from the root with at most cap weight-1 free edges. */
static long long walk_root(Search *s, int cap, int early)
{
    s->nodes = 1;
    if (conflict(s, 0, s->end[0]))
        return 0;
    return walk(s, 0, cap, early);
}

/* First proper assignment with at most maxc weight-1 free edges, by ascending
 * count, ties lexicographic.  Writes the chosen free positions to chosen
 * (room for f) and returns how many, or -1 when there is none. */
int solve_ones(Search *s, int maxc, int *chosen)
{
    int cap = maxc < s->f ? maxc : s->f;
    if (!walk_root(s, cap, 1))
        return -1;
    for (int c = 0; c <= cap; c++) {
        s->nodes++;
        if (c == 0 ? !conflict(s, s->end[0], s->m) : place(s, 0, c, chosen))
            return c;
    }
    return -1;
}

/* Number of proper assignments over all 2^f completions. */
long long count_all(Search *s)
{
    return walk_root(s, s->f, 0);
}

/* Whether some completion is proper. */
int exists_proper(Search *s)
{
    return walk_root(s, s->f, 1) > 0;
}
