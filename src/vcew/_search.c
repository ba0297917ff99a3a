/*
 * Compiled twin of vcew/_search_py.py, which documents the algorithm.  The two
 * kernels share the search tree, its order (ascending weight-1 count with
 * lexicographic ties; weight 0 before weight 1), the pruning rules (a bound
 * exceeded, an equal-color settled edge) and what counts as a node, so both
 * return the same witnesses, counts and node counts.  They differ in
 * bookkeeping only: this file keeps a settle pointer into sorder and a
 * conflict counter, pruning on entry to a node and unsettling on the way
 * back; the Python kernel tests each child against a per-position settle
 * table before entering it.  There is no Python API: vcew/_search_c.py fills
 * a Search record through ctypes and calls the three traversals at the end of
 * this file.  README.md ("Install") says how to build it.
 */

/* One prepared instance (the first eleven fields, filled by the caller) and
 * the incremental search state.  colors is working storage: it holds the
 * start colors on entry and is changed by the walk. */
typedef struct {
    int n, m, f;              /* vertices, edges, free edges */
    const int *eu, *ev;       /* edge j joins eu[j] and ev[j] */
    const int *fu, *fv;       /* free position p joins fu[p] and fv[p] */
    const int *sorder;        /* edges in settle order */
    const int *skey;          /* last free position touching edge j's endpoints */
    long long *colors;
    const long long *bounds;  /* per-vertex color ceiling */
    int ptr;                  /* settled prefix of sorder */
    int sconf;                /* settled edges with equal endpoint colors */
    int over;                 /* vertices above their bound */
    long long nodes;          /* search nodes visited */
} Search;

static void settle(Search *s, int p)
{
    while (s->ptr < s->m) {
        int j = s->sorder[s->ptr];
        if (s->skey[j] > p)
            break;
        if (s->colors[s->eu[j]] == s->colors[s->ev[j]])
            s->sconf++;
        s->ptr++;
    }
}

/* Settled endpoint colors are frozen, so re-comparing reverses exactly. */
static void unsettle(Search *s, int old)
{
    while (s->ptr > old) {
        int j = s->sorder[--s->ptr];
        if (s->colors[s->eu[j]] == s->colors[s->ev[j]])
            s->sconf--;
    }
}

static void bump_up(Search *s, int v)
{
    if (s->colors[v] == s->bounds[v])
        s->over++;
    s->colors[v]++;
}

static void bump_down(Search *s, int v)
{
    if (--s->colors[v] == s->bounds[v])
        s->over--;
}

/* Give free edge p weight 1 and settle the edges it closes; returns the old
 * settle pointer for untake. */
static int take(Search *s, int p)
{
    int old = s->ptr;
    bump_up(s, s->fu[p]);
    bump_up(s, s->fv[p]);
    settle(s, p);
    return old;
}

static void untake(Search *s, int p, int old)
{
    unsettle(s, old);
    bump_down(s, s->fv[p]);
    bump_down(s, s->fu[p]);
}

static void start(Search *s)
{
    s->ptr = s->sconf = s->over = 0;
    s->nodes = 0;
    for (int v = 0; v < s->n; v++)
        if (s->colors[v] > s->bounds[v])
            s->over++;
    settle(s, -1);
}

static int combo(Search *s, int first, int remaining, int *chosen)
{
    s->nodes++;
    if (s->sconf || s->over)
        return 0;
    if (remaining == 0) {
        for (int q = s->ptr; q < s->m; q++) {
            int j = s->sorder[q];
            if (s->colors[s->eu[j]] == s->colors[s->ev[j]])
                return 0;
        }
        return 1;
    }
    for (int p = first; p <= s->f - remaining; p++) {
        int old = take(s, p);
        *chosen = p;
        if (combo(s, p + 1, remaining - 1, chosen + 1))
            return 1;
        untake(s, p, old);
    }
    return 0;
}

static long long walk(Search *s, int d, int early)
{
    s->nodes++;
    if (s->sconf || s->over)
        return 0;
    if (d == s->f)
        return 1;
    int old = s->ptr;
    settle(s, d);
    long long total = walk(s, d + 1, early);
    unsettle(s, old);
    if (early && total)
        return total;
    old = take(s, d);
    total += walk(s, d + 1, early);
    untake(s, d, old);
    return total;
}

/* First proper assignment with at most maxc weight-1 free edges, by ascending
 * count, ties lexicographic.  Writes the chosen free positions to chosen
 * (room for f) and returns how many, or -1 when there is none. */
int solve_ones(Search *s, int maxc, int *chosen)
{
    start(s);
    for (int c = 0; c <= maxc && c <= s->f; c++)
        if (combo(s, 0, c, chosen))
            return c;
    return -1;
}

/* Number of proper assignments over all 2^f completions. */
long long count_all(Search *s)
{
    start(s);
    return walk(s, 0, 0);
}

/* Whether some proper completion respects the per-vertex color bounds. */
int exists_proper(Search *s)
{
    start(s);
    return walk(s, 0, 1) > 0;
}
