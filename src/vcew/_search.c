/*
 * Compiled twin of vcew/_search_py.py, which documents the algorithm.  The two
 * kernels share the search tree, its order (ascending weight-1 count with
 * lexicographic ties; weight 0 before weight 1), the pruning rules (a bound
 * exceeded, an equal-color settled edge) and what counts as a node, so both
 * return the same witnesses, counts and node counts.  solve_ones has the same
 * two phases: a binary walk capped at maxc weight-1 edges decides, and only
 * when it finds a proper completion do the popcount passes run to pick the
 * witness; its node count is the walk's plus the passes'.  Both walks follow
 * a run of weight-0 children in a loop and recurse only on weight 1.  The
 * kernels read the same settle table, built by oracle._prepare, and differ
 * in bookkeeping only: this file keeps a settle pointer into it and a conflict
 * counter, pruning on entry to a node and unsettling on the way back; the
 * Python kernel tests each child against the group of edges its decision
 * settles before entering it.  There is no Python API: vcew/_search_c.py
 * fills a Search record through ctypes and calls the three traversals at the
 * end of this file.  README.md ("Install") says how to build it.
 */

/* One prepared instance (the first ten fields, filled by the caller) and
 * the incremental search state.  colors is working storage: it holds the
 * start colors on entry and is changed by the walk. */
typedef struct {
    int n, m, f;              /* vertices, edges, free edges */
    const int *pu, *pv;       /* the q-th edge to settle joins pu[q] and pv[q] */
    const int *fu, *fv;       /* free position p joins fu[p] and fv[p] */
    const int *end;           /* end[p]: first edge settling at position p or later */
    long long *colors;
    const long long *bounds;  /* per-vertex color ceiling */
    int ptr;                  /* edges settled: the first ptr of pu, pv */
    int sconf;                /* settled edges with equal endpoint colors */
    int over;                 /* vertices above their bound */
    long long nodes;          /* search nodes visited */
} Search;

/* Settle the edges whose last free position is at most p; p = -1 settles
 * those with none. */
static void settle(Search *s, int p)
{
    for (; s->ptr < s->end[p + 1]; s->ptr++)
        if (s->colors[s->pu[s->ptr]] == s->colors[s->pv[s->ptr]])
            s->sconf++;
}

/* Unsettle the edges that settle at position k or later, leaving those
 * settled once the positions below k are decided.  Settled endpoint colors
 * are frozen, so re-comparing reverses exactly. */
static void unsettle(Search *s, int k)
{
    while (s->ptr > s->end[k]) {
        s->ptr--;
        if (s->colors[s->pu[s->ptr]] == s->colors[s->pv[s->ptr]])
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

/* Give free edge p weight 1 and settle the edges it closes. */
static void take(Search *s, int p)
{
    bump_up(s, s->fu[p]);
    bump_up(s, s->fv[p]);
    settle(s, p);
}

/* Undo take(s, p) and unsettle back to the edges settled before position k. */
static void untake(Search *s, int p, int k)
{
    unsettle(s, k);
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
        for (int q = s->ptr; q < s->m; q++)
            if (s->colors[s->pu[q]] == s->colors[s->pv[q]])
                return 0;
        return 1;
    }
    for (int p = first; p <= s->f - remaining; p++) {
        take(s, p);
        *chosen = p;
        if (combo(s, p + 1, remaining - 1, chosen + 1))
            return 1;
        untake(s, p, first);
    }
    return 0;
}

/* Proper completions below a node that passed, whose positions below d are
 * decided and settled, with at most `remaining` more weight-1 edges; with
 * `early` it stops at the first one.  Like the Python kernel it follows the
 * run of weight-0 children in a loop, then tries the run's weight-1 children
 * deepest first, which is the weight-0-first order, and recurses only into
 * those: the depth stays at most the cap plus one.  It returns with the
 * state it was entered with. */
static long long walk(Search *s, int d, int remaining, int early)
{
    long long total = 0;
    int q;
    for (q = d; q < s->f; q++) {  /* the weight-0 child at q */
        s->nodes++;
        settle(s, q);
        if (s->sconf)
            break;
    }
    if (q == s->f) {  /* every position decided: a proper completion */
        total = 1;
        q = s->f - 1;
    }
    /* the weight-1 children at q, q - 1, ..., d */
    for (int p = q; p >= d && remaining && !(early && total); p--) {
        unsettle(s, p);
        s->nodes++;
        take(s, p);
        if (!s->sconf && !s->over)
            total += p + 1 == s->f ? 1 : walk(s, p + 1, remaining - 1, early);
        untake(s, p, p);
    }
    unsettle(s, d);
    return total;
}

/* The walk from the root with at most cap weight-1 edges. */
static long long walk_root(Search *s, int cap, int early)
{
    s->nodes++;
    if (s->sconf || s->over)
        return 0;
    return walk(s, 0, cap, early);
}

/* First proper assignment with at most maxc weight-1 free edges, by ascending
 * count, ties lexicographic.  Writes the chosen free positions to chosen
 * (room for f) and returns how many, or -1 when there is none.  The capped
 * walk decides first, so a no-instance runs no combination pass. */
int solve_ones(Search *s, int maxc, int *chosen)
{
    start(s);
    if (!walk_root(s, maxc, 1))
        return -1;
    for (int c = 0; c <= maxc && c <= s->f; c++)
        if (combo(s, 0, c, chosen))
            return c;
    return -1;
}

/* Number of proper assignments over all 2^f completions. */
long long count_all(Search *s)
{
    start(s);
    return walk_root(s, s->f, 0);
}

/* Whether some proper completion respects the per-vertex color bounds. */
int exists_proper(Search *s)
{
    start(s);
    return walk_root(s, s->f, 1) > 0;
}
