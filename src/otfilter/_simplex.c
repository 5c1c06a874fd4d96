/* Transportation simplex for otfilter.transport, compiled at first use.
 *
 * This is otfilter.transport._transportation_simplex and
 * _initial_basic_solution in C, with the same pivot sequence and the same
 * floating-point operations; those Python functions are the specification.
 * Pricing is (c_ij - u_i) - v_j with the first index winning the argmin,
 * Bland's rule takes the first cell below -tol in row-major order, the
 * leaving cell is the smallest allocation with ties to the smallest flat
 * index, and every potential is one subtraction from its parent's along the
 * basis tree.  The tolerance, the Bland trigger and the iteration limit are
 * arguments, defined once in otfilter.transport.  Build with
 * -ffp-contract=off and never -ffast-math: a fused multiply-add or a
 * reassociated sum would change the pivots.
 *
 * The least-cost start keeps a heap of row heads, each row's cheapest cell
 * with both lines open.  A row's first head comes from one scan of the
 * row; a row gets a heap of its own columns only when it stays open past
 * that head, built then from the columns still open, so no n*m heap is
 * built up front.
 *
 * Nodes 0..n-1 are rows and n..n+m-1 columns.  The basis tree is rooted at
 * row 0; its n+m-1 edges are slots e holding one basic cell and its
 * allocation, and each slot has two half-edges (2e at the row end, 2e+1 at
 * the column end) linked into their node's adjacency list.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(__x86_64__)
#include <immintrin.h>
#define OTF_X86 1
#endif

int otf_has_avx2(void)
{
#ifdef OTF_X86
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

/* ---- least-cost start ------------------------------------------------- */

/* Min-heaps of int32 indices in (key[index], index) order.  Within a row,
 * keyed by the row's costs, that is the order of a stable argsort of the
 * flattened costs; so it is across rows, keyed by each row's head cost,
 * since a smaller row index means a smaller flat index.  -0.0 compares
 * equal to 0.0 there and here. */
static int before(const double *key, int32_t a, int32_t b)
{
    return key[a] < key[b] || (key[a] == key[b] && a < b);
}

static void sift_down(int32_t *heap, int size, int pos, const double *key)
{
    int32_t top = heap[pos];
    for (;;) {
        int child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && before(key, heap[child + 1], heap[child]))
            child++;
        if (!before(key, heap[child], top))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = top;
}

static void heapify(int32_t *heap, int size, const double *key)
{
    for (int pos = size / 2 - 1; pos >= 0; pos--)
        sift_down(heap, size, pos, key);
}

static void heap_pop(int32_t *heap, int *size, const double *key)
{
    heap[0] = heap[--*size];
    sift_down(heap, *size, 0, key);
}

/* The least-cost starting basis of _initial_basic_solution: the same n+m-1
 * cells in the same order, with the same allocations.  Each step takes the
 * smallest (cost, flat index) among cells whose row and column are open:
 * the top of a heap of row heads.  A row's first head is its cheapest cell,
 * found by one scan; a head whose column has closed is replaced when it
 * reaches the top.  Only a row that stays open past its first head gets a
 * heap of its own, built then from the columns still open.  Most rows
 * close at their first cell, so most rows never get one.  Returns the
 * number of cells, or -1 if memory runs out. */
int otf_least_cost_start(const double *cost, const double *supply, const double *demand,
                         int n, int m, int32_t *rows, int32_t *cols, double *alloc)
{
    /* Supplies, head costs, demands; the heap of row heads, head columns,
     * row heap sizes, open-column flags; each row's heap, or NULL. */
    double *s = malloc(sizeof(double) * (2 * (size_t)n + m));
    int32_t *heads = malloc(sizeof(int32_t) * (3 * (size_t)n + m));
    int32_t **row_heap = calloc(n, sizeof(int32_t *));
    int count = -1;
    if (!s || !heads || !row_heap)
        goto out;
    double *head_cost = s + n, *d = head_cost + n;
    int32_t *head_col = heads + n, *row_size = head_col + n, *col_open = row_size + n;

    for (int i = 0; i < n; i++) {
        const double *c = cost + (int64_t)i * m;
        int32_t best = 0;
        for (int32_t j = 1; j < m; j++)
            if (c[j] < c[best])
                best = j;
        heads[i] = i;
        head_col[i] = best;
        head_cost[i] = c[best];
        s[i] = supply[i];
    }
    for (int j = 0; j < m; j++) {
        d[j] = demand[j];
        col_open[j] = 1;
    }
    int size = n;
    heapify(heads, size, head_cost);

    int open_rows = n, open_cols = m;
    count = 0;
    while (open_rows + open_cols > 1 && size > 0) {
        int32_t i = heads[0], j = head_col[i];
        if (col_open[j]) {
            double si = s[i], dj = d[j];
            double q = si <= dj ? si : dj;
            rows[count] = i;
            cols[count] = j;
            alloc[count++] = q;
            int close_row = si <= dj;
            /* Never strand one side with lines still open on the other. */
            if (close_row && open_rows == 1 && open_cols > 1)
                close_row = 0;
            else if (!close_row && open_cols == 1 && open_rows > 1)
                close_row = 1;
            if (close_row) {
                s[i] = 0.0;
                d[j] = dj - q;
                open_rows--;
                heap_pop(heads, &size, head_cost);
            } else {
                d[j] = 0.0;
                s[i] = si - q;
                col_open[j] = 0;
                open_cols--;
            }
            continue;
        }
        /* The head's column is closed: move to the row's next open column.
         * Some column is open, so open_cols > 0 below: the loop runs while
         * more than one line is open, and the last column never closes
         * while two rows are open. */
        const double *c = cost + (int64_t)i * m;
        int32_t *row = row_heap[i];
        if (!row) {
            row = row_heap[i] = malloc(sizeof(int32_t) * open_cols);
            if (!row) {
                count = -1;
                goto out;
            }
            row_size[i] = 0;
            for (int32_t k = 0; k < m; k++)
                if (col_open[k])
                    row[row_size[i]++] = k;
            heapify(row, row_size[i], c);
        }
        while (row_size[i] > 0 && !col_open[row[0]])
            heap_pop(row, &row_size[i], c);
        if (row_size[i] == 0) {
            heap_pop(heads, &size, head_cost);
        } else {
            head_col[i] = row[0];
            head_cost[i] = c[row[0]];
            sift_down(heads, size, 0, head_cost);
        }
    }
out:
    if (row_heap)
        for (int i = 0; i < n; i++)
            free(row_heap[i]);
    free(row_heap);
    free(heads);
    free(s);
    return count;
}

/* ---- pricing ---------------------------------------------------------- */

/* Dantzig: the first cell with the smallest reduced cost. */
static int64_t price_scalar(const double *cost, const double *u, const double *v,
                            int n, int m, double *best_out)
{
    double best = INFINITY;
    int64_t enter = 0;
    for (int i = 0; i < n; i++) {
        const double *c = cost + (int64_t)i * m;
        double ui = u[i];
        for (int j = 0; j < m; j++) {
            double r = (c[j] - ui) - v[j];
            if (r < best) {
                best = r;
                enter = (int64_t)i * m + j;
            }
        }
    }
    *best_out = best;
    return enter;
}

#ifdef OTF_X86
/* The same choice: an exact AVX2 row minimum, then a rescan of the row for
 * the first cell equal to it, taken only if strictly below earlier rows'. */
__attribute__((target("avx2")))
static int64_t price_avx2(const double *cost, const double *u, const double *v,
                          int n, int m, double *best_out)
{
    double best = INFINITY;
    int64_t enter = 0;
    for (int i = 0; i < n; i++) {
        const double *c = cost + (int64_t)i * m;
        double ui = u[i];
        __m256d vu = _mm256_set1_pd(ui);
        /* Four independent minima keep the min latency off the critical path. */
        __m256d lo[4];
        for (int k = 0; k < 4; k++)
            lo[k] = _mm256_set1_pd(INFINITY);
        int j = 0;
        for (; j + 16 <= m; j += 16)
            for (int k = 0; k < 4; k++)
                lo[k] = _mm256_min_pd(lo[k], _mm256_sub_pd(_mm256_sub_pd(
                    _mm256_loadu_pd(c + j + 4 * k), vu), _mm256_loadu_pd(v + j + 4 * k)));
        for (; j + 4 <= m; j += 4)
            lo[0] = _mm256_min_pd(lo[0], _mm256_sub_pd(_mm256_sub_pd(
                _mm256_loadu_pd(c + j), vu), _mm256_loadu_pd(v + j)));
        double lanes[4], row_min = INFINITY;
        _mm256_storeu_pd(lanes, _mm256_min_pd(_mm256_min_pd(lo[0], lo[1]),
                                              _mm256_min_pd(lo[2], lo[3])));
        for (int k = 0; k < 4; k++)
            if (lanes[k] < row_min)
                row_min = lanes[k];
        for (; j < m; j++) {
            double r = (c[j] - ui) - v[j];
            if (r < row_min)
                row_min = r;
        }
        if (row_min < best) {
            for (j = 0; j + 1 < m && (c[j] - ui) - v[j] != row_min; j++)
                ;
            best = row_min;
            enter = (int64_t)i * m + j;
        }
    }
    *best_out = best;
    return enter;
}
#endif

/* Bland: the first cell in row-major order priced below -tol. */
static int64_t price_bland(const double *cost, const double *u, const double *v, int n, int m,
                           double tol)
{
    for (int i = 0; i < n; i++) {
        const double *c = cost + (int64_t)i * m;
        for (int j = 0; j < m; j++)
            if ((c[j] - u[i]) - v[j] < -tol)
                return (int64_t)i * m + j;
    }
    return -1;
}

/* ---- basis tree ------------------------------------------------------- */

typedef struct {
    int n, m;
    const double *cost;
    int32_t *head, *hnext, *hto; /* adjacency lists of half-edges */
    int64_t *cell;               /* per edge slot */
    double *flow;
    int32_t *parent, *pedge, *depth, *queue;
    double *pot;
} Tree;

static void link_half(Tree *t, int32_t h, int32_t owner, int32_t to)
{
    t->hto[h] = to;
    t->hnext[h] = t->head[owner];
    t->head[owner] = h;
}

/* A node's list is as long as its degree; one walk per pivot is cheap
 * next to pricing. */
static void unlink_half(Tree *t, int32_t h, int32_t owner)
{
    int32_t *p = &t->head[owner];
    while (*p != h)
        p = &t->hnext[*p];
    *p = t->hnext[h];
}

static void set_edge(Tree *t, int32_t e, int64_t cell, double flow)
{
    int32_t i = (int32_t)(cell / t->m), col = t->n + (int32_t)(cell % t->m);
    t->cell[e] = cell;
    t->flow[e] = flow;
    link_half(t, 2 * e, i, col);
    link_half(t, 2 * e + 1, col, i);
}

/* Set parent, edge, depth and potential of every node below top, whose own
 * fields must already be set: _hang_subtree. */
static void hang_subtree(Tree *t, int32_t top)
{
    int n = t->n, m = t->m, len = 1;
    t->queue[0] = top;
    for (int k = 0; k < len; k++) {
        int32_t y = t->queue[k];
        for (int32_t h = t->head[y]; h >= 0; h = t->hnext[h]) {
            int32_t z = t->hto[h];
            if (z == t->parent[y])
                continue;
            t->parent[z] = y;
            t->pedge[z] = h >> 1;
            t->depth[z] = t->depth[y] + 1;
            double c = y < n ? t->cost[(int64_t)y * m + (z - n)] : t->cost[(int64_t)z * m + (y - n)];
            t->pot[z] = c - t->pot[y];
            t->queue[len++] = z;
        }
    }
}

/* ---- the simplex ------------------------------------------------------ */

/* _transportation_simplex.  Reduced costs of at least -tol count as optimal,
 * and bland_trigger consecutive degenerate pivots switch to Bland's rule.
 * Writes the basic allocations into alloc, which must hold n*m zeros, and
 * returns 0; or returns 1 after max_iterations pivots with the smallest
 * reduced cost in *min_reduced; or -1 if memory runs out. */
int otf_transport_simplex(const double *cost, const double *supply, const double *demand,
                          int n, int m, double tol, int64_t bland_trigger,
                          int64_t max_iterations, int avx2, double *alloc, double *min_reduced)
{
    int nodes = n + m, edges = n + m - 1, status = -1;
    Tree t = {.n = n, .m = m, .cost = cost};
    int32_t *ints = malloc(sizeof(int32_t) * (7 * (size_t)nodes + 6 * (size_t)edges));
    double *reals = malloc(sizeof(double) * (nodes + 2 * (size_t)edges));
    t.cell = malloc(sizeof(int64_t) * edges);
    if (!ints || !reals || !t.cell)
        goto out;
    t.head = ints;
    t.parent = t.head + nodes;
    t.pedge = t.parent + nodes;
    t.depth = t.pedge + nodes;
    t.queue = t.depth + nodes;
    int32_t *side_a = t.queue + nodes, *side_b = side_a + nodes;
    t.hnext = side_b + nodes;
    t.hto = t.hnext + 2 * edges;
    int32_t *rows = t.hto + 2 * edges, *cols = rows + edges;
    t.pot = reals;
    t.flow = t.pot + nodes;
    double *start = t.flow + edges;
    if (otf_least_cost_start(cost, supply, demand, n, m, rows, cols, start) != edges)
        goto out;

    for (int x = 0; x < nodes; x++)
        t.head[x] = -1;
    for (int e = 0; e < edges; e++)
        set_edge(&t, e, (int64_t)rows[e] * m + cols[e], start[e]);
    t.parent[0] = -1;
    t.pedge[0] = -1;
    t.depth[0] = 0;
    t.pot[0] = 0.0;
    hang_subtree(&t, 0);
    const double *u = t.pot, *v = t.pot + n;

    int64_t degenerate_streak = 0;
    int use_bland = 0;
    for (int64_t it = 0; it < max_iterations; it++) {
        int64_t enter;
        if (use_bland) {
            enter = price_bland(cost, u, v, n, m, tol);
            if (enter < 0)
                goto optimal;
        } else {
            double best;
#ifdef OTF_X86
            enter = avx2 ? price_avx2(cost, u, v, n, m, &best) : price_scalar(cost, u, v, n, m, &best);
#else
            enter = price_scalar(cost, u, v, n, m, &best);
#endif
            if (best >= -tol)
                goto optimal;
        }
        int32_t ei = (int32_t)(enter / m), ej = (int32_t)(enter % m);

        /* The cycle: the entering cell plus the tree path between its row
         * and column, walked up to their common ancestor. */
        int32_t a = ei, b = n + ej;
        int na = 0, nb = 0;
        while (t.depth[a] > t.depth[b]) {
            side_a[na++] = a;
            a = t.parent[a];
        }
        while (t.depth[b] > t.depth[a]) {
            side_b[nb++] = b;
            b = t.parent[b];
        }
        while (a != b) {
            side_a[na++] = a;
            a = t.parent[a];
            side_b[nb++] = b;
            b = t.parent[b];
        }

        /* A cell is a minus cell when the lower node is a row on ei's side
         * or a column on ej's side. */
        double theta = INFINITY;
        int64_t leave = -1;
        int32_t leave_node = -1;
        int leave_on_a = 0;
        for (int on_a = 1; on_a >= 0; on_a--) {
            const int32_t *side = on_a ? side_a : side_b;
            for (int k = 0, len = on_a ? na : nb; k < len; k++) {
                int32_t x = side[k], e = t.pedge[x];
                if ((x < n) != on_a)
                    continue;
                double f = t.flow[e];
                if (f < theta || (f == theta && t.cell[e] < leave)) {
                    theta = f;
                    leave = t.cell[e];
                    leave_node = x;
                    leave_on_a = on_a;
                }
            }
        }
        for (int on_a = 1; on_a >= 0; on_a--) {
            const int32_t *side = on_a ? side_a : side_b;
            for (int k = 0, len = on_a ? na : nb; k < len; k++) {
                int32_t x = side[k], e = t.pedge[x];
                if ((x < n) != on_a)
                    t.flow[e] += theta;
                else
                    t.flow[e] -= theta;
            }
        }
        /* An entering cell already in the basis is its own cycle: it stays,
         * with its allocation zeroed above. */
        if (leave != enter) {
            int32_t e = t.pedge[leave_node], above = t.parent[leave_node];
            int32_t row_end = leave_node < n ? leave_node : above;
            unlink_half(&t, 2 * e, row_end);
            unlink_half(&t, 2 * e + 1, row_end == leave_node ? above : leave_node);
            set_edge(&t, e, enter, theta);
            int32_t top = leave_on_a ? ei : n + ej, hook = leave_on_a ? n + ej : ei;
            t.parent[top] = hook;
            t.pedge[top] = e;
            t.depth[top] = t.depth[hook] + 1;
            t.pot[top] = cost[enter] - t.pot[hook];
            hang_subtree(&t, top);
        }

        if (theta <= 0.0) {
            if (++degenerate_streak >= bland_trigger)
                use_bland = 1;
        } else {
            degenerate_streak = 0;
            use_bland = 0;
        }
    }
    price_scalar(cost, u, v, n, m, min_reduced);
    status = 1;
    goto out;
optimal:
    for (int e = 0; e < edges; e++)
        alloc[t.cell[e]] = t.flow[e];
    status = 0;
out:
    free(ints);
    free(reals);
    free(t.cell);
    return status;
}
