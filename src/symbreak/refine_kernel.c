/* Native refinement kernels for symbreak.refine.
 *
 * `refine` is a line-for-line port of the reference kernel
 * `_refine_kernel` in refine.py, and `rollback` does what
 * `_rollback_kernel` does there.  Both pairs must give identical
 * colorings and identical journals; the tests compare them on random
 * graphs.
 *
 * All arrays are C-contiguous with the dtypes named in the signatures.
 * The journal arrays jd and jl hold 3 rows of `jstride` entries each
 * (order slots, color by vertex, clen by slot), and jc holds the 3 row
 * lengths.  `pos` is not journaled: a vertex whose pos was written has
 * left its base slot, which the order row logged, so `rollback` rebuilds
 * pos from the logged order slots.  There are no bounds checks in
 * `refine` and `rollback`: the caller validates sizes and, with
 * `valid_coloring`, the coloring's values, and a journal row records
 * each index at most once (jd flags it), so jc[a] <= jstride.
 *
 * The workspace arrays in_queue, cnt and tcnt are zero between calls:
 * the count pass lists a class in cls_list when its tcnt leaves 0, and
 * each listed class, once handled, clears its tcnt and the cnt of its
 * touched region, where all its touched vertices lie; a run that stops
 * early clears the in_queue flags of the splitters it leaves queued.
 *
 * Built by refine.py with `cc -O2 -shared -fPIC` and loaded with ctypes.
 */
#include <stdint.h>
#include <stdlib.h>

enum { JRN_ORDER, JRN_COLOR, JRN_CLEN };

#define LOG(a, idx) do {                                   \
        int64_t i_ = (idx);                                \
        if (jd[(a) * jstride + i_] == 0) {                 \
            jd[(a) * jstride + i_] = 1;                    \
            jl[(a) * jstride + jc[a]] = (int32_t)i_;       \
            jc[a] += 1;                                    \
        }                                                  \
    } while (0)

/* 1 if the slots [lo, hi), a union of classes, hold want classes or
 * more; reads at most want class lengths */
static int holds(const int32_t *clen, int64_t lo, int64_t hi, int64_t want)
{
    for (int64_t i = lo; i < hi && want > 0; i += clen[i])
        want--;
    return want == 0;
}

static int cmp_i32(const void *a, const void *b)
{
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* 1 if the arrays form an ordered partition of 0..n-1: order and pos
 * are inverse permutations, and each class is a run of slots whose
 * vertices' color is the run's first slot and whose length is the clen
 * entry at that slot.  `refine` indexes only within such a coloring. */
int valid_coloring(int64_t n, const int32_t *order, const int32_t *pos,
                   const int32_t *color, const int32_t *clen)
{
    int64_t start = 0;
    for (int64_t i = 0; i < n; i++) {
        int32_t v = order[i];
        if (v < 0 || v >= n || pos[v] != i)
            return 0;
        if (color[v] != start) {
            if (color[v] != i || clen[start] != i - start)
                return 0;
            start = i;
        }
    }
    return n == 0 || clen[start] == n - start;
}

/* The graph and workspace come first, as refine.py keeps their
 * addresses per graph; jd, jl and jc are NULL for a run that records no
 * journal.  With want > 0 the run stops before its next splitter once
 * the slots [wlo, whi), a union of classes, hold want classes or more;
 * the coloring is then a refinement of the input but maybe not
 * equitable. */
void refine(const int32_t *indptr, const int32_t *nbr,
            int32_t *queue, int8_t *in_queue, int32_t *cnt,
            int32_t *scratch, int32_t *bucket, int32_t *cls_list,
            int32_t *tcnt, int64_t qcap, int64_t qhead, int64_t qtail,
            int32_t *order, int32_t *pos, int32_t *color, int32_t *clen,
            int8_t *jd, int32_t *jl, int64_t *jc, int64_t jstride,
            int64_t wlo, int64_t whi, int64_t want)
{
    while (qhead != qtail) {
        if (want > 0 && holds(clen, wlo, whi, want)) {
            for (; qhead != qtail; qhead = (qhead + 1) % qcap)
                in_queue[queue[qhead]] = 0;
            break;
        }
        int32_t s = queue[qhead];
        qhead = (qhead + 1) % qcap;
        in_queue[s] = 0;

        int64_t ncls = 0;
        for (int64_t idx = s; idx < s + clen[s]; idx++) {
            int32_t v = order[idx];
            for (int64_t j = indptr[v]; j < indptr[v + 1]; j++) {
                int32_t u = nbr[j];
                if (cnt[u] == 0) {
                    int32_t c = color[u];
                    if (tcnt[c] == 0)
                        cls_list[ncls++] = c;
                    int32_t dest = c + clen[c] - 1 - tcnt[c];
                    tcnt[c] += 1;
                    int32_t p = pos[u];
                    int32_t w = order[dest];
                    if (jd) {
                        LOG(JRN_ORDER, dest);
                        LOG(JRN_ORDER, p);
                    }
                    order[dest] = u;
                    order[p] = w;
                    pos[u] = dest;
                    pos[w] = p;
                }
                cnt[u] += 1;
            }
        }

        /* most splitters, a dive's singletons above all, touch a few
         * classes, which insertion sort orders faster than qsort; the ids
         * are distinct, so both give the reference's np.sort order */
        if (ncls <= 16) {
            for (int64_t i = 1; i < ncls; i++) {
                int32_t x = cls_list[i];
                int64_t j = i;
                for (; j > 0 && cls_list[j - 1] > x; j--)
                    cls_list[j] = cls_list[j - 1];
                cls_list[j] = x;
            }
        } else {
            qsort(cls_list, (size_t)ncls, sizeof(int32_t), cmp_i32);
        }

        for (int64_t ci = 0; ci < ncls; ci++) {
            int32_t c = cls_list[ci];
            int32_t csize = clen[c];
            int32_t t = tcnt[c];
            tcnt[c] = 0;
            int32_t lo = c + csize - t;  /* touched region [lo, c + csize) */
            int32_t maxc = 0;
            int32_t minc = cnt[order[lo]];
            for (int32_t idx = lo; idx < c + csize; idx++) {
                int32_t cc = cnt[order[idx]];
                if (cc > maxc)
                    maxc = cc;
                if (cc < minc)
                    minc = cc;
            }
            if (t < csize || minc < maxc) {
                for (int32_t b = 0; b < maxc + 2; b++)
                    bucket[b] = 0;
                for (int32_t idx = lo; idx < c + csize; idx++)
                    bucket[cnt[order[idx]] + 1] += 1;
                for (int32_t b = 1; b < maxc + 2; b++)
                    bucket[b] += bucket[b - 1];
                for (int32_t idx = lo; idx < c + csize; idx++) {
                    int32_t v = order[idx];
                    scratch[bucket[cnt[v]]++] = v;
                }
                /* the count pass logged every slot of [lo, c + csize) as a
                 * swap destination */
                for (int32_t k = 0; k < t; k++) {
                    int32_t v = scratch[k];
                    order[lo + k] = v;
                    pos[v] = lo + k;
                }

                int8_t was_in_queue = in_queue[c];
                int32_t largest_start = -1;
                int32_t largest_size = -1;
                if (t < csize) {
                    if (jd)
                        LOG(JRN_CLEN, c);
                    clen[c] = csize - t;
                    largest_start = c;
                    largest_size = csize - t;
                }
                int32_t k = 0;
                while (k < t) {
                    int32_t cv = cnt[scratch[k]];
                    int32_t j = k + 1;
                    while (j < t && cnt[scratch[j]] == cv)
                        j++;
                    int32_t fstart = lo + k;
                    int32_t fsize = j - k;
                    if (jd)
                        LOG(JRN_CLEN, fstart);
                    clen[fstart] = fsize;
                    for (int32_t q = k; q < j; q++) {
                        int32_t w = scratch[q];
                        if (jd)
                            LOG(JRN_COLOR, w);
                        color[w] = fstart;
                    }
                    if (fsize > largest_size) {
                        largest_size = fsize;
                        largest_start = fstart;
                    }
                    k = j;
                }
                k = 0;
                while (k < csize) {
                    int32_t fstart = c + k;
                    int32_t fsize = clen[fstart];
                    if ((was_in_queue == 1 || fstart != largest_start)
                            && in_queue[fstart] == 0) {
                        queue[qtail] = fstart;
                        qtail = (qtail + 1) % qcap;
                        in_queue[fstart] = 1;
                    }
                    k += fsize;
                }
            }
            /* a split only permutes [lo, c + csize) */
            for (int32_t idx = lo; idx < c + csize; idx++)
                cnt[order[idx]] = 0;
        }
    }
}

void rollback(int8_t *jd, const int32_t *jl, int64_t *jc, int64_t jstride,
              int32_t *w_order, int32_t *w_pos, int32_t *w_color,
              int32_t *w_clen, const int32_t *b_order,
              const int32_t *b_color, const int32_t *b_clen)
{
    /* each logged order slot takes back its base vertex, and that
     * vertex its base pos */
    for (int64_t i = 0; i < jc[JRN_ORDER]; i++) {
        int32_t s = jl[JRN_ORDER * jstride + i];
        int32_t v = b_order[s];
        w_order[s] = v;
        w_pos[v] = s;
        jd[JRN_ORDER * jstride + s] = 0;
    }
    jc[JRN_ORDER] = 0;
    int32_t *w[2] = {w_color, w_clen};
    const int32_t *b[2] = {b_color, b_clen};
    for (int r = 0; r < 2; r++) {
        int a = JRN_COLOR + r;
        for (int64_t i = 0; i < jc[a]; i++) {
            int32_t idx = jl[a * jstride + i];
            w[r][idx] = b[r][idx];
            jd[a * jstride + idx] = 0;
        }
        jc[a] = 0;
    }
}
