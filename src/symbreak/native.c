/* Native kernels for symbreak: color refinement, the session probe, the
 * remainder's random dives and DIMACS I/O.
 *
 * Each kernel has a Python twin, in refine.py or cnf.py, that takes the
 * same parameters in the same order, arrays where C takes addresses, and
 * is its reference and the fallback where no compiler is found;
 * native.py's `kernels` picks the library or the twins for the whole
 * package:
 *   refine          `_refine_kernel`    (refine.py)
 *   session_push    `_session_push`
 *   dive_pairs      `_dive_pairs`
 *   valid_coloring  `_valid_coloring`
 *   rollback        `_rollback_kernel`  (static)
 *   split_off       `_split_off`        (static)
 *   LOG             `_log`
 *   parse           `_parse`            (cnf.py)
 *   emit            `_emit`
 *   ascending       `_ascending`
 * Kernel and twin must give identical colorings and identical journals,
 * and the tests compare them on random graphs.  `session_push` is one
 * probe of refine.py's `IRSession` in one call: the optional `rollback`,
 * the split of `split_off` and a journaled `refine` from the new
 * singleton.  `dive_pairs` runs a block of the remainder's dive pairs in
 * one call for refine.py's `dive_pairs`, splitting with the same
 * `split_off`; its random draws come from `genrand_uint32`, a port of
 * CPython's MT19937, where its twin draws from a `random.Random` set to
 * the same state words.  `parse` and `emit` read and write DIMACS for
 * cnf.py, and `ascending` spares cnf.py's `_canonical_clauses` its sort
 * for clauses that are canonical already.  `_parse` runs cnf.py's
 * line-by-line reader `_parse_python`, which reads every input the C
 * `parse` refuses.
 *
 * All arrays are C-contiguous with the dtypes named in the signatures.
 * The journal arrays jd and jl hold 3 rows of `jstride` entries each
 * (order slots, color by vertex, clen by slot), and jc holds the 3 row
 * lengths.  `pos` is not journaled: a vertex whose pos was written has
 * left its base slot, which the order row logged, so `rollback` rebuilds
 * pos from the logged order slots.  There are no bounds checks in
 * `refine`, `session_push` and `dive_pairs`: the caller validates sizes
 * and, with `valid_coloring`, the coloring's values and v, and a journal
 * row records each index at most once (jd flags it), so jc[a] <= jstride;
 * `session_push` refuses a journal that breaks this.
 *
 * The workspace arrays in_queue, cnt and tcnt are zero between calls:
 * the count pass lists a class in cls_list when its tcnt leaves 0, and
 * each listed class, once handled, clears its tcnt and the cnt of its
 * touched region, where all its touched vertices lie; a run that stops
 * early clears the in_queue flags of the splitters it leaves queued.
 *
 * Built by native.py with `cc -O2 -shared -fPIC` and loaded with ctypes.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
 * are inverse permutations, each class is a run of slots whose
 * vertices' color is the run's first slot and whose length is the clen
 * entry at that slot, and clen is 0 at every other slot (a class id
 * taken from `Coloring.classes()`, which lists the nonzero clen slots,
 * is a splitter of `refine`).  `refine` indexes only within such a
 * coloring. */
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
        } else if (i != start && clen[i] != 0) {
            return 0;
        }
    }
    return n == 0 || clen[start] == n - start;
}

/* The graph and workspace come first, as refine.py keeps them per
 * graph; jd, jl and jc are NULL for a run that records no journal.
 * With want > 0 the run stops before its next splitter once the slots
 * [wlo, whi), a union of classes, hold want classes or more; the
 * coloring is then a refinement of the input but maybe not equitable. */
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

/* Undo every logged write of a session: each logged order slot takes
 * back its base vertex, and that vertex its base pos; each logged color
 * and clen entry takes back its base value.  The journal is left empty. */
static void rollback(int32_t *w_order, int32_t *w_pos, int32_t *w_color,
                     int32_t *w_clen, const int32_t *b_order,
                     const int32_t *b_color, const int32_t *b_clen,
                     int8_t *jd, const int32_t *jl, int64_t *jc,
                     int64_t jstride)
{
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

/* Make v a singleton at the front of its class c: v swaps into slot c,
 * and the rest of the class takes color c + 1.  With jd non-NULL it logs
 * the two order slots, the two class lengths and then the recolored
 * vertices in slot order.  Returns c. */
static int32_t split_off(int32_t *order, int32_t *pos, int32_t *color,
                         int32_t *clen, int32_t v, int8_t *jd, int32_t *jl,
                         int64_t *jc, int64_t jstride)
{
    int32_t c = color[v], size = clen[c];
    if (size == 1)
        return c;
    int32_t p = pos[v], other = order[c];
    order[c] = v;
    order[p] = other;
    pos[v] = c;
    pos[other] = p;
    clen[c] = 1;
    clen[c + 1] = size - 1;
    if (jd) {
        LOG(JRN_ORDER, c);
        LOG(JRN_ORDER, p);
        LOG(JRN_CLEN, c);
        LOG(JRN_CLEN, c + 1);
    }
    for (int32_t i = c + 1; i < c + size; i++) {
        int32_t w = order[i];
        if (jd)
            LOG(JRN_COLOR, w);
        color[w] = c + 1;
    }
    return c;
}

static int journal_overflows(const int64_t *jc, int64_t jstride)
{
    return jc[JRN_ORDER] > jstride || jc[JRN_COLOR] > jstride
        || jc[JRN_CLEN] > jstride;
}

/* One probe of refine.py's `IRSession`: with reset set, roll the working
 * coloring back to the base first; then split v off (`split_off`) and
 * refine from [c], the new singleton alone, journaling every write, with
 * the stop (wlo, whi, want) of `refine`.  The graph and workspace come
 * first, as for `refine`, then the working coloring, the base's order,
 * color and clen, and the journal.  Returns 1, having written nothing,
 * when a journal row already holds more than jstride entries on entry,
 * and 1 when one does at the end; else 0. */
int session_push(const int32_t *indptr, const int32_t *nbr,
                 int32_t *queue, int8_t *in_queue, int32_t *cnt,
                 int32_t *scratch, int32_t *bucket, int32_t *cls_list,
                 int32_t *tcnt, int64_t qcap,
                 int32_t *order, int32_t *pos, int32_t *color,
                 int32_t *clen, const int32_t *b_order,
                 const int32_t *b_color, const int32_t *b_clen,
                 int8_t *jd, int32_t *jl, int64_t *jc, int64_t jstride,
                 int64_t v, int64_t reset, int64_t wlo, int64_t whi,
                 int64_t want)
{
    if (journal_overflows(jc, jstride))
        return 1;
    if (reset)
        rollback(order, pos, color, clen, b_order, b_color, b_clen,
                 jd, jl, jc, jstride);
    int32_t c = split_off(order, pos, color, clen, (int32_t)v,
                          jd, jl, jc, jstride);
    queue[0] = c;
    in_queue[c] = 1;
    refine(indptr, nbr, queue, in_queue, cnt, scratch, bucket, cls_list,
           tcnt, qcap, 0, 1, order, pos, color, clen, jd, jl, jc, jstride,
           wlo, whi, want);
    return journal_overflows(jc, jstride);
}


/* ---- Remainder dives ------------------------------------------------ */

/* CPython's Mersenne Twister (Modules/_randommodule.c), ported bit for
 * bit.  mt holds the 625 words of `random.Random.getstate()[1]`: the 624
 * state words and then the index of the next word to temper. */
#define MT_N 624
#define MT_M 397

static uint32_t genrand_uint32(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (mt[MT_N] >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* `Random._randbelow_with_getrandbits(n)` for 0 < n < 2^32: draws of
 * n.bit_length() bits, each `getrandbits`' top bits of one word, until
 * one is below n */
static uint32_t randbelow(uint32_t *mt, uint32_t n)
{
    int shift = 32;
    for (uint32_t m = n; m; m >>= 1)
        shift--;
    uint32_t r;
    do
        r = genrand_uint32(mt) >> shift;
    while (r >= n);
    return r;
}

/* `rows` pairs of remainder dives, for refine.py's `dive_pairs`.  Each
 * dive resets a working coloring (w1, then w2) from pi, then, until it
 * is discrete, picks a random member v of its first class c of more
 * than one member, splits v off to slot c with `split_off` and refines
 * from [c, c + 1] without a journal.  Row r of raw (rows x nlit) gets
 * the pairing of the two leaves: raw[r][l] = w2.order[w1.pos[l]].  The
 * graph and workspace come first, as for `refine`; pi must be a valid
 * coloring (`valid_coloring`) and the working colorings n entries each,
 * and mt advances in place. */
void dive_pairs(const int32_t *indptr, const int32_t *nbr,
                int32_t *queue, int8_t *in_queue, int32_t *cnt,
                int32_t *scratch, int32_t *bucket, int32_t *cls_list,
                int32_t *tcnt, int64_t qcap,
                const int32_t *p_order, const int32_t *p_pos,
                const int32_t *p_color, const int32_t *p_clen,
                int32_t *order1, int32_t *pos1, int32_t *color1,
                int32_t *clen1, int32_t *order2, int32_t *pos2,
                int32_t *color2, int32_t *clen2, int64_t n, int64_t nlit,
                int64_t rows, int32_t *raw, uint32_t *mt)
{
    const int32_t *pi[4] = {p_order, p_pos, p_color, p_clen};
    int32_t *w[2][4] = {{order1, pos1, color1, clen1},
                        {order2, pos2, color2, clen2}};
    for (int64_t r = 0; r < rows; r++) {
        for (int d = 0; d < 2; d++) {
            for (int a = 0; a < 4; a++)
                memcpy(w[d][a], pi[a], (size_t)n * sizeof(int32_t));
            int32_t *order = w[d][0], *pos = w[d][1], *color = w[d][2],
                    *clen = w[d][3];
            /* the classes before an individualized one are singletons
             * and stay so, so each search goes on from the last one */
            for (int32_t c = 0;; c++) {
                while (c < n && clen[c] <= 1)
                    c++;
                if (c == n)
                    break;
                int32_t v = order[c + randbelow(mt, (uint32_t)clen[c])];
                split_off(order, pos, color, clen, v, NULL, NULL, NULL, n);
                queue[0] = c;
                queue[1] = c + 1;
                in_queue[c] = in_queue[c + 1] = 1;
                refine(indptr, nbr, queue, in_queue, cnt, scratch, bucket,
                       cls_list, tcnt, qcap, 0, 2, order, pos, color, clen,
                       NULL, NULL, NULL, n, 0, 0, 0);
            }
        }
        for (int64_t l = 0; l < nlit; l++)
            raw[r * nlit + l] = order2[pos1[l]];
    }
}


/* ---- DIMACS I/O ------------------------------------------------------ */

/* literal codes are int32, so a variable is at most 2^30 */
#define MAX_VAR (INT64_C(1) << 30)

#define IS_BLANK(b) ((b) == ' ' || (b) == '\t')
#define IS_BREAK(b) ((b) == '\n' || (b) == '\r')
#define IS_DIGIT(b) ((uint8_t)((b) - '0') < 10)

/* The unsigned decimal token at s[*at], of 1 to 10 digits followed by a
 * blank, a line break or the end: its value, with *at moved past it, or
 * -1 when the token is anything else. */
static inline int64_t digits(const uint8_t *s, int64_t n, int64_t *at)
{
    int64_t i = *at, v = 0;
    while (i < n && IS_DIGIT(s[i])) {
        if (i - *at == 10)
            return -1;
        v = 10 * v + (s[i++] - '0');
    }
    if (i == *at || (i < n && !IS_BLANK(s[i]) && !IS_BREAK(s[i])))
        return -1;
    *at = i;
    return v;
}

static inline int64_t skip_blanks(const uint8_t *s, int64_t n, int64_t i)
{
    while (i < n && IS_BLANK(s[i]))
        i++;
    return i;
}

/* Read plain DIMACS: text whose only whitespace and control bytes are
 * space, tab, \r and \n, and whose only bytes above 127 lie in comments;
 * lines that start with c, which are skipped; one header line
 * `p cnf V C` before any clause data, V at most 2^30; and data tokens of
 * 1 to 10 digits with an optional '-', of absolute value at most 2^30,
 * the last of them 0.  Returns 1 for plain input and 0 for any other,
 * which cnf.py then reads with `_parse_python`, the reference that
 * gives every other input its result or its error.
 *
 * A first pass with lens == NULL fills info with the header's V and C,
 * the clause count, the literal count and the largest variable in the
 * clauses (0 if none).  A second pass over the same bytes, with info as
 * the first left it, writes each clause's length to lens and its
 * literals' codes to lits, as many as the first pass counted.  Both are
 * int64, as `_parse_python` gives them to Formula, which keys its
 * canonicalizing sort in int64. */
int parse(const char *text, int64_t n, int64_t *info, int64_t *lens,
          int64_t *lits)
{
    const uint8_t *s = (const uint8_t *)text;
    int64_t ncls = 0, nlits = 0, open = 0, top = 0;
    int64_t vars = -1, clauses = -1;
    int64_t i = 0;
    while (i < n) {
        i = skip_blanks(s, n, i);
        if (i == n)
            break;
        uint8_t lead = s[i];
        if (IS_BREAK(lead)) {
            i++;
        } else if (lead == 'c') {
            /* a control byte other than tab may end the line for
             * `_parse_python`; a byte above 127 decodes to U+FFFD, which
             * ends no line */
            for (; i < n && !IS_BREAK(s[i]); i++)
                if (s[i] < 0x20 && s[i] != '\t')
                    return 0;
        } else if (lead == 'p') {
            /* exactly `p cnf V C`, once, before any data */
            if (vars >= 0 || i + 1 == n || !IS_BLANK(s[i + 1]))
                return 0;
            i = skip_blanks(s, n, i + 1);
            if (n - i < 4 || s[i] != 'c' || s[i + 1] != 'n' || s[i + 2] != 'f'
                    || !IS_BLANK(s[i + 3]))
                return 0;
            i = skip_blanks(s, n, i + 3);
            vars = digits(s, n, &i);
            i = skip_blanks(s, n, i);
            clauses = digits(s, n, &i);
            i = skip_blanks(s, n, i);
            if (vars < 0 || vars > MAX_VAR || clauses < 0
                    || (i < n && !IS_BREAK(s[i])))
                return 0;
        } else {
            /* a data line: tokens up to the line break */
            if (vars < 0)
                return 0;
            while (i < n && !IS_BREAK(s[i])) {
                int neg = s[i] == '-';
                i += neg;
                int64_t v = digits(s, n, &i);
                if (v < 0 || v > MAX_VAR)
                    return 0;
                if (v == 0) {
                    if (lens) {
                        if (ncls == info[2])
                            return 0;
                        lens[ncls] = open;
                    }
                    ncls++;
                    open = 0;
                } else {
                    if (lits) {
                        if (nlits == info[3])
                            return 0;
                        lits[nlits] = 2 * v - 2 + neg;
                    }
                    nlits++;
                    open++;
                    if (v > top)
                        top = v;
                }
                i = skip_blanks(s, n, i);
            }
        }
    }
    if (vars < 0 || open)
        return 0;
    if (!lens) {
        info[0] = vars;
        info[1] = clauses;
        info[2] = ncls;
        info[3] = nlits;
        info[4] = top;
    }
    return 1;
}

/* 1 if every clause of `lens` over the literal codes `lits` (CSR,
 * nlens clauses) is strictly ascending, 0 at the first that is not.
 * cnf.py's `_canonical_clauses`, which has checked that the lengths are
 * non-negative and add up to the literal count, then need not sort. */
int ascending(const int64_t *lens, int64_t nlens, const int64_t *lits)
{
    int64_t at = 0;
    for (int64_t c = 0; c < nlens; c++) {
        int64_t end = at + lens[c];
        for (int64_t i = at + 1; i < end; i++)
            if (lits[i] <= lits[i - 1])
                return 0;
        at = end;
    }
    return 1;
}

/* Write the DIMACS lines of the clauses `lens` over the literal codes
 * `lits` (CSR, nlits in all) to out: each literal signed and followed
 * by a space, then "0\n"; an
 * empty clause is " 0\n".  A code is at most 2^31 - 1, so its text is at
 * most 12 bytes ("-1073741824 ") and out needs 12 * nlits + 3 * nlens
 * bytes.  Returns the bytes written, or -1, before writing past out, for
 * a negative length or code or lengths that do not add up to nlits. */
int64_t emit(const int32_t *lens, int64_t nlens, const int32_t *lits,
             int64_t nlits, char *out)
{
    char *p = out;
    int64_t at = 0;
    for (int64_t c = 0; c < nlens; c++) {
        int64_t len = lens[c];
        if (len < 0 || len > nlits - at)
            return -1;
        if (len == 0)
            *p++ = ' ';
        for (int64_t end = at + len; at < end; at++) {
            int32_t code = lits[at];
            if (code < 0)
                return -1;
            if (code & 1)
                *p++ = '-';
            char digit[10];
            int k = 0;
            for (int32_t v = code / 2 + 1; v; v /= 10)
                digit[k++] = (char)('0' + v % 10);
            while (k)
                *p++ = digit[--k];
            *p++ = ' ';
        }
        *p++ = '0';
        *p++ = '\n';
    }
    return at == nlits ? p - out : -1;
}
