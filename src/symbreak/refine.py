"""Equitable color refinement and individualization-refinement.

Colorings are ordered partitions: `order` lists the vertices class by
class, and a class's color id is the index of its first slot.  Splitting
reorders a class in place, fragments sorted by ascending count of
neighbors in the splitter (ties keep their relative order), so color ids
are isomorphism-invariant.

The worklist kernel uses the smaller-half rule (all fragments but the
largest are re-enqueued).  Each refinement kernel of `native.c` has a
Python twin here that takes the same parameters in the same order,
arrays where C takes addresses: `_refine_kernel` is `refine`,
`_session_push` is `session_push` (one call per `IRSession` probe),
`_dive_pairs` is `dive_pairs` (the remainder's dives, on a
`random.Random` or C's port of its MT19937), `_valid_coloring` is
`valid_coloring`, and `_rollback_kernel`, `_split_off` and `_log` are
the static `rollback`, `split_off` and `LOG` inside them.
`native.kernels` picks one set for the whole package: the C kernels
whenever they can be built, else the twins, which are the reference the
tests compare them against.  This module alone calls the refinement
kernels: it owns their scratch pool and the coloring check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .modelgraph import ColoredGraph
from . import native


class Coloring:
    """Ordered-partition coloring over vertices 0..n-1."""

    __slots__ = ("order", "pos", "color", "clen")

    def __init__(self, order, pos, color, clen):
        self.order = order
        self.pos = pos
        self.color = color
        self.clen = clen

    @classmethod
    def from_color_map(cls, keys) -> "Coloring":
        """Ordered partition grouping vertices by key, classes in ascending
        key order, vertices within a class in id order."""
        keys = np.asarray(keys, dtype=np.int64)
        n = len(keys)
        order = np.argsort(keys, kind="stable").astype(np.int32)
        pos = np.empty(n, dtype=np.int32)
        pos[order] = np.arange(n, dtype=np.int32)
        # a class starts at every slot whose key differs from the slot's
        # before it
        sorted_keys = keys[order]
        head = np.ones(n, dtype=bool)
        head[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.flatnonzero(head)
        sizes = np.diff(np.append(starts, n))
        color = np.empty(n, dtype=np.int32)
        color[order] = np.repeat(starts, sizes)
        clen = np.zeros(n, dtype=np.int32)
        clen[starts] = sizes
        return cls(order, pos, color, clen)

    def copy(self) -> "Coloring":
        return Coloring(self.order.copy(), self.pos.copy(),
                        self.color.copy(), self.clen.copy())

    def class_members(self, c: int) -> np.ndarray:
        return self.order[c:c + self.clen[c]]

    def class_end(self, c: int) -> int:
        """The slot after the class that starts at slot c; KeyError when
        c starts no class, whatever its value."""
        if not (0 <= c < len(self.clen) and self.clen[c] > 0
                and self.color[self.order[c]] == c):
            raise KeyError(f"unknown base color {c}")
        return c + int(self.clen[c])

    def classes(self) -> list:
        """Class ids in partition order: the slots where clen is nonzero,
        as it is exactly at class starts."""
        return np.flatnonzero(self.clen).tolist()


JRN_ORDER, JRN_COLOR, JRN_CLEN = 0, 1, 2


def _holds(clen, lo, hi, want):
    # the slots [lo, hi), a union of classes, hold want classes or more
    i = lo
    while i < hi and want > 0:
        i += clen[i]
        want -= 1
    return want == 0


def _log(jd, jl, jc, a, i):
    # native.c's LOG: append index i to journal row a unless it holds i
    if jd[a, i] == 0:
        jd[a, i] = 1
        jl[a, jc[a]] = i
        jc[a] += 1


def _refine_kernel(indptr, nbr, queue, in_queue, cnt, scratch, bucket,
                   cls_list, tcnt, qcap, qhead, qtail, order, pos, color,
                   clen, jd, jl, jc, jstride, wlo, whi, want):
    # native.c's `refine`.  jd is None for a run that records no journal;
    # with want > 0 the run stops before its next splitter once the slots
    # [wlo, whi) hold want classes or more.  The journal rows are rows of
    # 2-D arrays here, so jstride goes unread.
    while qhead != qtail:
        if want > 0 and _holds(clen, wlo, whi, want):
            while qhead != qtail:
                in_queue[queue[qhead]] = 0
                qhead = (qhead + 1) % qcap
            break
        s = queue[qhead]
        qhead = (qhead + 1) % qcap
        in_queue[s] = 0

        # gather splitter-neighbor counts; the first touch of a vertex
        # swaps it to the back of its class, so splitting costs
        # O(touched) rather than O(class size), and the first touch of a
        # class lists it
        ncls = 0
        for idx in range(s, s + clen[s]):
            v = order[idx]
            for j in range(indptr[v], indptr[v + 1]):
                u = nbr[j]
                if cnt[u] == 0:
                    c = color[u]
                    if tcnt[c] == 0:
                        cls_list[ncls] = c
                        ncls += 1
                    dest = c + clen[c] - 1 - tcnt[c]
                    tcnt[c] += 1
                    p = pos[u]
                    w = order[dest]
                    if jd is not None:
                        _log(jd, jl, jc, JRN_ORDER, dest)
                        _log(jd, jl, jc, JRN_ORDER, p)
                    order[dest], order[p] = u, w
                    pos[u], pos[w] = dest, p
                cnt[u] += 1

        cls_arr = np.sort(cls_list[:ncls])

        for ci in range(ncls):
            c = cls_arr[ci]
            csize = clen[c]
            t = tcnt[c]
            tcnt[c] = 0
            lo = c + csize - t  # touched region [lo, c + csize)
            maxc = 0
            minc = cnt[order[lo]]
            for idx in range(lo, c + csize):
                cc = cnt[order[idx]]
                if cc > maxc:
                    maxc = cc
                if cc < minc:
                    minc = cc
            if t < csize or minc < maxc:
                # counting sort of the touched region by count ascending;
                # untouched members stay in front as the count-0 fragment
                for b in range(maxc + 2):
                    bucket[b] = 0
                for idx in range(lo, c + csize):
                    bucket[cnt[order[idx]] + 1] += 1
                for b in range(1, maxc + 2):
                    bucket[b] += bucket[b - 1]
                for idx in range(lo, c + csize):
                    v = order[idx]
                    scratch[bucket[cnt[v]]] = v
                    bucket[cnt[v]] += 1
                # the count pass logged every slot of [lo, c + csize) as a
                # swap destination
                for k in range(t):
                    v = scratch[k]
                    order[lo + k] = v
                    pos[v] = lo + k

                was_in_queue = in_queue[c]
                largest_start = -1
                largest_size = -1
                if t < csize:
                    if jd is not None:
                        _log(jd, jl, jc, JRN_CLEN, c)
                    clen[c] = csize - t
                    largest_start = c
                    largest_size = csize - t
                k = 0
                while k < t:
                    cv = cnt[scratch[k]]
                    j = k + 1
                    while j < t and cnt[scratch[j]] == cv:
                        j += 1
                    fstart = lo + k
                    fsize = j - k
                    if jd is not None:
                        _log(jd, jl, jc, JRN_CLEN, fstart)
                    clen[fstart] = fsize
                    for q in range(k, j):
                        w = scratch[q]
                        if jd is not None:
                            _log(jd, jl, jc, JRN_COLOR, w)
                        color[w] = fstart
                    if fsize > largest_size:
                        largest_size = fsize
                        largest_start = fstart
                    k = j
                k = 0
                while k < csize:
                    fstart = c + k
                    fsize = clen[fstart]
                    if (was_in_queue == 1 or fstart != largest_start) \
                            and in_queue[fstart] == 0:
                        queue[qtail] = fstart
                        qtail = (qtail + 1) % qcap
                        in_queue[fstart] = 1
                    k += fsize
            # a split only permutes [lo, c + csize)
            for idx in range(lo, c + csize):
                cnt[order[idx]] = 0


def _rollback_kernel(w_order, w_pos, w_color, w_clen, b_order, b_color,
                     b_clen, jd, jl, jc, jstride):
    # native.c's `rollback`, a row at a time
    rows = ((w_order, b_order), (w_color, b_color), (w_clen, b_clen))
    for a, (w, b) in enumerate(rows):
        idx = jl[a, :jc[a]]
        w[idx] = b[idx]
        jd[a, idx] = 0
    # a vertex whose pos was written has left its base slot, which the
    # order row logged, so the logged slots give back all of pos
    slots = jl[JRN_ORDER, :jc[JRN_ORDER]]
    w_pos[b_order[slots]] = slots
    jc[:] = 0


def _split_off(order, pos, color, clen, v, jd, jl, jc, jstride):
    # native.c's `split_off`: v swaps into slot c, the front of its class
    # c, and the rest of the class takes color c + 1; returns c
    c = int(color[v])
    size = int(clen[c])
    if size == 1:
        return c
    p = int(pos[v])
    other = int(order[c])
    order[c], order[p] = v, other
    pos[v], pos[other] = c, p
    clen[c] = 1
    clen[c + 1] = size - 1
    rest = order[c + 1:c + size]
    if jd is not None:
        # v already heading its class gives c == p, which _log keeps once
        for a, i in ((JRN_ORDER, c), (JRN_ORDER, p), (JRN_CLEN, c),
                     (JRN_CLEN, c + 1)):
            _log(jd, jl, jc, a, i)
        for w in rest.tolist():
            _log(jd, jl, jc, JRN_COLOR, w)
    color[rest] = c + 1
    return c


def _session_push(indptr, nbr, queue, in_queue, cnt, scratch, bucket,
                  cls_list, tcnt, qcap, order, pos, color, clen, b_order,
                  b_color, b_clen, jd, jl, jc, jstride, v, reset, wlo, whi,
                  want):
    # native.c's `session_push`
    if jc.max() > jstride:
        return 1
    if reset:
        _rollback_kernel(order, pos, color, clen, b_order, b_color, b_clen,
                         jd, jl, jc, jstride)
    c = _split_off(order, pos, color, clen, v, jd, jl, jc, jstride)
    queue[0] = c
    in_queue[c] = 1
    _refine_kernel(indptr, nbr, queue, in_queue, cnt, scratch, bucket,
                   cls_list, tcnt, qcap, 0, 1, order, pos, color, clen,
                   jd, jl, jc, jstride, wlo, whi, want)
    return int(jc.max() > jstride)


def _valid_coloring(n, order, pos, color, clen):
    # native.c's `valid_coloring`, in numpy
    if n == 0:
        return True
    if order.min() < 0 or order.max() >= n or \
            (pos[order] != np.arange(n)).any():
        return False
    by_slot = color[order]
    starts = np.flatnonzero(np.r_[True, by_slot[1:] != by_slot[:-1]])
    sizes = np.zeros(n, dtype=np.int64)
    sizes[starts] = np.diff(starts, append=n)
    return bool((by_slot[starts] == starts).all() and
                np.array_equal(clen, sizes))


def _is_int32_vector(a, size: int) -> bool:
    return isinstance(a, np.ndarray) and a.dtype == np.int32 and \
        a.shape == (size,) and a.flags.c_contiguous


def _check_coloring(coloring: Coloring, n: int):
    """Refuse a coloring that the C kernel could index out of bounds
    with, or that either kernel would refine into garbage: its arrays
    must be contiguous int32 of length n and form an ordered partition
    (`valid_coloring`, O(n))."""
    arrays = (coloring.order, coloring.pos, coloring.color, coloring.clen)
    kernels, addr = native.kernels()
    if all(_is_int32_vector(a, n) for a in arrays) and \
            kernels.valid_coloring(n, *addr(*arrays)):
        return
    raise ValueError(f"not an ordered-partition coloring of {n} vertices "
                     f"in contiguous int32 arrays")


def _scratch_pool(graph: ColoredGraph):
    """The 9 leading arguments of every kernel: the graph's CSR arrays and
    a per-graph reusable workspace.  `in_queue`, `cnt` and `tcnt` are
    zero between runs: the kernel clears each entry it sets before it
    returns, so the pool needs no cleaning.  The other arrays are
    written before they are read (`bucket` is cleared before each use).
    The queue holds n + 1 entries.  The CSR arrays are checked once
    here, since the C kernel reads them unchecked."""
    pool = getattr(graph, "_refine_scratch", None)
    if pool is None:
        n = graph.vertex_count
        indptr, nbr = graph.indptr, graph.neighbors
        if not (_is_int32_vector(indptr, n + 1)
                and _is_int32_vector(nbr, len(nbr))
                and indptr[0] == 0 and indptr[-1] == len(nbr)
                and (np.diff(indptr) >= 0).all()
                and (len(nbr) == 0 or 0 <= nbr.min() <= nbr.max() < n)):
            raise ValueError("graph is not a contiguous int32 CSR "
                             "adjacency over its own vertices")
        pool = (indptr, nbr,
                np.empty(n + 1, dtype=np.int32),          # queue
                np.zeros(n, dtype=np.int8),               # in_queue
                np.zeros(n, dtype=np.int32),              # cnt
                np.empty(n, dtype=np.int32),              # scratch
                np.empty(graph.max_degree + 2, dtype=np.int32),  # bucket
                np.empty(n, dtype=np.int32),              # cls_list
                np.zeros(n, dtype=np.int32))              # tcnt
        graph._refine_scratch = pool
    return pool


def _run_refinement(graph: ColoredGraph, coloring: Coloring,
                    initial_classes):
    """Check `coloring`, then refine it in place from the splitters
    `initial_classes`."""
    n = graph.vertex_count
    _check_coloring(coloring, n)
    kernels, addr = native.kernels()
    pool = _scratch_pool(graph)
    queue, in_queue = pool[2], pool[3]
    qtail = 0
    for c in initial_classes:
        if not in_queue[c]:
            queue[qtail] = c
            qtail += 1
            in_queue[c] = 1
    kernels.refine(*addr(*pool), n + 1, 0, qtail,
                   *addr(coloring.order, coloring.pos, coloring.color,
                         coloring.clen), None, None, None, n, 0, 0, 0)


@dataclass
class RefinementReport:
    """A refined coloring together with the base coloring it was refined
    from; `fragments` reads how each base class split."""

    base: Coloring
    coloring: Coloring

    def fragments(self, base_color: int) -> list:
        """(refined color id, members) for each refined class inside the
        given base class, ascending by color id; members are views of
        the refined `order`, so in refined partition order, and change
        with it (a session's next individualization).

        Refinement splits a class only within its own slots, so when the
        base is an ancestor of the refined coloring the refined classes
        tile the base class's slot range: a walk over their starts finds
        them without reading a member's color.  Raises ValueError when
        they do not tile it, which means the base is no ancestor."""
        sigma = int(base_color)
        end = self.base.class_end(sigma)
        refined = self.coloring
        order, color, clen = refined.order, refined.color, refined.clen
        out = []
        s = sigma
        while s < end:
            size = int(clen[s])
            if size < 1 or color[order[s]] != s:
                break
            out.append((s, order[s:s + size]))
            s += size
        if s != end:
            raise ValueError(f"refined classes do not tile base class "
                             f"{sigma}: the base is not an ancestor of "
                             f"the refined coloring")
        return out


def refine_stable(graph: ColoredGraph, pi: Coloring) -> RefinementReport:
    """Coarsest equitable refinement of pi."""
    refined = pi.copy()
    _run_refinement(graph, refined, refined.classes())
    return RefinementReport(base=pi, coloring=refined)


def individualize_refine(graph: ColoredGraph, pi: Coloring,
                         v: int) -> RefinementReport:
    """Split v into a fresh singleton at the front of its class in a copy
    of pi, then refine; the report is taken against pi."""
    if not 0 <= v < graph.vertex_count:
        raise IndexError(f"vertex {v} out of range")
    refined = pi.copy()
    c = int(refined.color[v])
    # other members of v's class take color c + 1 and split too
    worklist = [c, c + 1] if refined.clen[c] > 1 else [c]
    _split_off(refined.order, refined.pos, refined.color, refined.clen, v,
               None, None, None, graph.vertex_count)
    _run_refinement(graph, refined, worklist)
    return RefinementReport(base=pi, coloring=refined)


def _next_nonsingleton(clen, start: int):
    """Slot of the first class of more than one member at or after the
    class start `start`, or None when every class from there on is a
    singleton.  clen is nonzero only at class starts, so the first slot
    from `start` on with clen > 1 starts that class."""
    big = clen[start:] > 1
    k = int(big.argmax())
    return start + k if big[k] else None


def _dive_pairs(indptr, nbr, queue, in_queue, cnt, scratch, bucket,
                cls_list, tcnt, qcap, p_order, p_pos, p_color, p_clen,
                order1, pos1, color1, clen1, order2, pos2, color2, clen2,
                n, nlit, rows, raw, mt):
    # native.c's `dive_pairs`, drawing from a random.Random set to the
    # 625 state words of mt, which go back into mt; raw is rows x nlit
    rng = random.Random()
    rng.setstate((3, tuple(mt.tolist()), None))
    for r in range(rows):
        for w in ((order1, pos1, color1, clen1),
                  (order2, pos2, color2, clen2)):
            for a, b in zip(w, (p_order, p_pos, p_color, p_clen)):
                a[:] = b
            order, clen = w[0], w[3]
            # the classes before an individualized one stay singletons
            c = _next_nonsingleton(clen, 0)
            while c is not None:
                v = int(rng.choice(order[c:c + clen[c]]))
                _split_off(*w, v, None, None, None, n)
                queue[0], queue[1] = c, c + 1
                in_queue[c] = in_queue[c + 1] = 1
                _refine_kernel(indptr, nbr, queue, in_queue, cnt, scratch,
                               bucket, cls_list, tcnt, qcap, 0, 2, *w,
                               None, None, None, n, 0, 0, 0)
                c = _next_nonsingleton(clen, c)
        raw[r] = order2[pos1[:nlit]]
    mt[:] = rng.getstate()[1]


def dive_pairs(graph: ColoredGraph, pi: Coloring, rng, rows: int):
    """The rows x nlit int32 pairing table of `rows` pairs of random
    dives from pi (nlit literal vertices), in one `dive_pairs` kernel
    call.  A dive is a chain of `individualize_refine` calls from pi to
    a discrete leaf, each on a random member of the first class of more
    than one member; row r sends literal l to the vertex that leaf d2 of
    pair r holds in the slot where leaf d1 holds l.  The dives draw as
    `rng.choice` would from `rng`, a `random.Random`, and leave its
    state as they end it.  Raises ValueError, before any refinement,
    when pi is no ordered-partition coloring of the graph's vertices."""
    n, nlit = graph.vertex_count, graph.num_literal_vertices
    _check_coloring(pi, n)
    kernels, addr = native.kernels()
    version, mt, gauss_next = rng.getstate()
    mt = np.array(mt, dtype=np.uint32)
    work = np.empty((8, n), dtype=np.int32)  # two colorings' four arrays
    table = np.empty((rows, nlit), dtype=np.int32)
    kernels.dive_pairs(*addr(*_scratch_pool(graph)), n + 1,
                       *addr(pi.order, pi.pos, pi.color, pi.clen, *work),
                       n, nlit, rows, *addr(table, mt))
    rng.setstate((version, tuple(mt.tolist()), gauss_next))
    return table


class IRSession:
    """Reusable individualize-refine workspace over a fixed base coloring.

    The session refines one in-place working copy and journals, per
    row, each order slot, color and class length it writes, so that a
    rollback copies exactly those back from the base; `pos` is rebuilt
    from the logged order slots.  `push(v)` individualizes v in the
    current working coloring and refines; pushes stack, each logging
    against the base, and one rollback undoes them all.
    `individualize(v)` is a rollback followed by `push(v)`.  Either costs
    O(touched) instead of O(vertices), and is one call of `session_push`,
    in C or its Python twin.  `individualize(v, until)` may stop the
    refinement early; see there.

    Every report is taken against the base, so after a chain of pushes
    its fragments of a base class are those of the whole chain.  Only
    the most recent report is valid; the next call changes its coloring
    in place.

    The base must be equitable.  Then so is every working coloring, and
    refining against the new singleton alone suffices
    (distinguishability against the rest of the split class follows by
    count subtraction), so the large half of a split is never scanned as
    a splitter.
    """

    def __init__(self, graph: ColoredGraph, base: Coloring):
        n = graph.vertex_count
        _check_coloring(base, n)
        self.graph = graph
        self.base = base
        self.work = work = base.copy()
        self._jd = np.zeros((3, n), dtype=np.int8)
        self._jl = np.empty((3, n), dtype=np.int32)
        self._jc = np.zeros(3, dtype=np.int64)
        self._journal = (self._jd, self._jl, self._jc)
        self._arrays = (work.order, work.pos, work.color, work.clen,
                        base.order, base.color, base.clen)
        # none of these arrays is ever replaced, so the arguments of
        # `session_push` up to v are taken once here
        self._kernel, addr = native.kernels()
        self._push_args = (*addr(*_scratch_pool(graph)), n + 1,
                           *addr(*self._arrays), *addr(*self._journal), n)
        self._stopped = False

    def individualize(self, v: int, until=None) -> RefinementReport:
        """A rollback, then `push(v)`.  With until = (sigma, k) the
        refinement stops before its next splitter once base class sigma
        has split into k classes or more.  That costs what the splits up
        to there cost, but the working coloring need not be equitable:
        the report's fragments of a base class may be coarser than a
        full refinement's, and until the next `individualize` no push
        may follow."""
        stop = (0, 0, 0)
        if until is not None:
            sigma, want = until
            stop = (sigma, self.base.class_end(sigma), want)
        report = self._push(v, 1, stop)
        self._stopped = until is not None
        return report

    def push(self, v: int) -> RefinementReport:
        if self._stopped:
            raise RuntimeError("push onto a refinement stopped early")
        return self._push(v, 0, (0, 0, 0))

    def _overflow(self) -> RuntimeError:
        return RuntimeError(f"refinement journal overflow: "
                            f"{self._jc.tolist()} entries for "
                            f"{self.graph.vertex_count} slots")

    def _push(self, v: int, reset: int, stop) -> RefinementReport:
        """Individualize v in the working coloring, after a rollback if
        `reset`, and refine up to the stop (wlo, whi, want) of `refine`.
        Raises RuntimeError, before any write, when a journal row holds
        more entries than slots, as each row logs an index at most once;
        and after the refinement when one does then."""
        if not 0 <= v < self.graph.vertex_count:
            raise IndexError(f"vertex {v} out of range")
        if self._kernel.session_push(*self._push_args, v, reset, *stop):
            raise self._overflow()
        return RefinementReport(base=self.base, coloring=self.work)


def initial_coloring(graph: ColoredGraph) -> Coloring:
    return Coloring.from_color_map(graph.color_keys)
