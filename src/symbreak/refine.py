"""Equitable color refinement and individualization-refinement.

Colorings are ordered partitions: `order` lists the vertices class by
class, and a class's color id is the index of its first slot.  Splitting
reorders a class in place, fragments sorted by ascending count of
neighbors in the splitter (ties keep their relative order), so color ids
are isomorphism-invariant.

The worklist kernel uses the smaller-half rule (all fragments but the
largest are re-enqueued).  It, an `IRSession` probe and the remainder's
random dives exist twice: in C (`native.c`, the library that
`native.native_kernel` builds and loads, with one call per probe in
`session_push` and one per block of dives in `dive_pairs`) and in
Python (`_refine_kernel`; `_rollback_kernel`, `_split_off` and the
session's journal; `_dive`'s chain of splits and refinements).  The C
kernels run whenever they can be built; the Python ones are the
reference the tests compare them against and the fallback where no
compiler is found.  This module alone calls the kernels: it owns their
scratch pool, the arrays' addresses and the coloring check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modelgraph import ColoredGraph
from .native import native_kernel


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

    def classes(self) -> list:
        """Class ids in partition order: the slots where clen is nonzero,
        as it is exactly at class starts."""
        return np.flatnonzero(self.clen).tolist()

    def as_partition(self) -> list:
        """Ordered list of frozensets, one per class."""
        return [frozenset(int(v) for v in self.class_members(c))
                for c in self.classes()]

    def is_equitable(self, graph: ColoredGraph) -> bool:
        """Recount check: every vertex of a class has the same number of
        neighbors in every class.  Test oracle; not used by the engine."""
        for c in self.classes():
            members = self.class_members(c)
            sig = None
            for v in members:
                counts = {}
                for u in graph.neighbors_of(int(v)):
                    cu = int(self.color[u])
                    counts[cu] = counts.get(cu, 0) + 1
                fs = frozenset(counts.items())
                if sig is None:
                    sig = fs
                elif fs != sig:
                    return False
        return True


JRN_ORDER, JRN_COLOR, JRN_CLEN = 0, 1, 2


def _holds(clen, lo, hi, want):
    # the slots [lo, hi), a union of classes, hold want classes or more
    i = lo
    while i < hi and want > 0:
        i += clen[i]
        want -= 1
    return want == 0


def _refine_kernel(indptr, nbr, order, pos, color, clen,
                   queue, in_queue, qhead, qtail,
                   cnt, scratch, bucket, cls_list, tcnt, jd, jl, jc,
                   wlo, whi, want):
    # jd is None for a run that records no journal; with want > 0 the
    # run stops before its next splitter once the slots [wlo, whi) hold
    # want classes or more
    qcap = queue.shape[0]
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
                        if jd[JRN_ORDER, dest] == 0:
                            jd[JRN_ORDER, dest] = 1
                            jl[JRN_ORDER, jc[JRN_ORDER]] = dest
                            jc[JRN_ORDER] += 1
                        if jd[JRN_ORDER, p] == 0:
                            jd[JRN_ORDER, p] = 1
                            jl[JRN_ORDER, jc[JRN_ORDER]] = p
                            jc[JRN_ORDER] += 1
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
                    if jd is not None and jd[JRN_CLEN, c] == 0:
                        jd[JRN_CLEN, c] = 1
                        jl[JRN_CLEN, jc[JRN_CLEN]] = c
                        jc[JRN_CLEN] += 1
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
                    if jd is not None and jd[JRN_CLEN, fstart] == 0:
                        jd[JRN_CLEN, fstart] = 1
                        jl[JRN_CLEN, jc[JRN_CLEN]] = fstart
                        jc[JRN_CLEN] += 1
                    clen[fstart] = fsize
                    for q in range(k, j):
                        w = scratch[q]
                        if jd is not None and jd[JRN_COLOR, w] == 0:
                            jd[JRN_COLOR, w] = 1
                            jl[JRN_COLOR, jc[JRN_COLOR]] = w
                            jc[JRN_COLOR] += 1
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


def _ptrs(*arrays):
    return [a.ctypes.data for a in arrays]


def _is_int32_vector(a, size: int) -> bool:
    return isinstance(a, np.ndarray) and a.dtype == np.int32 and \
        a.shape == (size,) and a.flags.c_contiguous


def _is_ordered_partition(order, pos, color, clen) -> bool:
    """`valid_coloring` of native.c in numpy, for the Python kernels:
    order and pos are inverse permutations, each class is a run of
    slots whose vertices' color is the run's first slot and whose length
    is the clen entry at that slot, and clen is 0 at every other slot."""
    n = len(order)
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


def _check_coloring(coloring: Coloring, n: int, lib):
    """Refuse a coloring that the C kernel could index out of bounds
    with, or that either kernel would refine into garbage: its arrays
    must be contiguous int32 of length n and form an ordered partition
    (checked in C where the C kernel runs, else in numpy; O(n) either
    way)."""
    arrays = (coloring.order, coloring.pos, coloring.color, coloring.clen)
    if all(_is_int32_vector(a, n) for a in arrays) and (
            _is_ordered_partition(*arrays) if lib is None
            else lib.valid_coloring(n, *_ptrs(*arrays))):
        return
    raise ValueError(f"not an ordered-partition coloring of {n} vertices "
                     f"in contiguous int32 arrays")


def _scratch_pool(graph: ColoredGraph):
    """Per-graph reusable kernel workspace, with the addresses of it and
    of the graph's CSR arrays for the C kernel.  `in_queue`, `cnt` and
    `tcnt` are zero between runs: the kernel clears each entry it sets
    before it returns, so the pool needs no cleaning.  The other arrays
    are written before they are read (`bucket` is cleared before each
    use).  The CSR arrays are checked once here, since the C kernel reads
    them unchecked."""
    cached = getattr(graph, "_refine_scratch", None)
    if cached is None:
        n = graph.vertex_count
        indptr, nbr = graph.indptr, graph.neighbors
        if not (_is_int32_vector(indptr, n + 1)
                and _is_int32_vector(nbr, len(nbr))
                and indptr[0] == 0 and indptr[-1] == len(nbr)
                and (np.diff(indptr) >= 0).all()
                and (len(nbr) == 0 or 0 <= nbr.min() <= nbr.max() < n)):
            raise ValueError("graph is not a contiguous int32 CSR "
                             "adjacency over its own vertices")
        pool = (np.empty(n + 1, dtype=np.int32),          # queue
                np.zeros(n, dtype=np.int8),               # in_queue
                np.zeros(n, dtype=np.int32),              # cnt
                np.empty(n, dtype=np.int32),              # scratch
                np.empty(graph.max_degree + 2, dtype=np.int32),  # bucket
                np.empty(n, dtype=np.int32),              # cls_list
                np.zeros(n, dtype=np.int32))              # tcnt
        cached = pool, _ptrs(indptr, nbr, *pool)
        graph._refine_scratch = cached
    return cached


def _enqueue(pool, classes) -> int:
    """Queue each of `classes` once on the pool's empty worklist; the
    queue's tail."""
    queue, in_queue = pool[0], pool[1]
    qtail = 0
    for c in classes:
        if not in_queue[c]:
            queue[qtail] = c
            qtail += 1
            in_queue[c] = 1
    return qtail


def _python_refinement(graph: ColoredGraph, coloring: Coloring,
                       initial_classes, journal=(None, None, None),
                       stop=(0, 0, 0)):
    """Refine `coloring` in place with the Python kernel from the
    splitters `initial_classes`, unchecked: the caller has checked the
    coloring, or made it by splits and refinements of a checked one,
    which keep an ordered partition.  A session passes its journal
    = (jd, jl, jc), which logs every write.  `stop` = (lo, hi, want)
    with want > 0 ends the run before its next splitter once the slots
    [lo, hi), a union of classes, hold want classes."""
    pool, _ = _scratch_pool(graph)
    qtail = _enqueue(pool, initial_classes)
    _refine_kernel(graph.indptr, graph.neighbors,
                   coloring.order, coloring.pos, coloring.color,
                   coloring.clen, pool[0], pool[1], 0, qtail, *pool[2:],
                   *journal, *stop)


def _run_refinement(graph: ColoredGraph, coloring: Coloring,
                    initial_classes):
    """Check `coloring`, then refine it in place from the splitters
    `initial_classes`, in C where the library loads."""
    n = graph.vertex_count
    lib = native_kernel()
    _check_coloring(coloring, n, lib)
    if lib is None:
        _python_refinement(graph, coloring, initial_classes)
        return
    pool, pool_ptrs = _scratch_pool(graph)
    lib.refine(*pool_ptrs, len(pool[0]), 0, _enqueue(pool, initial_classes),
               *_ptrs(coloring.order, coloring.pos, coloring.color,
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
        base, refined = self.base, self.coloring
        sigma = int(base_color)
        if base.clen[sigma] == 0 or base.color[base.order[sigma]] != sigma:
            raise KeyError(f"unknown base color {base_color}")
        order, color, clen = refined.order, refined.color, refined.clen
        end = sigma + int(base.clen[sigma])
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


def _split_off(coloring: Coloring, v: int):
    """Make v a fresh singleton at the front of its class, in place; the
    rest of the class takes the next color id.

    Returns the refinement worklist, the (journal row, index) pairs of the
    order and clen entries written, and the recolored vertices (a view of
    ``order``, valid until the next refinement)."""
    c = int(coloring.color[v])
    size = int(coloring.clen[c])
    rest = c + 1
    if size == 1:
        return [c], (), coloring.order[rest:rest]
    p = int(coloring.pos[v])
    other = int(coloring.order[c])
    coloring.order[c], coloring.order[p] = v, other
    coloring.pos[v], coloring.pos[other] = c, p
    coloring.clen[c] = 1
    coloring.clen[rest] = size - 1
    moved = coloring.order[rest:c + size]
    coloring.color[moved] = rest
    written = ((JRN_ORDER, c), (JRN_ORDER, p), (JRN_CLEN, c),
               (JRN_CLEN, rest))
    return [c, rest], written, moved


def individualize_refine(graph: ColoredGraph, pi: Coloring,
                         v: int) -> RefinementReport:
    """Split v into a fresh singleton at the front of its class in a copy
    of pi, then refine; the report is taken against pi."""
    refined = pi.copy()
    worklist, _, _ = _split_off(refined, v)
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


def _dive(graph: ColoredGraph, pi: Coloring, rng) -> Coloring:
    """The discrete leaf that a chain of `individualize_refine` calls
    reaches from pi, each on a random member of the first class of more
    than one member.  The chain runs on one copy of pi, unchecked:
    `dive_pairs` has checked pi, and a split and a refinement keep an
    ordered partition."""
    leaf = pi.copy()
    # the classes before an individualized one are singletons and stay
    # so, as refinement splits a class only inside its own slots
    c = _next_nonsingleton(leaf.clen, 0)
    while c is not None:
        v = int(rng.choice(leaf.class_members(c)))
        worklist, _, _ = _split_off(leaf, v)
        _python_refinement(graph, leaf, worklist)
        c = _next_nonsingleton(leaf.clen, c)
    return leaf


def dive_pairs(graph: ColoredGraph, pi: Coloring, rng, rows: int):
    """The rows x nlit int32 pairing table of `rows` pairs of random
    dives from pi, nlit being the graph's literal vertex count.  A dive
    is `_dive`; row r pairs the leaves d1, d2 of pair r positionally,
    literal l going to the vertex that d2 holds in the slot where d1
    holds l.  The dives draw from `rng`, a `random.Random`: where the C
    kernel runs, its `dive_pairs` runs them all on a port of CPython's
    MT19937 started from rng's state words, which go back into rng, so
    both kernels leave rng alike.  Raises ValueError, before any
    refinement, when pi is no ordered-partition coloring of the graph's
    vertices."""
    n, nlit = graph.vertex_count, graph.num_literal_vertices
    lib = native_kernel()
    _check_coloring(pi, n, lib)
    table = np.empty((rows, nlit), dtype=np.int32)
    if lib is None:
        for row in table:
            d1, d2 = _dive(graph, pi, rng), _dive(graph, pi, rng)
            np.take(d2.order, d1.pos[:nlit], out=row)
        return table
    version, mt, gauss_next = rng.getstate()
    mt = np.array(mt, dtype=np.uint32)
    work = np.empty((8, n), dtype=np.int32)  # two colorings' four arrays
    pool, pool_ptrs = _scratch_pool(graph)
    lib.dive_pairs(*pool_ptrs, len(pool[0]),
                   *_ptrs(pi.order, pi.pos, pi.color, pi.clen),
                   *_ptrs(*work), n, nlit, rows, table.ctypes.data,
                   mt.ctypes.data)
    rng.setstate((version, tuple(mt.tolist()), gauss_next))
    return table


def _rollback_kernel(jd, jl, jc, w_order, w_pos, w_color, w_clen,
                     b_order, b_color, b_clen):
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


class IRSession:
    """Reusable individualize-refine workspace over a fixed base coloring.

    The session refines one in-place working copy and journals, per
    row, each order slot, color and class length it writes, so that a
    rollback copies exactly those back from the base; `pos` is rebuilt
    from the logged order slots.  `push(v)` individualizes v in the
    current working coloring and refines; pushes stack, each logging
    against the base, and one rollback undoes them all.
    `individualize(v)` is a rollback followed by `push(v)`.  Either costs
    O(touched) instead of O(vertices), and where the library loads is
    one call of the C `session_push`.  `individualize(v, until)` may
    stop the refinement early; see there.

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
        _check_coloring(base, n, native_kernel())
        self.graph = graph
        self.base = base
        self.work = work = base.copy()
        self._jd = np.zeros((3, n), dtype=np.int8)
        self._jl = np.empty((3, n), dtype=np.int32)
        self._jc = np.zeros(3, dtype=np.int64)
        self._journal = (self._jd, self._jl, self._jc)
        self._arrays = (work.order, work.pos, work.color, work.clen,
                        base.order, base.color, base.clen)
        # none of these arrays is ever replaced, so the arguments of the
        # C `session_push` up to v are taken once here
        pool, pool_ptrs = _scratch_pool(graph)
        self._push_args = (*pool_ptrs, len(pool[0]), *_ptrs(*self._arrays),
                           *_ptrs(*self._journal), n)
        self._stopped = False

    def _rollback(self):
        _rollback_kernel(*self._journal, *self._arrays)

    def _log(self, a: int, i: int):
        """Append index i to journal row a unless the row holds it."""
        if not self._jd[a, i]:
            self._jd[a, i] = 1
            self._jl[a, self._jc[a]] = i
            self._jc[a] += 1

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
            base = self.base
            if not (0 <= sigma < self.graph.vertex_count
                    and base.clen[sigma] > 0
                    and base.color[base.order[sigma]] == sigma):
                raise KeyError(f"unknown base color {sigma}")
            stop = (sigma, sigma + int(base.clen[sigma]), want)
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
        `reset`, and refine up to `stop` (see `_python_refinement`).
        Raises RuntimeError, before any write, when a journal row holds
        more entries than slots, as each row logs an index at most once;
        and after the refinement when one does then."""
        n = self.graph.vertex_count
        if not 0 <= v < n:
            raise IndexError(f"vertex {v} out of range")
        lib = native_kernel()
        if lib is not None:
            if lib.session_push(*self._push_args, v, reset, *stop):
                raise self._overflow()
            return RefinementReport(base=self.base, coloring=self.work)
        if self._jc.max() > n:
            raise self._overflow()
        if reset:
            self._rollback()
        refined = self.work
        # rollback copies every logged index back from the base, so the
        # split may write before its indices are logged
        worklist, written, moved = _split_off(refined, v)
        # v already heading its class gives c == p; _log keeps one copy
        for a, i in written:
            self._log(a, i)
        # moved holds distinct vertices; log those the row lacks, in
        # slot order
        fresh = moved[self._jd[JRN_COLOR, moved] == 0]
        k = int(self._jc[JRN_COLOR])
        self._jd[JRN_COLOR, fresh] = 1
        self._jl[JRN_COLOR, k:k + len(fresh)] = fresh
        self._jc[JRN_COLOR] = k + len(fresh)
        # the working coloring is equitable, so the new singleton alone
        # is splitter enough (see the class docstring)
        _python_refinement(self.graph, refined, worklist[:1],
                           journal=self._journal, stop=stop)
        if self._jc.max() > n:
            raise self._overflow()
        return RefinementReport(base=self.base, coloring=refined)


def initial_coloring(graph: ColoredGraph) -> Coloring:
    return Coloring.from_color_map(graph.color_keys)
