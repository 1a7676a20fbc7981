# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled twin of ``_kernel_py``: same five functions, same semantics.

The hot loops run on C ``long long`` arrays, so intermediates must fit in
64 bits; every caller in the package stays far below that (exponents and
levels are bounded by the saturation caps).  Enumeration order matches
the pure version exactly: ascending lexicographic, last coordinate
varying fastest.
"""

from libc.stdlib cimport free, malloc

BACKEND_NAME = "cython"


cdef long long *_ll_array(object values, Py_ssize_t count) except NULL:
    # always allocates at least one slot so zero-length arrays stay valid
    cdef long long *buf = <long long *> malloc(max(count, 1) * sizeof(long long))
    cdef Py_ssize_t i
    if buf == NULL:
        raise MemoryError()
    try:
        for i in range(count):
            buf[i] = values[i]
    except BaseException:
        free(buf)
        raise
    return buf


def enum_points(normals, offsets, lo, hi):
    """Integer points u with lo <= u <= hi and <normal, u> >= offset per row."""
    cdef Py_ssize_t n = min(len(lo), len(hi))
    cdef Py_ssize_t m = min(len(normals), len(offsets))
    cdef Py_ssize_t i, j, lr
    cdef long long s
    cdef bint ok
    cdef long long *lo_c = NULL
    cdef long long *hi_c = NULL
    cdef long long *offs = NULL
    cdef long long *rows = NULL
    cdef long long *rlen = NULL
    cdef long long *u = NULL
    out = []
    if n == 0:
        # dot products over no coordinates are all zero
        for i in range(m):
            if 0 < <long long> offsets[i]:
                return out
        out.append(())
        return out
    try:
        lo_c = _ll_array([int(x) for x in lo[:n]], n)
        hi_c = _ll_array([int(x) for x in hi[:n]], n)
        offs = _ll_array([int(x) for x in offsets[:m]], m)
        rlen = _ll_array([min(len(normals[i]), n) for i in range(m)], m)
        flat = []
        for i in range(m):
            row = normals[i]
            flat.extend(int(x) for x in row[:rlen[i]])
            flat.extend([0] * (n - rlen[i]))
        rows = _ll_array(flat, m * n)
        for j in range(n):
            if lo_c[j] > hi_c[j]:
                return out
        u = _ll_array([int(x) for x in lo[:n]], n)
        while True:
            ok = True
            for i in range(m):
                s = 0
                for j in range(rlen[i]):
                    s += rows[i * n + j] * u[j]
                if s < offs[i]:
                    ok = False
                    break
            if ok:
                out.append(tuple([u[j] for j in range(n)]))
            j = n - 1
            while j >= 0:
                if u[j] < hi_c[j]:
                    u[j] += 1
                    break
                u[j] = lo_c[j]
                j -= 1
            if j < 0:
                break
        return out
    finally:
        free(lo_c); free(hi_c); free(offs); free(rows); free(rlen); free(u)


def dominates_any(point, gens):
    """True when point >= g componentwise for at least one generator g."""
    cdef Py_ssize_t n = len(point)
    cdef Py_ssize_t i, ml
    cdef bint ok
    cdef long long *p = _ll_array([int(x) for x in point], n)
    try:
        for g in gens:
            ml = min(n, len(g))
            ok = True
            for i in range(ml):
                if p[i] < <long long> g[i]:
                    ok = False
                    break
            if ok:
                return True
        return False
    finally:
        free(p)


cdef struct _ChartC:
    Py_ssize_t d          # image dimension
    Py_ssize_t ng         # generator count
    long long *rows       # d * n, zero-padded
    long long *rlen       # effective row lengths
    long long *shift      # d
    long long *gens       # ng * d, padded with LLONG-min sentinel unused
    long long *glen       # effective generator lengths


cdef void _free_charts(_ChartC *cs, Py_ssize_t count):
    cdef Py_ssize_t i
    if cs == NULL:
        return
    for i in range(count):
        free(cs[i].rows); free(cs[i].rlen); free(cs[i].shift)
        free(cs[i].gens); free(cs[i].glen)
    free(cs)


cdef _ChartC *_build_charts(charts, Py_ssize_t n) except NULL:
    cdef Py_ssize_t nc = len(charts)
    cdef Py_ssize_t ci, d, ng, i
    cdef _ChartC *cs = <_ChartC *> malloc(max(nc, 1) * sizeof(_ChartC))
    if cs == NULL:
        raise MemoryError()
    for ci in range(nc):
        cs[ci].rows = cs[ci].rlen = cs[ci].shift = NULL
        cs[ci].gens = cs[ci].glen = NULL
    try:
        for ci in range(nc):
            rows, shift, gens = charts[ci]
            d = min(len(rows), len(shift))
            ng = len(gens)
            cs[ci].d = d
            cs[ci].ng = ng
            cs[ci].shift = _ll_array([int(x) for x in shift[:d]], d)
            cs[ci].rlen = _ll_array(
                [min(len(rows[i]), n) for i in range(d)], d)
            flat = []
            for i in range(d):
                flat.extend(int(x) for x in rows[i][:cs[ci].rlen[i]])
                flat.extend([0] * (n - cs[ci].rlen[i]))
            cs[ci].rows = _ll_array(flat, d * n)
            cs[ci].glen = _ll_array([min(d, len(g)) for g in gens], ng)
            flat = []
            for i in range(ng):
                g = gens[i]
                flat.extend(int(x) for x in g[:cs[ci].glen[i]])
                flat.extend([0] * (d - cs[ci].glen[i]))
            cs[ci].gens = _ll_array(flat, ng * d)
        return cs
    except BaseException:
        _free_charts(cs, nc)
        raise


cdef bint _point_in_all(const long long *u, Py_ssize_t n, _ChartC *cs,
                        Py_ssize_t nc, long long *img) nogil:
    cdef Py_ssize_t ci, i, j, gi
    cdef long long s
    cdef bint hit, ok
    for ci in range(nc):
        for i in range(cs[ci].d):
            s = cs[ci].shift[i]
            for j in range(cs[ci].rlen[i]):
                s += cs[ci].rows[i * n + j] * u[j]
            img[i] = s
        hit = False
        for gi in range(cs[ci].ng):
            ok = True
            for i in range(cs[ci].glen[gi]):
                if img[i] < cs[ci].gens[gi * cs[ci].d + i]:
                    ok = False
                    break
            if ok:
                hit = True
                break
        if not hit:
            return False
    return True


def filter_points_in_ideals(points, charts):
    """Keep points whose image under every chart map lies in its ideal."""
    cdef Py_ssize_t nc = len(charts)
    cdef Py_ssize_t n = 0, i, d_max = 1
    cdef _ChartC *cs = NULL
    cdef long long *u = NULL
    cdef long long *img = NULL
    out = []
    if len(points) == 0:
        return out
    n = len(points[0])
    try:
        cs = _build_charts(charts, n)
        for i in range(nc):
            if cs[i].d > d_max:
                d_max = cs[i].d
        u = <long long *> malloc(max(n, 1) * sizeof(long long))
        img = <long long *> malloc(d_max * sizeof(long long))
        if u == NULL or img == NULL:
            raise MemoryError()
        for pt in points:
            for i in range(n):
                u[i] = pt[i]
            if _point_in_all(u, n, cs, nc, img):
                out.append(tuple([int(pt[i]) for i in range(n)]))
        return out
    finally:
        _free_charts(cs, nc)
        free(u)
        free(img)


def minkowski_sum(a, b):
    """All pairwise sums, deduplicated, sorted lex."""
    seen = set()
    for g in a:
        for h in b:
            seen.add(tuple([x + y for x, y in zip(g, h)]))
    return sorted(seen)


def minimalize(gens):
    """Drop generators dominating another kept one; ascending scan as in py."""
    cdef Py_ssize_t n, i, j, ml, kept
    cdef bint ok, dominated
    cdef long long *buf = NULL
    uniq = sorted({tuple([int(x) for x in g]) for g in gens})
    if not uniq:
        return []
    n = max(len(g) for g in uniq)
    buf = <long long *> malloc(max(len(uniq) * n, 1) * sizeof(long long))
    if buf == NULL:
        raise MemoryError()
    out = []
    kept = 0
    try:
        for g in uniq:
            dominated = False
            for j in range(kept):
                ml = min(len(out[j]), len(g))
                ok = True
                for i in range(ml):
                    if <long long> g[i] < buf[j * n + i]:
                        ok = False
                        break
                if ok:
                    dominated = True
                    break
            if not dominated:
                for i in range(len(g)):
                    buf[kept * n + i] = g[i]
                out.append(g)
                kept += 1
        return out
    finally:
        free(buf)
