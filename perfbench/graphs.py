"""Seeded input graphs for the gbis benchmark, with reference widths.

The benchmark generates every graph itself, so the program under test
receives only edge-list payloads and the benchmark keeps its own copy to
recount cuts. Each graph carries:

  ref   -- the width `cut_ratio` divides by: the planted width for Gbreg
           and G2set, the exact or known width for trees, ladders and
           grids, and |E|/2 (the mean cut of a random bisection) for Gnp;
  lower -- a width no legal bisection can beat, where one is known.
           No answer may cut fewer edges.
"""

import random


class Graph:
    """An undirected, unweighted graph on vertices 0..n-1."""

    def __init__(self, name, cls, n, edges, ref=None, lower=None):
        self.name = name
        self.cls = cls
        self.n = n
        self.edges = edges  # list of (u, v) with u < v, no duplicates
        self.ref = ref
        self.lower = lower
        self._text = None

    @property
    def m(self):
        return len(self.edges)

    def text(self):
        """The gbis edge-list payload (docs/FORMATS.md)."""
        if self._text is None:
            lines = [f"{self.n} {len(self.edges)}"]
            lines += [f"{u} {v}" for u, v in self.edges]
            self._text = "\n".join(lines) + "\n"
        return self._text

    def write(self, path):
        with open(path, "w") as out:
            out.write(self.text())


def recount(graph, sides):
    """Checks a "0"/"1" side string against the graph.

    Returns (cut, problem): problem is None for a legal balanced
    bisection, else a one-line reason."""
    if len(sides) != graph.n or set(sides) - {"0", "1"}:
        return None, f"{graph.name}: side string has wrong length or symbols"
    ones = sides.count("1")
    if abs(graph.n - 2 * ones) > 1:
        return None, f"{graph.name}: unbalanced sides ({graph.n - ones}/{ones})"
    cut = sum(1 for u, v in graph.edges if sides[u] != sides[v])
    return cut, None


def _canon(u, v):
    return (u, v) if u < v else (v, u)


def _random_pairs(rng, count, pick, forbid):
    """Draws `count` distinct new edges, each from pick(); skips loops
    and edges already in `forbid` (which it extends)."""
    out = []
    while len(out) < count:
        u, v = pick()
        if u == v:
            continue
        e = _canon(u, v)
        if e in forbid:
            continue
        forbid.add(e)
        out.append(e)
    return out


def _relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(_canon(perm[u], perm[v]) for u, v in edges)


def gnp(rng, n, degree, name=None):
    """Sparse Gnp with mean degree `degree` (exactly n*degree/2 edges)."""
    seen = set()
    edges = _random_pairs(rng, n * degree // 2,
                          lambda: (rng.randrange(n), rng.randrange(n)), seen)
    return Graph(name or f"gnp{n}", "gnp", n, sorted(edges),
                 ref=len(edges) / 2)


def g2set(rng, n, degree, width, name=None):
    """Two-set graph: random edges inside each half, `width` crossing."""
    half = (n + 1) // 2
    seen = set()

    def inside():
        if rng.random() < half / n:
            return rng.randrange(half), rng.randrange(half)
        return rng.randrange(half, n), rng.randrange(half, n)

    edges = _random_pairs(rng, n * degree // 2 - width, inside, seen)
    edges += _random_pairs(
        rng, width, lambda: (rng.randrange(half), rng.randrange(half, n)), seen)
    return Graph(name or f"g2set{n}", "g2set", n, _relabel(rng, n, edges),
                 ref=width)


def gbreg(rng, n, width, degree, name=None):
    """Planted-width regular graph Gbreg(n, b, d): `width` edges cross the
    planted halves, every vertex has degree `degree` where the stub
    pairing allows it (an odd stub count leaves one vertex a stub short)."""
    half = (n + 1) // 2
    sides = [range(half), range(half, n)]
    stubs = [[v for v in s for _ in range(degree)] for s in sides]
    for s in stubs:
        rng.shuffle(s)
    seen = set()
    edges = []
    crossing = 0
    while crossing < width:
        u, v = stubs[0].pop(), stubs[1].pop()
        e = _canon(u, v)
        if e in seen:
            continue
        seen.add(e)
        edges.append(e)
        crossing += 1
    for s in stubs:
        for _ in range(8):  # re-pair leftover stubs that formed loops/duplicates
            rng.shuffle(s)
            left = []
            for i in range(0, len(s) - 1, 2):
                e = _canon(s[i], s[i + 1])
                if s[i] == s[i + 1] or e in seen:
                    left += [s[i], s[i + 1]]
                else:
                    seen.add(e)
                    edges.append(e)
            s[:] = left
            if len(s) < 2:
                break
    return Graph(name or f"gbreg{n}", "gbreg", n, _relabel(rng, n, edges),
                 ref=width)


def ladder(n, name=None):
    """Ladder with n//2 rungs; an odd n hangs one pendant vertex off a
    corner. Both have bisection width 2 (two rail edges)."""
    r = n // 2
    edges = [(i, i + 1) for i in range(r - 1)]
    edges += [(r + i, r + i + 1) for i in range(r - 1)]
    edges += [(i, r + i) for i in range(r)]
    if n % 2:
        edges.append((0, n - 1))
    return Graph(name or f"ladder{n}", "ladder", n, sorted(edges), ref=2, lower=2)


def grid(rows, cols, name=None):
    """rows x cols grid. With r = min side, a straight cut of r edges
    bisects when the other side is even; otherwise a one-step staircase
    needs r+1. No bisection cuts fewer than r edges."""
    n = rows * cols
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    r, c = sorted((rows, cols))
    known = r if c % 2 == 0 else min(c, r + 1)
    return Graph(name or f"grid{rows}x{cols}", "grid", n, sorted(edges),
                 ref=known, lower=r)


def bintree(n, name=None):
    """Complete binary tree in heap order. Its exact width is filled in
    from the program's exact tree solver (workloads.fill_tree_refs)."""
    edges = sorted(((i - 1) // 2, i) for i in range(1, n))
    return Graph(name or f"bintree{n}", "bintree", n, edges)


def class_set(seed):
    """The paper's graph classes at about 1000 and 2000 vertices, each at an
    even and an odd |V|: 24 graphs. Shapes are fixed; `seed` draws the
    random instances."""
    rng = random.Random(f"classes-{seed}")
    out = []
    for size in (1000, 2000):
        for n in (size, size + 1):
            out.append(gbreg(rng, n, 8 if size == 1000 else 16,
                             3 if size == 1000 else 4))
            out.append(g2set(rng, n, 3, size // 100))
            out.append(gnp(rng, n, 5))
            out.append(ladder(n))
            out.append(bintree(n))
        if size == 1000:
            out.append(grid(32, 32))
            out.append(grid(31, 33))
        else:
            out.append(grid(40, 50))
            out.append(grid(41, 49))
    return out


def apply_batch(graph, batch, name):
    """Applies a mutate batch with the service's documented semantics
    (vertex adds, edge adds, edge deletes, vertex deletes with compact
    renumbering) and returns the child graph."""
    n = graph.n + batch.get("add_vertices", 0)
    edges = set(graph.edges)
    add = batch.get("add_edges", [])
    for i in range(0, len(add), 2):
        edges.add(_canon(add[i], add[i + 1]))
    dele = batch.get("del_edges", [])
    for i in range(0, len(dele), 2):
        edges.discard(_canon(dele[i], dele[i + 1]))
    gone = set(batch.get("del_vertices", []))
    if gone:
        new_id = {}
        for v in range(n):
            if v not in gone:
                new_id[v] = len(new_id)
        edges = {_canon(new_id[u], new_id[v]) for u, v in edges
                 if u not in gone and v not in gone}
        n = len(new_id)
    return Graph(name, graph.cls, n, sorted(edges))
