"""Test oracles, independent routes that the library does not take:

- a triangle's three corners read together off its dart: base, head and
  left face, the base violet iff the triangle is white (the library reads one
  corner at a time with ``Trinity.corner``);
- exhaustive Tutte-matching enumeration, every bijection from the non-root
  vertices to adjacent non-root white triangles by backtracking (the library
  counts them by a frontier dynamic program and lists none);
- a selector's hypergraph view, its colour graph with the two vertex lists
  read off the map's classes, and the selector's hyperedges and root
  polytope straight from that map, scanning every edge once per hyperedge
  and placing each generator by vertex id (the library reads the hyperedges
  and the root polytope off one memoized incidence per selector, the white
  triangles' corners, with no map);
- exhaustive spanning-tree enumeration and the hypertree sets it gives (the
  library takes hypertrees from Kalman's mu-lattice and the trees of its
  arborescence triangulations; this enumerates every spanning tree, far more
  trees than hypertrees), each tree's hypertree counted per vertex id;
- the spanning out-arborescences of a directed dual by generating and
  testing: every choice of one in-edge per non-root vertex, kept when it
  reaches every vertex from the root (the library walks only choices that
  close no cycle, so it filters none);
- fraction-free integer ranks and the affine dimension of a point set (the
  library reads a GP, trimmed or hypertree polytope's dimension off the
  exchanges its lattice points take, and a root polytope's off |U| + |V|);
- rational linear algebra: scaling rows to integers, determinants, ranks and
  affine solves over ``Fraction``;
- lattice volumes: the normalized volume of a simplex (gcd of integer
  minors) and of a polytope (its placing triangulation), which the library
  needs no longer: its tree simplices are unimodular (Postnikov's Lemma
  12.5), and one generic point proves they cover the root polytope once;
- that generic point as a rational point, and whether a simplex holds it,
  from exact barycentric coordinates;
- the simplex of a tree, its edges checked for a cycle by union-find (the
  library's ridge certificate proves its trees are trees: n - 1 edges that
  span);
- Postnikov's Lemma 12.6 on every pair of tree simplices, against the LP
  common-face test of two simplices (the library checks its triangulations
  by one ridge certificate instead);
- the Cayley slices of a root polytope, against the scaled GP polytopes;
- the lattice points of a subset-inequality description by the walk that
  recomputes every prefix subset sum at each node, 2^k of them at depth k
  (the library carries residual bound tables down the walk instead);
- the vertices among those lattice points by the rank of their tight rows
  (the library reads them off the lattice instead: a point is a vertex iff
  no two coordinates can be exchanged, one up and one down, both ways);
- the skein recursion on arc-labelled crossings, which relabels every
  crossing on each Reidemeister-I move and smoothing (the library runs the
  skein on Gauss codes);
- the skein recursion on Gauss codes, which drops kinks and rescans the code
  at every switch child, builds a polynomial per node and multiplies the
  unlink factor out one component at a time (the library reads each node's
  code once from the crossings its ancestors met, switching nothing, and
  sums its leaves into one polynomial).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Optional, Sequence

from trinities.geometry import VPolytope, canonical_lattice_set
from trinities.linalg import OPTIMAL, DimensionError, RatVec, fvec, integer_det, lp_solve
from trinities.links import Crossing, LaurentPoly2, LinkDiagram, _drop_kinks, _smoothed, component_count, gauss_code
from trinities.maps import PlanarMap, derived
from trinities.polytopes import RootPolytope, TaggedPolytope
from trinities.trinity import (
    COLOUR_SELECTORS,
    EMERALD,
    RED,
    VIOLET,
    DirectedDual,
    InternalConsistencyError,
    Trinity,
    colour_graph,
    colour_of_hypergraph,
    non_root_vertices,
    non_root_white_triangles,
)

from helpers import switched


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def copy(self) -> "_DSU":
        d = _DSU(0)
        d.parent = list(self.parent)
        return d


def hypergraph_view(t: Trinity, code: str) -> tuple[PlanarMap, tuple[int, ...], tuple[int, ...]]:
    """(map, x vertex ids in map, y vertex ids in map) for a hypergraph
    selector: X are the hypergraph's vertices, Y its hyperedges, and the map
    is the colour graph of the remaining colour."""
    colour = colour_of_hypergraph(code)
    cm, bip = colour_graph(t, colour)
    a, b = tuple(sorted(bip.class_a)), tuple(sorted(bip.class_b))
    return (cm, a, b) if code == COLOUR_SELECTORS[colour] else (cm, b, a)


def hyperedges(m: PlanarMap, x_ids: Sequence[int], y_ids: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """For each y (in order) the sorted distinct x-positions adjacent to it."""
    x_pos = {v: i for i, v in enumerate(x_ids)}
    out = []
    for y in y_ids:
        nbrs = set()
        for u, v in m.edges:
            if u == y and v in x_pos:
                nbrs.add(x_pos[v])
            elif v == y and u in x_pos:
                nbrs.add(x_pos[u])
        if not nbrs:
            raise ValueError("hyperedge with no vertices")
        out.append(tuple(sorted(nbrs)))
    return tuple(out)


def root_polytope(m: PlanarMap, u_ids: Sequence[int], v_ids: Sequence[int]) -> RootPolytope:
    """Convex hull of e_u - e_v over the edges, U coordinates first, of
    dimension |U| + |V| - 2."""
    u_pos = {x: i for i, x in enumerate(u_ids)}
    v_pos = {x: len(u_ids) + i for i, x in enumerate(v_ids)}
    dim = len(u_ids) + len(v_ids)
    gens, ends = [], []
    for a, b in m.edges:
        u, v = (a, b) if a in u_pos else (b, a)
        p = [0] * dim
        p[u_pos[u]] = 1
        p[v_pos[v]] = -1
        gens.append(tuple(p))
        ends.append((u_pos[u], v_pos[v]))
    return RootPolytope(
        generators=tuple(gens),
        vertices=canonical_lattice_set(gens),
        affine_dim=dim - 2,
        u_size=len(u_ids),
        v_size=len(v_ids),
        ends=tuple(ends),
    )


def enumerate_spanning_trees(n_vertices: int, edges: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """All spanning trees as sorted edge-id tuples, in lexicographic order."""
    target = n_vertices - 1
    m = len(edges)
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(i: int, dsu: _DSU, n_in: int) -> None:
        if n_in == target:
            out.append(tuple(chosen))
            return
        if i == m or n_in + (m - i) < target:
            return
        u, v = edges[i]
        if dsu.find(u) != dsu.find(v):
            nxt = dsu.copy()
            nxt.union(u, v)
            chosen.append(i)
            rec(i + 1, nxt, n_in + 1)
            chosen.pop()
        rec(i + 1, dsu, n_in)

    rec(0, _DSU(n_vertices), 0)
    return tuple(out)


@derived
def spanning_trees_of_map(m: PlanarMap) -> tuple[tuple[int, ...], ...]:
    """The spanning trees of the map, enumerated once per map: a hypergraph
    and its transpose share the enumeration of their colour graph."""
    return enumerate_spanning_trees(m.n_vertices, m.edges)


def hypertree_of(
    tree_edges: Iterable[int], edges: Sequence[tuple[int, int]], side: Sequence[int]
) -> tuple[int, ...]:
    """Degree-minus-one vector of the tree on the given vertices, in their order."""
    deg: Counter = Counter()
    side_set = set(side)
    for e in tree_edges:
        for v in edges[e]:
            if v in side_set:
                deg[v] += 1
    vec = tuple(deg[v] - 1 for v in side)
    if any(x < 0 for x in vec):
        raise ValueError("tree misses a vertex of the chosen side")
    return vec


def hypertree_set_of_graph(m: PlanarMap, side: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The degree-minus-one vectors of every spanning tree on ``side``."""
    return canonical_lattice_set(hypertree_of(t, m.edges, side) for t in spanning_trees_of_map(m))


def arborescences_by_filter(dd: DirectedDual, root: int) -> tuple[tuple[int, ...], ...]:
    """All spanning out-arborescences as sorted tuples of edge indices, in
    sorted order: each choice of one in-edge per non-root vertex that reaches
    every vertex from ``root``."""
    verts = list(dd.vertices)
    incoming: dict[int, list[int]] = {v: [] for v in verts}
    for i, (tail, head) in enumerate(dd.edges):
        if tail != head:
            incoming[head].append(i)
    choices = product(*(incoming[v] for v in verts if v != root))
    return tuple(sorted(tuple(sorted(pick)) for pick in choices if _reaches_all(dd, root, pick)))


def _reaches_all(dd: DirectedDual, root: int, choice: Sequence[int]) -> bool:
    """Whether the chosen edges reach every vertex from ``root``."""
    adj: dict[int, list[int]] = {v: [] for v in dd.vertices}
    for i in choice:
        tail, head = dd.edges[i]
        adj[tail].append(head)
    seen = {root}
    stack = [root]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def triangle_corners(t: Trinity, d: int) -> tuple[tuple[str, int], ...]:
    """The (colour, vertex) corners of dart d's triangle, read per dart: its
    base and head, the base violet iff the triangle is white, and its left
    face."""
    m = t.map
    base, head = m.vertex_of[d], m.vertex_of[d ^ 1]
    white = base in t.violet
    return ((VIOLET, base if white else head), (EMERALD, head if white else base), (RED, m.face_of[d]))


def enumerate_tutte_matchings(t: Trinity) -> tuple[tuple[tuple[tuple[str, int], int], ...], ...]:
    """All bijections from non-root vertices to adjacent non-root white triangles."""
    rows = non_root_vertices(t)
    cols = non_root_white_triangles(t)
    options = [tuple(c for c in cols if v in triangle_corners(t, c)) for v in rows]
    out: list[tuple[tuple[tuple[str, int], int], ...]] = []
    used: set[int] = set()
    pick: list[int] = []

    def backtrack(i: int) -> None:
        if i == len(rows):
            out.append(tuple(zip(rows, pick)))
            return
        for c in options[i]:
            if c not in used:
                used.add(c)
                pick.append(c)
                backtrack(i + 1)
                pick.pop()
                used.remove(c)

    backtrack(0)
    return tuple(out)


# ---------------------------------------------------------------------------
# Integer ranks and affine dimensions.
# ---------------------------------------------------------------------------


def extend_basis(basis: list[tuple[int, list[int]]], row: Sequence[int]) -> bool:
    """Reduce an integer row against an echelon basis of (pivot column, row)
    pairs, fraction-free; if anything is left, append it (divided by its gcd)
    with its first nonzero column as pivot and return True.

    Each basis row is zero at the pivots of the rows before it, so the basis
    restricted to its pivot columns is triangular with a nonzero diagonal:
    projecting the row span onto the pivot columns is injective.
    """
    row = list(row)
    for col, prow in basis:
        if row[col]:
            a, b = prow[col], row[col]
            row = [a * x - b * y for x, y in zip(row, prow)]
    lead = next((j for j, x in enumerate(row) if x), None)
    if lead is None:
        return False
    g = gcd(*row)
    basis.append((lead, [x // g for x in row]))
    return True


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free elimination."""
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        if extend_basis(basis, row) and len(basis) == len(row):
            break
    return len(basis)


def affine_dim(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine span of integer points."""
    if not points:
        raise ValueError("affine_dim of empty point set")
    return integer_rank([[x - y for x, y in zip(q, points[0], strict=True)] for q in points[1:]])


# ---------------------------------------------------------------------------
# Rational linear algebra.
# ---------------------------------------------------------------------------


def fmat(rows: Iterable[Iterable]) -> tuple[RatVec, ...]:
    return tuple(fvec(r) for r in rows)


def vec_sub(a: RatVec, b: RatVec) -> RatVec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def integral_row(row: Sequence) -> tuple[int, list[int]]:
    """(s, s * row) for the least common denominator s of the row's entries."""
    q = [x if isinstance(x, Rational) else Fraction(x) for x in row]
    s = lcm(*(x.denominator for x in q))
    return s, [x.numerator * (s // x.denominator) for x in q]


def det_exact(m: Sequence[Sequence]) -> Fraction:
    """Determinant of a rational matrix (exact): each row is scaled to integers
    and the integer determinant divided by the product of the scales."""
    scale, rows = 1, []
    for row in m:
        s, ints = integral_row(row)
        scale *= s
        rows.append(ints)
    return Fraction(integer_det(rows), scale)


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a rational matrix: the integer rank of its rows scaled to integers."""
    return integer_rank([integral_row(row)[1] for row in rows])


def solve_affine(columns: Sequence[RatVec], target: RatVec) -> Optional[RatVec]:
    """One solution c of sum(c_i * columns[i]) = target, or None if inconsistent.

    Underdetermined systems return an arbitrary (deterministic) solution with
    free variables set to zero.
    """
    n = len(columns)
    m = len(target)
    a = [[Fraction(columns[j][i]) for j in range(n)] + [Fraction(target[i])] for i in range(m)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pr = a[r]
        inv = 1 / pr[col]
        a[r] = [x * inv for x in pr]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for row, col in pivots:
        sol[col] = a[row][n]
    return tuple(sol)


# ---------------------------------------------------------------------------
# Lattice volumes and the generic point.
# ---------------------------------------------------------------------------


def _int_minors_gcd(rows: list[list[int]], first: Sequence[int]) -> int:
    """gcd of all maximal minors of an integer matrix of full row rank, trying
    the columns ``first`` (a nonzero minor) before the others."""
    g = 0
    for cols in chain([first], combinations(range(len(rows[0])), len(rows))):
        g = gcd(g, integer_det([[row[c] for c in cols] for row in rows]))
        if g == 1:
            return 1
    return g


def simplex_normalized_volume(vertices: Sequence[Sequence[int]]) -> int:
    """Normalized volume of a simplex with integer vertices w.r.t. the
    direction lattice of its span.

    The gcd of the maximal minors of the integer edge-vector matrix equals the
    index of the edge lattice inside its saturation, which is exactly the
    volume in a lattice basis of the span. Degenerate input returns 0.
    """
    if not vertices:
        raise DimensionError("empty vertex list")
    if not all(isinstance(x, int) for v in vertices for x in v):
        raise ValueError("normalized volume requires integer vertices")
    if len(vertices) == 1:
        return 1
    edges = [[x - y for x, y in zip(v, vertices[0], strict=True)] for v in vertices[1:]]
    basis: list[tuple[int, list[int]]] = []
    for e in edges:
        if not extend_basis(basis, e):
            return 0
    # The echelon pivot columns carry a nonzero minor, which is 1 for a
    # unimodular simplex.
    return _int_minors_gcd(edges, sorted(col for col, _ in basis))


def placing_triangulation(points: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Triangulation of conv(points) by placing the points in the given order.

    Returns simplices as sorted index tuples. Every input point must be a
    vertex of the hull of its predecessors plus itself (true for root
    polytopes); collinear degeneracies inside the current hull are rejected.

    Integer points, integer arithmetic throughout. The directions from the
    first point that span the placed points are kept as an echelon basis;
    projecting onto its pivot columns is injective on their span, so a point
    lies beyond a boundary facet exactly when the integer determinants of the
    facet against it and against the opposite vertex, over those columns,
    have opposite signs.
    """
    dirs = [[x - y for x, y in zip(p, points[0])] for p in points]
    basis: list[tuple[int, list[int]]] = []
    simplices: list[tuple[int, ...]] = [(0,)]
    for idx in range(1, len(points)):
        if extend_basis(basis, dirs[idx]):
            # Dimension jump: cone every simplex over the new point.
            simplices = [s + (idx,) for s in simplices]
            continue
        cols = [col for col, _ in basis]

        def side(facet: tuple[int, ...], q: int) -> int:
            return integer_det([[dirs[j][c] - dirs[q][c] for c in cols] for j in facet])

        new_simplices = []
        for facet, opposite in _boundary_facets(simplices):
            inside = side(facet, opposite)
            if inside == 0:
                raise ValueError("degenerate facet")
            if side(facet, idx) * inside < 0:
                new_simplices.append(facet + (idx,))
        if not new_simplices:
            raise ValueError("placed point is not outside the current hull")
        simplices = simplices + new_simplices
    return tuple(sorted(simplices))


def _boundary_facets(simplices: Sequence[tuple[int, ...]]):
    """Facets belonging to exactly one simplex, with the opposite vertex."""
    seen: dict[tuple[int, ...], list[int]] = {}
    for s in simplices:
        for drop in s:
            facet = tuple(v for v in s if v != drop)
            seen.setdefault(facet, []).append(drop)
    return [(facet, opps[0]) for facet, opps in seen.items() if len(opps) == 1]


def total_normalized_volume(points: Sequence[Sequence[int]]) -> int:
    """Normalized volume of conv(points), integer points, via the placing
    triangulation."""
    return sum(simplex_normalized_volume([points[i] for i in s]) for s in placing_triangulation(points))


def generic_point(rp: RootPolytope) -> RatVec:
    """The library certificate's generic point p(eps) at eps = 1/3:
    sum_k (1 + eps^(k+1)) g_k over the generators, normalized.

    A barycentric coordinate of p(eps) in a tree simplex has the numerator
    D + sum_k eps^(k+1) a_k with integers D and a_k in {-1, 0, 1}. At
    eps = 1/3 the tail after any index j is below eps^(j+1) / 2, so its sign
    is already that of the first nonzero term, as for every smaller eps.
    """
    weights = [1 + Fraction(1, 3 ** (k + 1)) for k in range(len(rp.generators))]
    total = sum(weights)
    return tuple(sum(w * g[i] for w, g in zip(weights, rp.generators)) / total for i in range(len(rp.generators[0])))


def simplex_holds_point(simplex: Sequence[Sequence[int]], point: RatVec) -> bool:
    """Whether every barycentric coordinate of the point in the simplex,
    solved exactly, is positive; False off its affine span."""
    columns = [fvec(v) + (Fraction(1),) for v in simplex]
    weights = solve_affine(columns, tuple(point) + (Fraction(1),))
    if weights is None:
        return False
    return all(w > 0 for w in weights)


# ---------------------------------------------------------------------------
# The LP common-face test and the Cayley slices.
# ---------------------------------------------------------------------------


def intersect_in_common_face(s1: Sequence[Sequence[int]], s2: Sequence[Sequence[int]]) -> bool:
    """True iff the simplices with integer vertices s1 and s2 intersect
    exactly in the hull of their shared vertices.

    Barycentric coordinates in a simplex are unique, so the intersection lies
    inside conv(shared) iff no intersection point puts positive weight on a
    non-shared vertex; each such weight is maximized by an exact LP. The
    oracle of ``tree_simplices_meet_in_common_face``.
    """
    if len(s1[0]) != len(s2[0]):
        raise DimensionError("simplices live in different ambient spaces")
    for s in (s1, s2):
        if affine_dim(s) != len(s) - 1:
            raise ValueError("input is not a simplex")
    shared = set(s1) & set(s2)
    n1, n2 = len(s1), len(s2)
    dim = len(s1[0])
    # Variables: barycentric weights of s1 then of s2.
    rows = []
    for i in range(dim):
        rows.append(tuple(v[i] for v in s1) + tuple(-w[i] for w in s2))
    rows.append(tuple(Fraction(1) for _ in range(n1)) + tuple(Fraction(0) for _ in range(n2)))
    rows.append(tuple(Fraction(0) for _ in range(n1)) + tuple(Fraction(1) for _ in range(n2)))
    b = tuple([Fraction(0)] * dim) + (Fraction(1), Fraction(1))
    free_indices = [i for i, v in enumerate(s1) if v not in shared]
    free_indices += [n1 + j for j, w in enumerate(s2) if w not in shared]
    for idx in free_indices:
        c = [Fraction(0)] * (n1 + n2)
        c[idx] = Fraction(1)
        status, value, _ = lp_solve(rows, b, tuple(c))
        if status == OPTIMAL and value > 0:
            return False
    return True


def tree_simplices_meet_in_common_face(rp: RootPolytope, tree1: Sequence[int], tree2: Sequence[int]) -> bool:
    """Whether the simplices of two spanning trees meet in a common face.

    Postnikov (*Permutohedra, associahedra, and beyond*, 2009, Lemma 12.6):
    they do iff the directed graph U(T, T'), T's edges oriented u -> v and
    T''s edges v -> u, has no directed cycle of length >= 4. An edge's
    (u, v) is read off its generator e_u - e_v. The pairwise oracle of the
    library's ridge certificate (``polytopes.ridge_certificate``), and itself
    checked against ``intersect_in_common_face``.

    U's two-cycles are the edges of both trees; they form a forest, and each
    of its trees is contracted to one node. The graph is bipartite, so a
    cycle of length >= 4 is any cycle longer than two; it uses an arc without
    its reverse and becomes a loop or a cycle of the contracted graph.
    Conversely such a loop or cycle lifts, through the two-cycles, to a
    closed walk along an arc x -> y without its reverse, and a shortest path
    back from y to x closes a cycle of length >= 4 with it. So the test is
    whether the contracted graph, loops included, is acyclic (Kahn's
    algorithm, linear time).
    """
    ends = [(g.index(1), g.index(-1)) for g in rp.generators]
    forward = {ends[e] for e in tree1}
    backward = {ends[e] for e in tree2}
    shared = forward & backward
    head = list(range(rp.u_size + rp.v_size))

    def find(x: int) -> int:
        while head[x] != x:
            x = head[x]
        return x

    for u, v in shared:
        head[find(u)] = find(v)
    node = [find(x) for x in range(len(head))]
    succ: dict[int, list[int]] = {x: [] for x in node}
    indegree = dict.fromkeys(node, 0)
    arcs = [(u, v) for u, v in forward - shared] + [(v, u) for u, v in backward - shared]
    for x, y in arcs:
        succ[node[x]].append(node[y])
        indegree[node[y]] += 1
    ready = [x for x, d in indegree.items() if not d]
    removed = 0
    while ready:
        removed += 1
        for y in succ[ready.pop()]:
            indegree[y] -= 1
            if not indegree[y]:
                ready.append(y)
    return removed == len(indegree)


def tree_simplex(rp: RootPolytope, tree_edges: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The sorted vertices of the simplex of an edge set without cycles: its
    generators are affinely independent iff the edges form a forest, which a
    union-find over their ends decides."""
    dsu = _DSU(rp.u_size + rp.v_size)
    for e in tree_edges:
        g = rp.generators[e]
        if not dsu.union(g.index(1), g.index(-1)):
            raise ValueError("edge set does not span a simplex (contains a cycle)")
    return tuple(sorted(rp.generators[e] for e in tree_edges))


def cayley_slice(rp: RootPolytope, side: str) -> VPolytope:
    """Exact intersection of the root polytope with the side's Cayley hyperplanes.

    Side "U" fixes the first block to 1/m each; side "V" fixes the second
    block to -1/n each. The result keeps all ambient coordinates.
    """
    m, n = rp.u_size, rp.v_size
    if side == "U":
        fixed = {i: Fraction(1, m) for i in range(m)}
    elif side == "V":
        fixed = {m + i: Fraction(-1, n) for i in range(n)}
    else:
        raise ValueError("side must be 'U' or 'V'")
    hits: set[RatVec] = set()
    for k in range(1, len(rp.vertices) + 1):
        for face in combinations(rp.vertices, k):
            pt = _affine_flat_point(face, fixed)
            if pt is not None:
                hits.add(pt)
    if not hits:
        raise InternalConsistencyError("slice is empty")
    return VPolytope.from_points(hits)


def _affine_flat_point(face: Sequence[Sequence[int]], fixed: dict[int, Fraction]) -> Optional[RatVec]:
    """Unique point of aff(face) meeting the fixed-coordinate flat, inside
    conv(face); None when absent or not unique."""
    base = face[0]
    dirs = [vec_sub(p, base) for p in face[1:]]
    rows = [tuple(d[i] for d in dirs) for i in fixed]
    target = tuple(c - base[i] for i, c in fixed.items())
    if rank(rows) < len(dirs):
        return None
    sol = solve_affine([tuple(r[j] for r in rows) for j in range(len(dirs))], target)
    if sol is None:
        return None
    weights = [Fraction(1) - sum(sol, Fraction(0))] + list(sol)
    if any(w < 0 for w in weights):
        return None
    pt = tuple(sum(w * p[i] for w, p in zip(weights, face)) for i in range(len(base)))
    if any(pt[i] != c for i, c in fixed.items()):
        return None
    return pt


def slice_matches_scaled_gp(rp: RootPolytope, side: str, gp: TaggedPolytope) -> bool:
    """Check the slice identity: side U equals -(1/m) times the GP polytope of
    the second block's hypergraph, side V equals (1/n) times that of the first."""
    sl = cayley_slice(rp, side)
    m, n = rp.u_size, rp.v_size
    if side == "U":
        projected = {v[m:] for v in sl.vertices}
        expected = {tuple(Fraction(-x, m) for x in p) for p in gp.vertices}
    else:
        projected = {v[:m] for v in sl.vertices}
        expected = {tuple(Fraction(x, n) for x in p) for p in gp.vertices}
    return projected == expected


# ---------------------------------------------------------------------------
# Subset-lattice walk over every prefix sum, and vertices by rank.
# ---------------------------------------------------------------------------


def subset_lattice(bound: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Lattice points of {x(S) <= b(S), x(all) = b(all)}, in lexicographic
    order, by the walk that rescans all 2^k prefix sums at depth k.

    Coordinates are fixed one at a time. Every set whose largest element is
    the coordinate k bounds x_k from above by b(S) - x(S - k) and, through
    x(S) = x(all) - x(all - S), from below by b(all) - b(all - S) - x(S - k),
    so each set is checked exactly once along a branch.
    """
    full = (1 << n) - 1
    total = bound[full]
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def descend(k: int, sums: list[int]) -> None:
        # sums[S] = x(S) for every subset S of the first k coordinates.
        if k == n:
            out.append(tuple(prefix))
            return
        bit = 1 << k
        hi = min(bound[s | bit] - x for s, x in enumerate(sums))
        lo = max(total - bound[full ^ (s | bit)] - x for s, x in enumerate(sums))
        for v in range(lo, hi + 1):
            prefix.append(v)
            descend(k + 1, sums + [x + v for x in sums])
            prefix.pop()

    descend(0, [0])
    return tuple(out)


def subset_vertices(bound: Sequence[int], n: int, points: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The points at which the tight sets (the whole set among them) have rank n:
    the integral vertices, so all of them when the polytope is integral."""
    rows = [[s >> i & 1 for i in range(n)] for s in range(1 << n)]
    out = []
    for p in points:
        sums = [0]
        for v in p:
            sums += [x + v for x in sums]
        tight = [rows[s] for s in range(1, 1 << n) if sums[s] == bound[s]]
        if integer_rank(tight) == n:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# Skein recursion on Gauss codes, one node per switch.
# ---------------------------------------------------------------------------

ONE = LaurentPoly2.from_dict({(0, 0): 1})
DELTA = LaurentPoly2.from_dict({(-1, -1): 1, (1, -1): -1})  # (v^-1 - v) / z


def shift(p: LaurentPoly2, v: int = 0, z: int = 0) -> LaurentPoly2:
    """p times v^v z^z."""
    return LaurentPoly2(tuple(sorted(((vv + v, zz + z), c) for (vv, zz), c in p.coeffs)))


def homfly_by_recursion(d: LinkDiagram) -> LaurentPoly2:
    """HOMFLY-PT polynomial of the diagram by the Gauss-code skein recursion
    that switches the first under-first crossing and recurses on both
    children; its leaves are its ``_split_factor`` calls."""
    return _gauss_homfly(gauss_code(d), tuple(c.sign for c in d.crossings), d.free_circles)


def _first_under(comps: Sequence[tuple[int, ...]]) -> Optional[int]:
    """The first crossing met under-first, reading the components in order
    from their starts; None for a descending diagram."""
    seen: set[int] = set()
    for comp in comps:
        for v in comp:
            c = v >> 1
            if c not in seen:
                if v & 1:
                    return c
                seen.add(c)
    return None


def _split_factor(n_components: int) -> LaurentPoly2:
    out = ONE
    for _ in range(n_components - 1):
        out = out * DELTA
    return out


def _gauss_homfly(comps: list[tuple[int, ...]], signs: tuple[int, ...], free: int) -> LaurentPoly2:
    comps, free = _drop_kinks(comps, free)
    c = _first_under(comps)
    if c is None:
        # Descending diagram: an unlink of its components.
        return _split_factor(len(comps) + free)
    switched = [tuple(v ^ 1 if v >> 1 == c else v for v in comp) for comp in comps]
    p_switch = _gauss_homfly(switched, signs[:c] + (-signs[c],) + signs[c + 1 :], free)
    p_smooth = _gauss_homfly(_smoothed(comps, c), signs, free)
    if signs[c] > 0:
        # v^-1 P+ - v P- = z P0  =>  P+ = v^2 P- + v z P0
        return shift(p_switch, v=2) + shift(p_smooth, v=1, z=1)
    # P- = v^-2 P+ - v^-1 z P0
    return shift(p_switch, v=-2) - shift(p_smooth, v=-1, z=1)


# ---------------------------------------------------------------------------
# Skein recursion on arc labels.
# ---------------------------------------------------------------------------


def homfly_by_relabeling(d: LinkDiagram) -> LaurentPoly2:
    """HOMFLY-PT polynomial of the diagram by the arc-relabeling skein."""
    return _homfly(list(d.crossings), d.free_circles)


def _remove_r1(crossings: list[Crossing], free: int) -> int:
    """Undo Reidemeister-I kinks in place; returns the updated free count."""
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(crossings):
            a = b = None
            if c.over_out == c.under_in:
                a, b = c.over_in, c.under_out
            elif c.under_out == c.over_in:
                a, b = c.under_in, c.over_out
            if a is None:
                continue
            del crossings[i]
            if a == b:
                free += 1
            else:
                for j, cj in enumerate(crossings):
                    crossings[j] = _relabel(cj, b, a)
            changed = True
            break
    return free


def _relabel(c: Crossing, old: int, new: int) -> Crossing:
    def f(x: int) -> int:
        return new if x == old else x

    return Crossing(c.sign, f(c.over_in), f(c.over_out), f(c.under_in), f(c.under_out))


def _first_ascending(crossings: Sequence[Crossing]) -> Optional[int]:
    """Index of the first crossing met under-first along the canonical
    traversal (components taken in order of their smallest arc id)."""
    succ: dict[int, int] = {}
    where: dict[int, tuple[int, bool]] = {}  # in-arc -> (crossing index, is_over)
    for i, c in enumerate(crossings):
        succ[c.over_in] = c.over_out
        succ[c.under_in] = c.under_out
        where[c.over_in] = (i, True)
        where[c.under_in] = (i, False)
    visited_arcs: set[int] = set()
    seen_crossings: set[int] = set()
    for start in sorted(succ):
        if start in visited_arcs:
            continue
        cur = start
        while cur not in visited_arcs:
            visited_arcs.add(cur)
            idx, is_over = where[cur]
            if idx not in seen_crossings:
                if not is_over:
                    return idx
                seen_crossings.add(idx)
            cur = succ[cur]
    return None


def _smooth(crossings: list[Crossing], i: int, free: int) -> int:
    """Oriented smoothing of crossing i: join under-in to over-out and over-in
    to under-out. Returns the updated free-circle count."""
    c = crossings.pop(i)
    for a, b in ((c.under_in, c.over_out), (c.over_in, c.under_out)):
        if a == b:
            free += 1
        else:
            for j, cj in enumerate(crossings):
                crossings[j] = _relabel(cj, b, a)
    return free




def _homfly(crossings: list[Crossing], free: int) -> LaurentPoly2:
    free = _remove_r1(crossings, free)
    if not crossings:
        return _split_factor(free)
    i = _first_ascending(crossings)
    if i is None:
        # Descending diagram: an unlink of its components.
        return _split_factor(component_count(LinkDiagram(tuple(crossings), free)))
    c = crossings[i]
    flipped = list(crossings)
    flipped[i] = switched(c)
    smoothed = list(crossings)
    free_s = _smooth(smoothed, i, free)
    p_switch = _homfly(flipped, free)
    p_smooth = _homfly(smoothed, free_s)
    if c.sign > 0:
        # v^-1 P+ - v P- = z P0  =>  P+ = v^2 P- + v z P0
        return shift(p_switch, v=2) + shift(p_smooth, v=1, z=1)
    # P- = v^-2 P+ - v^-1 z P0
    return shift(p_switch, v=-2) - shift(p_smooth, v=-1, z=1)
