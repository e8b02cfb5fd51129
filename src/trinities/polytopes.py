"""Polytopes attached to a trinity: sums of simplices and their trimmed
versions, hypertree polytopes, root polytopes with their tree-simplex
triangulations, slice identities and face-count polynomials.

Hypergraphs are named by two-letter colour selectors ("VE", "ER", ...): the
first letter is the vertex class X, the second the hyperedge class Y; the
backing bipartite graph is the colour graph of the remaining colour.

The GP, trimmed and hypertree polytopes are built from their subset-inequality
descriptions in integer arithmetic, and each is checked against a second,
independent description of its lattice points: the sums of generators, the
set-difference trimming, and the hypertrees of the trees of an arborescence
triangulation of the root polytope (Postnikov, *Permutohedra, associahedra,
and beyond*, 2009, section 12: each hypertree exactly once). The lattice
points of a root polytope are its generators. The LP search of ``geometry``
serves the Cayley slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from .geometry import (
    VPolytope,
    affine_dim,
    canonical_lattice_set,
    lattice_points,  # noqa: F401  (no caller here; perfbench/tests wraps this binding)
    prune_to_vertices,
    simplex_normalized_volume,
    total_normalized_volume,
)
from .linalg import RatVec, fvec, integer_rank, rank, solve_affine, vec_sub
from .maps import PlanarMap, memo
from .trinity import (
    COLOUR_CLASSES,
    HYPERGRAPH_CODES,
    InternalConsistencyError,
    Trinity,
    colour_graph,
    colour_of_hypergraph,
    directed_dual,
    hypergraph_view,
)
from . import trees


@dataclass(frozen=True)
class TaggedPolytope:
    polytope: VPolytope
    lattice: tuple[tuple[int, ...], ...]
    hypergraph: Optional[str] = None
    kind: str = ""


@dataclass(frozen=True)
class RootPolytope:
    polytope: VPolytope
    generators: tuple[RatVec, ...]  # one point i_u - i_v per edge id
    u_size: int
    v_size: int

    @property
    def dim(self) -> int:
        return self.polytope.affine_dim


@dataclass(frozen=True)
class Triangulation:
    parent: RootPolytope
    trees: tuple[tuple[int, ...], ...]  # spanning trees, one per simplex
    simplices: tuple[tuple[RatVec, ...], ...]


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


def _generator_sums(edges: Sequence[tuple[int, ...]], dim: int) -> tuple[tuple[int, ...], ...]:
    sums = {tuple([0] * dim)}
    for e in edges:
        sums = {tuple(s[j] + (1 if j == i else 0) for j in range(dim)) for s in sums for i in e}
    return canonical_lattice_set(sums)


# ---------------------------------------------------------------------------
# Subset-inequality descriptions. A bound b lists b(S) for every subset S of
# the n coordinates, as a bitmask, with b(0) = 0; it describes
#     {x : x(S) <= b(S) for every nonempty S, x(all) = b(all)}.
# ---------------------------------------------------------------------------


def _masks(sets: Sequence[Sequence[int]]) -> list[int]:
    return [sum(1 << i for i in s) for s in sets]


def _coverage_bound(he: Sequence[tuple[int, ...]], n: int) -> list[int]:
    """f(S) = number of hyperedges meeting S (Postnikov's GP polytope)."""
    he_masks = _masks(he)
    return [sum(1 for h in he_masks if h & s) for s in range(1 << n)]


def _hypertree_bound(he: Sequence[tuple[int, ...]]) -> list[int]:
    """mu(S) = |N(S)| - c(S) over sets S of hyperedges (Kalman's hypertree
    polytope): N(S) is the union of S and c(S) the number of connected
    components of the bipartite graph on S and N(S)."""
    he_masks = _masks(he)
    bound = []
    for s in range(1 << len(he)):
        comps: list[int] = []  # vertex masks of the components so far
        for y, h in enumerate(he_masks):
            if s >> y & 1:
                merged = h
                rest = []
                for c in comps:
                    if c & merged:
                        merged |= c
                    else:
                        rest.append(c)
                comps = rest + [merged]
        bound.append(sum(bin(c).count("1") for c in comps) - len(comps))
    return bound


def _subset_lattice(bound: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Lattice points of the polytope, in lexicographic order.

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


def _subset_vertices(bound: Sequence[int], n: int, points: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The points at which the tight sets (the whole set among them) have rank n:
    the integral vertices, so all of them when the polytope is integral. The
    GP and hypertree polytopes are (their bounds are submodular), and so is the
    trimmed one of a connected hypergraph, which is the dual hypertree polytope
    (Kalman-Postnikov)."""
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


def _tagged(
    bound: Sequence[int], n: int, lattice: tuple[tuple[int, ...], ...], tag: str, kind: str
) -> TaggedPolytope:
    vertices = _subset_vertices(bound, n, lattice)
    poly = VPolytope.from_points(vertices, assume_vertices=True)
    return TaggedPolytope(polytope=poly, lattice=lattice, hypergraph=tag or None, kind=kind)


def gp_polytope(m: PlanarMap, x_ids: Sequence[int], y_ids: Sequence[int], tag: str = "") -> TaggedPolytope:
    """Minkowski sum over hyperedges y of the simplex on the vertices of y."""
    n = len(x_ids)
    he = hyperedges(m, x_ids, y_ids)
    bound = _coverage_bound(he, n)
    lattice = _subset_lattice(bound, n)
    if _generator_sums(he, n) != lattice:
        raise InternalConsistencyError("sums of generators do not exhaust the lattice points")
    return _tagged(bound, n, lattice, tag, "gp")


def _trimmed(m: PlanarMap, x_ids: Sequence[int], y_ids: Sequence[int]):
    """Bound and lattice points of the GP polytope minus the standard simplex.

    x + Delta lies in the GP polytope iff x + e_i does for every i, so the
    bound is f - 1 on nonempty sets. The lattice points are checked against
    the integer points x with every x + e_i a sum of generators.
    """
    n = len(x_ids)
    he = hyperedges(m, x_ids, y_ids)
    bound = [0] + [c - 1 for c in _coverage_bound(he, n)[1:]]
    lattice = _subset_lattice(bound, n)
    pts = set(_generator_sums(he, n))
    candidates = {tuple(p[j] - (1 if j == i else 0) for j in range(n)) for p in pts for i in range(n)}
    trimmed = [
        x
        for x in candidates
        if all(tuple(x[j] + (1 if j == i else 0) for j in range(n)) in pts for i in range(n))
    ]
    if not trimmed:
        raise InternalConsistencyError("trimmed polytope has no lattice points")
    if canonical_lattice_set(trimmed) != lattice:
        raise InternalConsistencyError("trimmed lattice set is not convexly closed")
    return tuple(bound), lattice


def _trimmed_of(t: Trinity, code: str):
    """``_trimmed`` of the selector's hypergraph, once per trinity and selector."""
    return memo(t, ("trimmed", code), lambda: _trimmed(*hypergraph_view(t, code)))


def trimmed_gp(m: PlanarMap, x_ids: Sequence[int], y_ids: Sequence[int], tag: str = "") -> TaggedPolytope:
    """Minkowski difference of the GP polytope by the standard simplex on X."""
    bound, lattice = _trimmed(m, x_ids, y_ids)
    return _tagged(bound, len(x_ids), lattice, tag, "trimmed")


def hypertree_lattice_of(t: Trinity, code: str):
    """Kalman's bound mu and its lattice points, the hypertrees of the
    selector's hypergraph, once per trinity and selector."""

    def build():
        cm, x_ids, y_ids = hypergraph_view(t, code)
        bound = _hypertree_bound(hyperedges(cm, x_ids, y_ids))
        return tuple(bound), _subset_lattice(bound, len(y_ids))

    return memo(t, ("hypertree_lattice", code), build)


def gp_polytope_of(t: Trinity, code: str) -> TaggedPolytope:
    cm, x_ids, y_ids = hypergraph_view(t, code)
    return gp_polytope(cm, x_ids, y_ids, code)


def trimmed_gp_of(t: Trinity, code: str) -> TaggedPolytope:
    _cm, x_ids, _y_ids = hypergraph_view(t, code)
    bound, lattice = _trimmed_of(t, code)
    return _tagged(bound, len(x_ids), lattice, code, "trimmed")


def hypertree_polytope_of(t: Trinity, code: str) -> TaggedPolytope:
    """Convex hull of the hypertree vectors, indexed by the hyperedge class.

    The lattice of mu is checked against the hypertrees of the triangulation
    trees at the colour's default root: equal sets, no vector repeated.
    """
    _cm, _x_ids, y_ids = hypergraph_view(t, code)
    bound, lattice = hypertree_lattice_of(t, code)
    if triangulation_hypertrees(t, code) != lattice:
        raise InternalConsistencyError("hypertree set is not convexly closed")
    return _tagged(bound, len(y_ids), lattice, code, "hypertree")


def root_polytope(m: PlanarMap, u_ids: Sequence[int], v_ids: Sequence[int]) -> RootPolytope:
    """Convex hull of i_u - i_v over the edges, U coordinates first."""
    u_pos = {x: i for i, x in enumerate(u_ids)}
    v_pos = {x: len(u_ids) + i for i, x in enumerate(v_ids)}
    dim = len(u_ids) + len(v_ids)
    gens = []
    for a, b in m.edges:
        u, v = (a, b) if a in u_pos else (b, a)
        p = [0] * dim
        p[u_pos[u]] = 1
        p[v_pos[v]] = -1
        gens.append(fvec(p))
    poly = VPolytope.from_points(gens, assume_vertices=True)  # every e_u - e_v is a vertex
    return RootPolytope(polytope=poly, generators=tuple(gens), u_size=len(u_ids), v_size=len(v_ids))


def root_polytope_of(t: Trinity, colour: str, u_colour: Optional[str] = None) -> RootPolytope:
    """Root polytope of the colour graph, the u_colour class (by default class
    b) first, built once per trinity, colour and side."""
    a_first = u_colour == COLOUR_CLASSES[colour][0]

    def build() -> RootPolytope:
        cm, bip = colour_graph(t, colour)
        a, b = sorted(bip.class_a), sorted(bip.class_b)
        return root_polytope(cm, a, b) if a_first else root_polytope(cm, b, a)

    return memo(t, ("root_polytope", colour, a_first), build)


def hypergraph_root_polytope_of(t: Trinity, code: str) -> TaggedPolytope:
    """Root polytope of the hypergraph's bipartite graph, Y coordinates first.

    Its lattice points are its generators: it lies in the product of the
    simplex on Y and the negated simplex on X, whose lattice points e_u - e_v
    are all vertices of that product.
    """
    cm, x_ids, y_ids = hypergraph_view(t, code)
    rp = root_polytope(cm, y_ids, x_ids)
    lattice = canonical_lattice_set(rp.generators)
    return TaggedPolytope(polytope=rp.polytope, lattice=lattice, hypergraph=code, kind="root")


def tree_simplex(rp: RootPolytope, tree_edges: Sequence[int]) -> VPolytope:
    pts = [rp.generators[e] for e in tree_edges]
    dim = affine_dim(pts)
    if dim != len(pts) - 1:
        raise ValueError("edge set does not span a simplex (contains a cycle)")
    return VPolytope(vertices=tuple(sorted(pts)), ambient_dim=len(pts[0]), affine_dim=dim)


def _default_root(t: Trinity, colour: str) -> int:
    """The root triangle's corner of the colour."""
    return t.triangles[t.root_triangle].corner(colour)[1]


def arborescence_trees(t: Trinity, colour: str, root: int) -> tuple[tuple[int, ...], ...]:
    """The colour graph's spanning trees dual to the arborescences of its
    directed dual at ``root``, enumerated once per trinity, colour and root."""

    def build():
        arbs = trees.enumerate_arborescences(directed_dual(t, colour), root)
        return tuple(trees.arborescence_to_spanning_tree(t, colour, a) for a in arbs)

    return memo(t, ("arborescence_trees", colour, root), build)


def triangulation_hypertrees(t: Trinity, code: str, root: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    """The selector's hypertrees read off the arborescence trees of its colour
    at ``root`` (by default the root triangle's corner), sorted, repeats kept.

    When those trees triangulate the root polytope, each hypertree of either
    side is the degree-minus-one vector of exactly one of them (Postnikov,
    2009, section 12), so this is the hypertree set itself.
    """
    cm, _x_ids, y_ids = hypergraph_view(t, code)
    colour = colour_of_hypergraph(code)
    if root is None:
        root = _default_root(t, colour)
    return tuple(sorted(trees.hypertree_of(tr, cm.edges, y_ids) for tr in arborescence_trees(t, colour, root)))


def arborescence_triangulation(t: Trinity, colour: str, root: Optional[int] = None) -> Triangulation:
    """Triangulation of the colour graph's root polytope by the simplices of
    the spanning trees dual to the arborescences at the given root (by default
    the root triangle's corner), built once per trinity, colour and root."""
    if root is None:
        root = _default_root(t, colour)
    key = ("arborescence_triangulation", colour, root)
    return memo(t, key, lambda: _arborescence_triangulation(t, colour, root))


def _arborescence_triangulation(t: Trinity, colour: str, root: int) -> Triangulation:
    rp = root_polytope_of(t, colour)
    tree_sets = arborescence_trees(t, colour, root)
    simplices = tuple(tree_simplex(rp, tr).vertices for tr in tree_sets)
    # Validation: unit volumes, distinct simplices (parallel edges share a
    # generator, so two trees can span one simplex), pairwise common-face
    # intersections, total volume.
    for s in simplices:
        if simplex_normalized_volume(s) != 1:
            raise InternalConsistencyError("tree simplex is not unimodular")
    if len(set(simplices)) != len(simplices):
        raise InternalConsistencyError("triangulation repeats a simplex")
    for t1, t2 in combinations(tree_sets, 2):
        if not tree_simplices_meet_in_common_face(rp, t1, t2):
            raise InternalConsistencyError("simplices do not meet in a common face")
    volume = memo(rp, "normalized_volume", lambda: total_normalized_volume(rp.polytope.vertices))
    if len(simplices) != volume:
        raise InternalConsistencyError("triangulation volume does not cover the root polytope")
    return Triangulation(parent=rp, trees=tree_sets, simplices=simplices)


def tree_simplices_meet_in_common_face(rp: RootPolytope, tree1: Sequence[int], tree2: Sequence[int]) -> bool:
    """Whether the simplices of two spanning trees meet in a common face.

    Postnikov (*Permutohedra, associahedra, and beyond*, 2009, Lemma 12.6):
    they do iff the directed graph U(T, T'), T's edges oriented u -> v and
    T''s edges v -> u, has no directed cycle of length >= 4. An edge's
    (u, v) is read off its generator e_u - e_v.

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
    ends = memo(rp, "edge_ends", lambda: tuple((g.index(1), g.index(-1)) for g in rp.generators))
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
    verts = rp.polytope.vertices
    hits: set[RatVec] = set()
    for k in range(1, len(verts) + 1):
        for face in combinations(verts, k):
            pt = _affine_flat_point(face, fixed)
            if pt is not None:
                hits.add(pt)
    if not hits:
        raise InternalConsistencyError("slice is empty")
    return VPolytope.from_points(prune_to_vertices(hits), assume_vertices=True)


def _affine_flat_point(face: Sequence[RatVec], fixed: dict[int, Fraction]) -> Optional[RatVec]:
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
        expected = {tuple(Fraction(-x, m) for x in p) for p in gp.polytope.vertices}
    else:
        projected = {v[:m] for v in sl.vertices}
        expected = {tuple(Fraction(x, n) for x in p) for p in gp.polytope.vertices}
    return projected == expected


def f_vector(tr: Triangulation) -> tuple[int, ...]:
    """Face counts as polynomial coefficients, highest degree first, computed
    once per triangulation.

    The coefficient of y^(d+1-k) counts the (k-1)-dimensional faces, starting
    from the single empty face at y^(d+1) down to the top simplices.
    """
    return memo(tr, "f_vector", lambda: _f_vector(tr))


def _f_vector(tr: Triangulation) -> tuple[int, ...]:
    # A face is a bitmask over the root polytope's vertices, so edges with
    # equal generators share one bit.
    vertex_bit = {v: 1 << i for i, v in enumerate(tr.parent.polytope.vertices)}
    faces: set[int] = set()
    for s in tr.simplices:
        mask = sum(vertex_bit[v] for v in s)
        sub = mask
        while True:  # every submask of the simplex
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & mask
    counts = [0] * (len(tr.simplices[0]) + 1)
    for f in faces:
        counts[f.bit_count()] += 1
    return tuple(counts)  # counts[k] = #(k-1)-faces = coefficient of y^(d+1-k)


def h_vector(tr: Triangulation) -> tuple[int, ...]:
    """Coefficients of h(x) = f(x-1), highest degree first."""
    f = f_vector(tr)
    top = len(f) - 1
    by_power = [0] * len(f)  # by_power[j] = coefficient of x^j
    for k, coeff in enumerate(f):
        p = top - k
        for j in range(p + 1):
            by_power[j] += coeff * comb(p, j) * ((-1) ** (p - j))
    return tuple(by_power[::-1])


def verify_duality_suite(t: Trinity) -> dict:
    trimmed_matches = {}
    for code in HYPERGRAPH_CODES:
        rev = code[::-1]
        _bound, lattice = _trimmed_of(t, code)
        trimmed_matches[code] = lattice == trees.hypertree_set(t, rev)
    reflections = {}
    for c1, c2 in (("VE", "RE"), ("RV", "EV"), ("VR", "ER")):
        s1 = trees.hypertree_set(t, c1)
        s2 = trees.hypertree_set(t, c2)
        dim = len(s1[0]) if s1 else 0
        c = tuple(
            min(p[i] for p in s1) + max(p[i] for p in s2) for i in range(dim)
        )
        holds = {tuple(c[i] - p[i] for i in range(dim)) for p in s2} == set(s1)
        reflections[f"{c1}|{c2}"] = {"holds": holds, "center": c}
    return {
        "trimmed_equals_dual_hypertrees": trimmed_matches,
        "reflections": reflections,
        "all_hold": all(trimmed_matches.values()) and all(r["holds"] for r in reflections.values()),
    }
