"""Polytopes attached to a trinity: its hypertree sets (the lattice points of
Kalman's bound mu), sums of simplices and their trimmed versions, hypertree
polytopes, root polytopes with their tree-simplex triangulations, slice
identities and their f- and h-vectors.

Hypergraphs are named by two-letter colour selectors ("VE", "ER", ...): the
first letter is the vertex class X, the second the hyperedge class Y; the
backing bipartite graph is the colour graph of the remaining colour. One
incidence per selector, ``trinity.incidence``, each white triangle's (Y, X)
corners, which are the ends of that graph's edges, gives its hyperedges, its
root polytope Q = conv(e_y - e_x) with the Y coordinates first, and the
hypertrees of Q's triangulating trees, their degree-minus-one vectors on Y
and on X; none of them builds a colour-graph map.

The GP, trimmed and hypertree polytopes are built from their subset-inequality
descriptions in integer arithmetic, and each is checked against a second,
independent description of its lattice points: the sums of generators, the
set-difference trimming, and the hypertrees of an arborescence triangulation
of the root polytope. Their vertices and dimension are read off the
exchanges e_i - e_j that the lattice points take. The lattice points of a
root polytope are its generators, and its dimension is |Y| + |X| - 2.

``arborescence_triangulation`` is the one place that reads a colour's
spanning trees at a root, the complements of the arborescences of its
directed dual, and the only function here that takes a root, which it
requires: the hypertree polytopes and the h-vectors pass the colour's
default root. It returns the trees only once certified. The tree simplices
are proved to triangulate the root polytope in one pass, linear in their
number: each tree has n - 1 edges that span, and every ridge of a tree
simplex lies in one simplex on the boundary and in two, on opposite sides,
inside, and one generic point lies in exactly one simplex. Then each
hypertree of either side is the degree-minus-one vector of exactly one tree
(Postnikov, *Permutohedra, associahedra, and beyond*, 2009, section 12), and
both sides' vectors are checked against the two hypertree sets. The
simplices are unimodular by Postnikov's Lemma 12.5, so no volume is
computed, and h is the interior polynomial of the hypertree set, once per
colour, so no face is counted. Every point is an integer vector; ranks,
volumes, the placing triangulation, the Cayley slices, Lemma 12.6 and face
counts live in the test oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations, repeat
from operator import add, sub
from typing import Iterable, Sequence

from .geometry import (
    IntVec,
    canonical_lattice_set,
    lattice_points,  # noqa: F401  (no caller here; perfbench/tests wraps this binding)
)
from .maps import derived
from .trinity import (
    COLOUR_SELECTORS,
    HYPERGRAPH_CODES,
    InternalConsistencyError,
    Trinity,
    colour_of_hypergraph,
    default_root,
    directed_dual,
    enumerate_arborescences,
    incidence,
)


@dataclass(frozen=True)
class TaggedPolytope:
    vertices: tuple[IntVec, ...]  # sorted
    affine_dim: int
    lattice: tuple[IntVec, ...]


@dataclass(frozen=True)
class RootPolytope:
    generators: tuple[IntVec, ...]  # one point e_u - e_v per edge id
    vertices: tuple[IntVec, ...]  # the distinct generators, sorted
    affine_dim: int
    u_size: int  # |Y|: U is the hyperedge class, whose coordinates come first
    v_size: int  # |X|
    ends: tuple[tuple[int, int], ...]  # each edge's coordinates (u, v)

    @property
    def lattice(self) -> tuple[IntVec, ...]:
        """The lattice points, which are the vertices: Q lies in the product
        of the simplex on Y and the negated simplex on X, whose lattice points
        e_y - e_x are all vertices of that product."""
        return self.vertices


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

    Coordinates are fixed one at a time. With x_0 .. x_(k-1) fixed, every set
    whose largest element is the coordinate k bounds x_k from above by
    b(S) - x(S - k) and, through x(S) = x(all) - x(all - S), from below by
    b(all) - b(all - S) - x(S - k), so each set is checked exactly once along
    a branch.

    Those sums are not rescanned at each node. For every nonempty set M of
    free coordinates (bit 0 the coordinate k) the walk keeps two residual
    bounds, minima over the sets S of fixed coordinates, at index M - 1:

        upper[M] = min_S b(S | M) - x(S),
        lower[M] = min_S b(all - (S | M)) + x(S).

    At the root they are b(1), .., b(all) and b(all - 1), .., b(0). Fixing
    x_k = v splits each S by whether it holds k, which halves both tables:
    the child's upper[M] is min(upper[2M], upper[2M + 1] - v), and its lower
    the same with + v. The sets M whose largest element is j, read as
    subsets T of the free coordinates below j, are j's own residual table;
    k's has the one entry M = {k}, and upper[{k}] and b(all) - lower[{k}]
    are exactly the two bounds above. So the search tree and the order of
    the points are those of the walk that rescans all 2^k sums at each node
    (``tests/oracles.subset_lattice``), for any bound, but a child at depth k
    costs 2^(n-k) table entries instead of 2^k. The leaves of the last two
    coordinates are listed without building their one-entry tables.
    """
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []
    _descend(out, bound[-1], (), bound[1:], bound[-2::-1])
    return tuple(out)


def _descend(out: list, total: int, prefix: tuple[int, ...], upper: Sequence[int], lower: Sequence[int]) -> None:
    """Append the lattice points that extend ``prefix``, in order, to ``out``:
    the walk of ``_subset_lattice`` below one node, whose residual tables are
    ``upper`` and ``lower``."""
    hi, lo = upper[0], total - lower[0]
    if len(upper) == 1:
        out.extend([prefix + (v,) for v in range(lo, hi + 1)])
    elif len(upper) == 3:
        _, u0, u1 = upper
        _, w0, w1 = lower
        for v in range(lo, hi + 1):
            out.extend([prefix + (v, x) for x in range(total - min(w0, w1 + v), min(u0, u1 - v) + 1)])
    else:
        for v in range(lo, hi + 1):
            _descend(
                out,
                total,
                prefix + (v,),
                list(map(min, upper[1::2], map(sub, upper[2::2], repeat(v)))),
                list(map(min, lower[1::2], map(add, lower[2::2], repeat(v)))),
            )


def _vertices_and_dim(points: Sequence[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], int]:
    """The lattice points p, in their order, at which no pair i < j makes
    both p + e_i - e_j and p - e_i + e_j lattice points, and the dimension of
    the polytope; ``points`` is the whole lattice of a subset-inequality
    description. The points are its integral vertices, so all of them when
    it is integral, as the GP and hypertree polytopes are (their bounds are
    submodular) and the trimmed one of a connected hypergraph, the dual
    hypertree polytope (Kalman-Postnikov).

    T_i is the intersection of the tight sets (the whole set among them) that
    hold the coordinate i. A point is a vertex iff its tight rows have rank
    n, and that holds iff the n sets T_i are pairwise distinct:

    (=>) If T_i = T_j with i != j, every tight set holds both i and j or
    neither, so e_i - e_j is orthogonal to every tight row and the rank is
    below n.

    (<=) The bound b is mu, the coverage f or f - 1, and each satisfies
    b(S) + b(T) >= b(S & T) + b(S | T) whenever S & T is nonempty (for
    f - 1 the two -1s cancel). So for tight S and T that meet,
    x(S) + x(T) = x(S & T) + x(S | T) <= b(S & T) + b(S | T) <= b(S) + b(T)
    makes S & T and S | T tight, and T_i, an intersection of tight sets
    that all hold i, is tight. For j in T_i - {i}, T_j lies in T_i and
    differs from it, so by induction on |T_i| every such e_j lies in the
    span of the tight rows, and so does e_i = chi(T_i) - sum of those e_j.

    p + e_i - e_j keeps x(all) and adds 1 to x(S) exactly when S holds i and
    not j. Slacks are integers, so it is a lattice point iff no tight set
    holds i without j, that is iff j is in T_i; and T_i = T_j iff j is in
    T_i and i is in T_j. The code c = sum_k p_k 2^(wk) is linear in p, so
    p +- (e_i - e_j) has the code c +- (2^(wi) - 2^(wj)); it is one-to-one
    on the points and their exchanges, whose coordinates differ by at most
    the lattice's spread plus 1, below 2^w. The rank test itself is the
    oracle ``tests/oracles.subset_vertices``.

    The dimension is n minus the number of components of the graph joining
    i and j when some lattice point takes the exchange e_i - e_j. Each such
    exchange joins two points of P, so it is a direction of P. Conversely P
    is the hull of its integral vertices, so its graph is connected and its
    edges span its directions; each edge is parallel to some e_i - e_j, as
    in every base polytope of an (intersecting) submodular bound, and the
    first lattice step along it from an end is an exchange. The vectors
    e_i - e_j of the edges of a graph on n nodes span a space of dimension
    n minus its number of components.
    """
    if len(points) < 2:  # no exchange can reach another point
        return list(points), 0
    n = len(points[0])
    w = (max(map(max, points)) - min(map(min, points)) + 1).bit_length()
    codes = [sum(v << w * k for k, v in enumerate(p)) for p in points]
    present = set(codes)
    inner = set()
    component = list(range(n))
    for i, j in combinations(range(n), 2):
        d = (1 << w * i) - (1 << w * j)
        inner.update(c for c in present if c + d in present and c - d in present)
        a, b = component[i], component[j]
        if a != b and any(c + d in present for c in present):
            component = [a if x == b else x for x in component]
    return [p for p, c in zip(points, codes) if c not in inner], n - len(set(component))


def _tagged(lattice: tuple[tuple[int, ...], ...]) -> TaggedPolytope:
    vertices, dim = _vertices_and_dim(lattice)  # sorted, as the lattice is
    return TaggedPolytope(vertices=tuple(vertices), affine_dim=dim, lattice=lattice)


@derived
def _hyperedges_of(t: Trinity, code: str) -> tuple[tuple[int, ...], ...]:
    """For each y (in order) the sorted distinct X positions adjacent to it,
    once per trinity and selector."""
    ends, n_y, _ = incidence(t, code)
    groups: list[set[int]] = [set() for _ in range(n_y)]
    for y, x in ends:
        groups[y].add(x)
    if not all(groups):
        raise ValueError("hyperedge with no vertices")
    return tuple(tuple(sorted(g)) for g in groups)


@derived
def _gp_data_of(t: Trinity, code: str):
    """n, the coverage bound f and the sums of generators of the selector's
    hypergraph on its n vertices, once per trinity and selector: the GP and
    trimmed builds share them."""
    he, n = _hyperedges_of(t, code), incidence(t, code)[2]
    return n, tuple(_coverage_bound(he, n)), _generator_sums(he, n)


def _trimmed(n: int, coverage: Sequence[int], sums: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Lattice points of the GP polytope minus the standard simplex.

    x + Delta lies in the GP polytope iff x + e_i does for every i, so the
    bound is f - 1 on nonempty sets. The lattice points are checked against
    the integer points x with every x + e_i a sum of generators: the
    intersection over i of the sets {p - e_i} of the sums p (n >= 1), taken
    as the x in {p - e_0} whose x + e_i is a sum for each i >= 1 in turn.
    """
    lattice = _subset_lattice([0] + [c - 1 for c in coverage[1:]], n)
    pts = set(sums)
    trimmed = {(p[0] - 1,) + p[1:] for p in pts}
    for i in range(1, n):
        trimmed = {x for x in trimmed if x[:i] + (x[i] + 1,) + x[i + 1 :] in pts}
    if not trimmed:
        raise InternalConsistencyError("trimmed polytope has no lattice points")
    if canonical_lattice_set(trimmed) != lattice:
        raise InternalConsistencyError("trimmed lattice set is not convexly closed")
    return lattice


@derived
def _trimmed_of(t: Trinity, code: str):
    """``_trimmed`` of the selector's hypergraph, once per trinity and selector."""
    return _trimmed(*_gp_data_of(t, code))


@derived
def hypertree_set(t: Trinity, code: str) -> tuple[tuple[int, ...], ...]:
    """Hypertrees of the (X, Y) hypergraph named by a two-letter selector, in
    lexicographic order.

    Hyperedges are Y, so the vectors are indexed by the Y-class vertices of the
    underlying colour graph, in increasing id order. They are the lattice
    points of {x(S) <= mu(S)} (Kalman, *A version of Tutte's polynomial for
    hypergraphs*, 2013), derived once per trinity and selector. The bound
    table has 2^|Y| entries; ``report`` and ``verify`` build such a table for
    every vertex class anyway, in the trimmed and hypertree polytopes.
    """
    he = _hyperedges_of(t, code)
    return _subset_lattice(_hypertree_bound(he), len(he))


def gp_polytope_of(t: Trinity, code: str) -> TaggedPolytope:
    """Minkowski sum over hyperedges y of the simplex on the vertices of y."""
    n, bound, sums = _gp_data_of(t, code)
    lattice = _subset_lattice(bound, n)
    if sums != lattice:
        raise InternalConsistencyError("sums of generators do not exhaust the lattice points")
    return _tagged(lattice)


def trimmed_gp_of(t: Trinity, code: str) -> TaggedPolytope:
    """Minkowski difference of the GP polytope by the standard simplex on X."""
    return _tagged(_trimmed_of(t, code))


def hypertree_polytope_of(t: Trinity, code: str) -> TaggedPolytope:
    """Convex hull of the hypertree vectors, indexed by the hyperedge class.

    The lattice of mu is the hypertree set that ``arborescence_triangulation``
    checks, at the colour's default root, against the hypertrees of the trees
    that triangulate the root polytope: equal sets, no vector repeated.
    """
    colour = colour_of_hypergraph(code)
    arborescence_triangulation(t, colour, default_root(t, colour))
    return _tagged(hypertree_set(t, code))


@derived
def root_polytope_of(t: Trinity, code: str) -> RootPolytope:
    """Convex hull of e_y - e_x over the edges of the selector's bipartite
    graph, Y coordinates first, built once per trinity and selector.

    Its dimension is |Y| + |X| - 2 (Postnikov, 2009, section 12): every
    generator lies on the two hyperplanes x(Y) = 1 and x(X) = -1, and the
    n - 1 generators of a spanning tree (a map is connected) are linearly
    independent on the first, which misses the origin, so affinely
    independent.
    """
    yx, n_y, n_x = incidence(t, code)
    ends = tuple((y, n_y + x) for y, x in yx)
    gens = []
    for u, v in ends:
        p = [0] * (n_y + n_x)
        p[u], p[v] = 1, -1
        gens.append(tuple(p))
    vertices = canonical_lattice_set(gens)  # every e_y - e_x is a vertex
    return RootPolytope(
        generators=tuple(gens), vertices=vertices, affine_dim=n_y + n_x - 2, u_size=n_y, v_size=n_x, ends=ends
    )


@derived
def arborescence_triangulation(t: Trinity, colour: str, root: int) -> tuple[tuple[int, ...], ...]:
    """The colour graph's spanning trees dual to the arborescences of its
    directed dual at the given root, a vertex of the colour, proved once per
    trinity, colour and root to triangulate the colour graph's root polytope
    Q_G by their simplices, and checked against the hypertree sets of both
    sides. Directed-dual edge i crosses the colour graph's edge i; a tree is
    the edges its arborescence does not cross.

    Full-dimensional simplices spanned by points of a polytope P triangulate
    it iff (i) each of their ridges on the boundary of P lies in one of them
    and each other ridge in exactly two, on opposite sides of it, and (ii)
    some generic point of P lies in exactly one (De Loera, Rambau and Santos,
    *Triangulations*, 2010, ch. 4). Under (i), crossing a ridge trades one
    simplex for another, so every generic point lies in the same number of
    simplices; (ii) makes that number 1. ``ridge_certificate`` checks (i) on
    the ridges, keyed by vertex set, and (ii) at one point perturbed off every
    ridge hyperplane, in one pass over the trees.

    Each tree has n - 1 edges and spans the colour graph (the certificate),
    so it has no cycle and its n - 1 generators are affinely independent in
    the (n - 2)-dimensional span of Q_G: every simplex is full-dimensional. Each
    is also unimodular, the incidence matrix of a bipartite graph being
    totally unimodular (Postnikov, 2009, Lemma 12.5), so the number of trees
    is the normalized volume of Q_G; no volume is computed.

    When the trees triangulate Q_G, each hypertree of either side is the
    degree-minus-one vector of exactly one of them on that side's ends
    (Postnikov, 2009, section 12). So the trees' vectors on the Y ends, and on
    the X ends, sorted with repeats kept, must be the hypertree sets of the
    colour's selector and of its reverse: a tree dropped, added or repeated,
    or a wrong mu-lattice, fails here.
    """
    code = COLOUR_SELECTORS[colour]
    rp = root_polytope_of(t, code)
    arbs = map(set, enumerate_arborescences(directed_dual(t, colour), root))
    tree_sets = tuple(tuple(e for e in range(len(rp.ends)) if e not in used) for used in arbs)
    ridge_certificate(rp, tree_sets)
    degrees = []
    for tree in tree_sets:
        degree = [-1] * (rp.u_size + rp.v_size)
        for e in tree:
            for x in rp.ends[e]:
                degree[x] += 1
        degrees.append(degree)
    for selector, side in ((code, slice(rp.u_size)), (code[::-1], slice(rp.u_size, None))):
        if tuple(sorted(tuple(d[side]) for d in degrees)) != hypertree_set(t, selector):
            message = f"the triangulation trees' {selector} hypertrees are not the hypertree set"
            raise InternalConsistencyError(message)
    return tree_sets


def ridge_certificate(rp: RootPolytope, tree_sets: Sequence[Sequence[int]]) -> None:
    """Raise unless each boundary ridge of the spanning trees' simplices lies
    in one of them and each interior ridge in two, on opposite sides, and the
    generic point of ``_certificate_pass`` lies in exactly one of them.

    T - e splits the vertices into the side A holding e's U-end and the side
    B. The sum of the coordinates in A is 0 on the ridge, 1 at e, and 1 or -1
    at an edge crossing (A, B) as its U-end lies in A or B: the ridge is on
    the boundary of Q_G iff every crossing edge has its U-end in A. Ridges are
    keyed by vertex set, not edge ids (parallel edges share a generator), so
    a repeated simplex puts two simplices on one side of a ridge."""
    ridges, holding = _certificate_pass(rp, tree_sets)
    ends = rp.ends
    n = rp.u_size + rp.v_size
    u_neighbours = [sum({1 << u for u, w in ends if w == v}) for v in range(n)]  # of each V coordinate
    for sides in ridges.values():
        a = sides[0]
        if not any(a >> v & 1 and u_neighbours[v] & ~a for v in range(rp.u_size, n)):
            if len(sides) != 1:
                raise InternalConsistencyError("triangulation boundary ridge lies in more than one simplex")
        elif len(sides) != 2 or a == sides[1]:
            raise InternalConsistencyError("triangulation interior ridge is not in two simplices on opposite sides")
    if holding != 1:
        raise InternalConsistencyError(f"triangulation covers a generic point {holding} times, not once")


def _certificate_pass(rp: RootPolytope, tree_sets: Sequence[Sequence[int]]):
    """One pass over each tree T and edge e of T: the sides A of T - e of the
    simplices on each ridge, keyed by the bitmask of the ridge's vertex set,
    and the number of simplices that hold the generic point p.

    p = sum_k (1 + eps^(k+1)) g_k / sum_k (1 + eps^(k+1)), over the
    generators g_k in edge-id order and for every small enough eps > 0, lies
    inside Q_G. Every edge of T other than e has both ends on one side of
    T - e, so p's barycentric coordinate at e in the simplex of T is p(A),
    with g_k(A) = [u_k in A] - [v_k in A]. Its sign is that of the first
    nonzero entry of (sum_k g_k(A), g_0(A), g_1(A), ...): g_k(A) is nonzero
    exactly at the edges crossing (A, B), e among them, so the entry is
    always found, and p lies on no ridge hyperplane of any tree simplex.
    """
    ends = rp.ends
    n = rp.u_size + rp.v_size
    vertex_bit = {g: 1 << i for i, g in enumerate(rp.vertices)}
    generator_bit = [vertex_bit[g] for g in rp.generators]
    weight = [0] * n  # sum_k g_k: each vertex's degree, negated on V
    for u, v in ends:
        weight[u] += 1
        weight[v] -= 1
    ridges: dict[int, list[int]] = {}  # ridge vertex set -> the sides A of its simplices
    holding = 0
    for tree in tree_sets:
        tree_bits = sum({generator_bit[e] for e in tree})
        inside = True
        for e, side in _tree_edge_sides(tree, ends, n):
            ridges.setdefault(tree_bits ^ generator_bit[e], []).append(side)
            if inside:
                entry = sum(weight[x] for x in range(n) if side >> x & 1)
                if not entry:  # g_k(A) at the first edge k crossing (A, B)
                    entry = next((side >> u & 1) - (side >> v & 1) for u, v in ends if (side >> u ^ side >> v) & 1)
                inside = entry > 0
        holding += inside
    return ridges, holding


def _tree_edge_sides(tree: Sequence[int], ends: Sequence[tuple[int, int]], n: int):
    """(e, the vertex mask of the side of T - e holding e's U-end) per edge e.

    Raises unless the n - 1 edges span the n vertices, which makes them a tree.
    """
    if len(tree) != n - 1:
        raise InternalConsistencyError(f"triangulation tree has {len(tree)} edges, not {n - 1}")
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in tree:
        u, v = ends[e]
        adjacent[u].append((v, e))
        adjacent[v].append((u, e))
    up, order = {0: -1}, [0]  # the edge to each vertex's parent; breadth first
    for x in order:
        for y, e in adjacent[x]:
            if y not in up:
                up[y] = e
                order.append(y)
    if len(order) != n:
        raise InternalConsistencyError("triangulation tree does not span the colour graph")
    below = [1 << x for x in range(n)]  # the vertices of each subtree
    for x in reversed(order[1:]):
        u, v = ends[up[x]]
        below[v if u == x else u] |= below[x]
        yield up[x], below[x] if u == x else (1 << n) - 1 ^ below[x]


def interior_polynomial(hypertrees: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """Kalman's interior polynomial (*A version of Tutte's polynomial for
    hypergraphs*, 2013), lowest degree first: entry k counts the hypertrees f
    with exactly k coordinates e such that f + 1_j - 1_e is a hypertree for
    some j < e. It depends on neither the coordinate order nor the side."""
    points = set(hypertrees)
    counts: Counter = Counter()
    for f in points:
        inactive = 0
        for e in range(1, len(f)):
            g = list(f)
            g[e] -= 1  # f - 1_e, a hypertree only if nonnegative
            inactive += g[e] >= 0 and any((*g[:j], g[j] + 1, *g[j + 1 :]) in points for j in range(e))
        counts[inactive] += 1
    return tuple(counts[k] for k in range(max(counts, default=-1) + 1))


@derived
def h_vector(t: Trinity, colour: str) -> tuple[int, ...]:
    """Coefficients of h(x) = f(x-1) of the colour's arborescence
    triangulation, highest degree first, once per trinity and colour. Its
    simplices are unimodular (Lemma 12.5) and its trees' hypertrees are the
    hypertree set, each once, as ``arborescence_triangulation`` checks, here
    at the colour's default root; so h is the h*-vector of Q_G, the interior
    polynomial of that set (Kalman and Postnikov, *Root polytopes, Tutte
    polynomials, and a duality theorem for bipartite graphs*, 2017), the same
    at every root, padded with zeros to f's length |Y| + |X|."""
    code = COLOUR_SELECTORS[colour]
    arborescence_triangulation(t, colour, default_root(t, colour))
    _, n_y, n_x = incidence(t, code)
    h = interior_polynomial(hypertree_set(t, code))
    return h + (0,) * (n_y + n_x - len(h))


@derived
def f_vector(t: Trinity, colour: str) -> tuple[int, ...]:
    """Face counts of the colour's arborescence triangulation, highest degree
    first, once per trinity and colour after ``h_vector`` (which certifies the
    default root): f(y) = h(y+1), whose y^(d+1-k) coefficient counts the
    (k-1)-dimensional faces, from the single empty face at y^(d+1) down to
    the top simplices."""
    f = list(h_vector(t, colour))
    for m in range(len(f), 1, -1):  # Taylor shift by 1: prefix sums of ever shorter heads
        f[:m] = accumulate(f[:m])
    return tuple(f)


def verify_duality_suite(t: Trinity) -> dict:
    trimmed_matches = {}
    for code in HYPERGRAPH_CODES:
        rev = code[::-1]
        trimmed_matches[code] = _trimmed_of(t, code) == hypertree_set(t, rev)
    reflections = {}
    for c1, c2 in (("VE", "RE"), ("RV", "EV"), ("VR", "ER")):
        s1 = hypertree_set(t, c1)
        s2 = hypertree_set(t, c2)
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
