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
are proved to triangulate the root polytope in one leaves-first sweep of
each tree, linear in their number: each tree has n - 1 edges that span,
every ridge of a tree simplex lies in one simplex on the boundary and in
two, on opposite sides, inside, and one generic point lies in exactly one
simplex; each ridge's boundary status, each simplex's side of it and the
point's sign are read off sums over the subtree that the ridge cuts off.
Then each hypertree of either side is the degree-minus-one vector of
exactly one tree (Postnikov, *Permutohedra, associahedra, and beyond*,
2009, section 12), and both sides' vectors are checked against the two
hypertree sets. The simplices are unimodular by Postnikov's Lemma 12.5, so
no volume is computed, and h is the interior polynomial of the hypertree
set, once per colour, so no face is counted. Every point is an integer
vector; ranks, volumes, the placing triangulation, the Cayley slices,
Lemma 12.6 and face counts live in the test oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations
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
    components of the bipartite graph on S and N(S).

    The components of S, as vertex masks, are those of S minus its lowest
    element y with y's hyperedge merged in: it joins the components it meets
    into one. mu(S) is the sum over the components of their size minus 1, so
    it changes by those of the merged ones and the joined one, and each set
    costs one pass over the components of a smaller set. That set lacks its
    lowest element, so it is even, and only even sets keep their components:
    the set 2j at index j."""
    he_masks = _masks(he)
    bound = [0]
    comps: list[tuple[int, ...]] = [()]  # the vertex masks of the components of each even set
    for s in range(1, 1 << len(he)):
        low = s & -s
        joined = he_masks[low.bit_length() - 1]
        mu = bound[s ^ low] - 1
        rest = []
        for c in comps[(s ^ low) >> 1]:
            if c & joined:
                joined |= c
                mu -= c.bit_count() - 1
            else:
                rest.append(c)
        rest.append(joined)
        if not s & 1:
            comps.append(tuple(rest))
        bound.append(mu + joined.bit_count())
    return bound


def _subset_lattice(bound: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Lattice points of the polytope, in lexicographic order.

    Coordinates are fixed one at a time. With x_0 .. x_(k-1) fixed, every set
    whose largest element is the coordinate k bounds x_k from above by
    b(S) - x(S - k) and, through x(S) = x(all) - x(all - S), from below by
    b(all) - b(all - S) - x(S - k), so each set is checked exactly once along
    a branch.

    Those sums are not rescanned at each node. For every set M of the free
    coordinates F the walk keeps one residual bound, a minimum over the sets
    S of fixed coordinates,

        upper[M] = min_S b(S | M) - x(S),

    which is b(M) at the root. Fixing x_k = v splits each S by whether it
    holds k, which halves the table: the child's upper[M] is
    min(upper[M], upper[M | k] - v). The sets whose largest element is k are
    S | k, so x_k <= upper[{k}] checks all of them from above. Their
    complements are S' | (F - k), S' = fixed - S, and x(S) = x(fixed) - x(S'),
    so x_k >= b(all) - x(fixed) - upper[F - k] checks all of them from below.
    So the search tree and the order of the points are those of the walk
    that rescans all 2^k sums at each node (``tests/oracles.subset_lattice``),
    for any bound, but a child at depth k costs 2^(n-k) table entries
    instead of 2^k. The leaves of the last two coordinates are listed
    without building their two-entry tables.

    The table is one integer of 2^r fields of W bits, r = |F|, the field of
    M holding upper[M] + 2^(W-2). The field index is M bit-reversed: the
    free coordinate k is its top bit, so the sets without k are the low half
    of the integer and those with k the high half, {k} is the lowest field
    of the high half and F - k the highest of the low half, and the child is
    one fieldwise minimum of the low half and the high half minus v times
    the field of ones. With fields a and c below 2^(W-1), (a + 2^(W-1)) - c
    lies in (0, 2^W): subtracting c from a with every guard bit W - 1 set
    borrows across no field, and leaves the guard set exactly where a >= c;
    widened to a field mask m, the minimum is a ^ ((a ^ c) & m).

    W = ((2n + 3) B).bit_length() + 2, B = max |b|, is wide enough. At a
    visited node, x_k <= upper[{k}] <= b({k}) <= B and, as x(fixed) +
    upper[F - k] <= b(all - k) (take S = fixed), x_k >= b(all) - b(all - k)
    >= -2B, so every fixed value has |v| <= 2B. A table entry at depth k is
    b(T) - x(S) for some sets T and S, S among the k fixed coordinates, so
    it lies within (2k + 1) B, and within (2k + 3) B <= (2n + 3) B after v
    is subtracted. That is below 2^(W-2), so each biased field lies in
    (0, 2^(W-1)) and its guard bit is clear. B's own width is not enough:
    with b(all) = -B and b(all - k) = B, x_k = -2B takes an entry B to 3B.
    """
    if n == 0:
        return ((),)
    width = ((2 * n + 3) * max(map(abs, bound))).bit_length() + 2
    top, bias, field = width - 1, 1 << width - 2, (1 << width - 1) - 1
    # Pack b(M) at the index of M: the sets M and M + 2^(n-1-j) differ in
    # index bit j, so each round joins the blocks of such pairs. Adding, not
    # or-ing, keeps negative entries exact until the bias lifts every field.
    table = bound
    ones = [1]  # ones[j]: 2^j fields of 1
    for j in range(n):
        h, shift = 1 << n - 1 - j, width << j
        table = [a + (c << shift) for a, c in zip(table[:h], table[h:])]
        ones.append(ones[j] | ones[j] << shift)
    out: list[tuple[int, ...]] = []
    # The nodes still to expand, the next one last: each one's prefix, its
    # table, b(all) - x(fixed) and its number of free coordinates.
    stack = [((), table[0] + bias * ones[n], bound[-1], n)]
    while stack:
        prefix, upper, rest, r = stack.pop()
        half = width << r - 1
        hi = (upper >> half & field) - bias
        lo = rest + bias - (upper >> half - width & field)
        if r == 1:
            out.extend([prefix + (v,) for v in range(lo, hi + 1)])
        elif r == 2:  # upper of {}, {k + 1} and {k, k + 1}; hi is upper[{k}]
            u0, u1, u3 = (upper & field) - bias, (upper >> width & field) - bias, (upper >> 3 * width) - bias
            for v in range(lo, hi + 1):
                out.extend([prefix + (v, x) for x in range(rest - min(u0 + v, hi), min(u1, u3 - v) + 1)])
        elif lo <= hi:
            one = ones[r - 1]
            guard = one << top
            low = upper & (1 << half) - 1
            high = (upper >> half) - hi * one
            for v in range(hi, lo - 1, -1):  # pushed last to first
                d = ((low | guard) - high) & guard  # guard bits where low >= high
                stack.append((prefix + (v,), low ^ ((low ^ high) & (d - (d >> top))), rest - v, r - 1))
                high += one
    return tuple(out)


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
    ridge hyperplane, in one leaves-first sweep of each tree that reads every
    fact it needs about a ridge off the subtree the ridge cuts off.

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
    generic point of ``_certificate_pass`` lies in exactly one of them. The
    pass reads each ridge's boundary status and each simplex's side of it."""
    ridges, holding = _certificate_pass(rp, tree_sets)
    for boundary, *sides in ridges.values():
        if boundary:
            if len(sides) != 1:
                raise InternalConsistencyError("triangulation boundary ridge lies in more than one simplex")
        elif len(sides) != 2 or sides[0] == sides[1]:
            raise InternalConsistencyError("triangulation interior ridge is not in two simplices on opposite sides")
    if holding != 1:
        raise InternalConsistencyError(f"triangulation covers a generic point {holding} times, not once")


def _certificate_pass(rp: RootPolytope, tree_sets: Sequence[Sequence[int]]):
    """One leaves-first sweep of each tree T from vertex 0: for each ridge,
    keyed by the bitmask of its vertex set, a list of whether it lies on the
    boundary of Q_G and the side bit of each simplex on it; and the number of
    simplices that hold the generic point p. Raises unless each tree has
    n - 1 edges that span the n vertices, which makes it a tree.

    The edge e from a vertex x to its parent cuts T - e into x's subtree S
    and the rest, and A, the side holding e's U-end, is one of them; the
    side bit is 1 when A is the rest, which holds vertex 0. Each vertex
    carries, for its subtree, its vertex mask, its weight sum and the OR of
    its vertices' neighbour masks, each folded into its parent's after it.

    Boundary. The sum of the coordinates in A is 0 on the ridge, 1 at e, and
    1 or -1 at an edge crossing (A, B) as its U-end lies in A or B, so the
    ridge is on the boundary of Q_G iff no crossing edge has its U-end in B.
    Such an edge has its end in S in the class of e's end outside S: V when
    A = S, U when A is the rest. So the ridge is on the boundary iff no
    vertex of S in that class has a neighbour outside S. The graph is
    bipartite, so only that class's vertices have neighbours in the other
    class, and this holds iff the OR of S's neighbour masks has no bit
    outside S among the other class's coordinates: the U coordinates when
    A = S, the V coordinates when A is the rest.

    Sides. The simplex of T lies where x(A) >= 0, and x(A) + x(B) = 0 on the
    span of Q_G. Ridges are keyed by vertex set, not edge ids: parallel edges
    share a generator, so two forests T - e on one ridge join the same pairs
    of vertices and cut the same vertex partition, and two simplices lie on
    opposite sides of the ridge iff their side bits differ. A repeated
    simplex puts two simplices on one side.

    Point. p = sum_k (1 + eps^(k+1)) g_k / sum_k (1 + eps^(k+1)), over the
    generators g_k in edge-id order and for every small enough eps > 0, lies
    inside Q_G. Every edge of T other than e has both ends on one side of
    T - e, so p's barycentric coordinate at e in the simplex of T is p(A),
    with g_k(A) = [u_k in A] - [v_k in A]. Its sign is that of the first
    nonzero entry of (sum_k g_k(A), g_0(A), g_1(A), ...): g_k(A) is nonzero
    exactly at the edges crossing (A, B), e among them, so the entry is
    always found, and p lies on no ridge hyperplane of any tree simplex. The
    first entry is A's weight sum, each vertex weighing its entry of
    sum_k g_k. All weights sum to 0 and every g_k has coordinate sum 0, so
    on the rest each entry is the negative of that on S: the sign is read
    on S and negated when A is the rest.
    """
    ends = rp.ends
    n = rp.u_size + rp.v_size
    vertex_bit = {g: 1 << i for i, g in enumerate(rp.vertices)}
    generator_bit = [vertex_bit[g] for g in rp.generators]
    weight = [0] * n  # sum_k g_k: each vertex's degree, negated on V
    reach = [0] * n  # each vertex's neighbours, as a vertex mask
    for u, v in ends:
        weight[u] += 1
        weight[v] -= 1
        reach[u] |= 1 << v
        reach[v] |= 1 << u
    classes = ((1 << rp.u_size) - 1, (1 << n) - (1 << rp.u_size))  # the U and the V coordinates
    ridges: dict[int, list[bool]] = {}  # ridge vertex set -> [on the boundary, then each simplex's side bit]
    holding = 0
    for tree in tree_sets:
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
        tree_bits = sum({generator_bit[e] for e in tree})
        below, total, near = [1 << x for x in range(n)], weight[:], reach[:]  # per subtree
        inside = True
        for x in reversed(order[1:]):
            u, v = ends[up[x]]
            rest, s = u != x, below[x]  # whether A is the rest; S
            parent = u if rest else v
            below[parent] |= s
            total[parent] += total[x]
            near[parent] |= near[x]
            boundary = not near[x] & ~s & classes[rest]
            ridges.setdefault(tree_bits ^ generator_bit[up[x]], [boundary]).append(rest)
            if inside:
                entry = total[x] or next((s >> u & 1) - (s >> v & 1) for u, v in ends if (s >> u ^ s >> v) & 1)
                inside = (-entry if rest else entry) > 0
        holding += inside
    return ridges, holding


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
