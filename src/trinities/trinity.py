"""Trinities: three-coloured triangulations of the sphere built from a plane
bipartite graph, with their colour graphs, balanced directed duals, adjacency
matrix and the count of its Tutte matchings.

Triangles are indexed by darts of the input graph: the triangle of dart d is
the one immediately to the left of d, with corners (violet end, emerald end,
left face). It is white exactly when d is based at a violet vertex — in the
counter-clockwise plane picture the white triangle of an edge lies left of the
violet-to-emerald direction.

Edge i of every colour graph is the i-th white triangle, joining its corners
of the other two colours: ``incidence`` reads a selector's ends off the
triangles with no map, and a map's rotations are the cyclic orders of the
white triangles around its vertices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import integer_det
from .maps import Bipartition, MapError, PlanarMap, build_map, memo

VIOLET = "violet"
EMERALD = "emerald"
RED = "red"
COLOURS = (VIOLET, EMERALD, RED)

HYPERGRAPH_CODES = ("VE", "EV", "ER", "RE", "RV", "VR")
_CODE_TO_COLOUR = {"V": VIOLET, "E": EMERALD, "R": RED}

# Each colour graph's selector whose hyperedges are its class b: the letters
# name its vertex classes in (class_a, class_b) order.
COLOUR_SELECTORS = {RED: "VE", VIOLET: "ER", EMERALD: "RV"}


class InternalConsistencyError(RuntimeError):
    """An identity the construction guarantees failed — an implementation bug."""


@dataclass(frozen=True)
class Triangle:
    dart: int
    violet: int
    emerald: int
    red: int  # face id of the input map
    colour: str  # "white" or "black"

    def corner(self, colour: str) -> int:
        """The id of the triangle's corner of the colour."""
        if colour == VIOLET:
            return self.violet
        if colour == EMERALD:
            return self.emerald
        return self.red

    @property
    def corners(self) -> tuple[tuple[str, int], ...]:
        return ((VIOLET, self.violet), (EMERALD, self.emerald), (RED, self.red))


@dataclass(frozen=True)
class DirectedDual:
    colour: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (tail, head), oriented black -> white
    white_triangles: tuple[int, ...]  # edge i crosses this white triangle


@dataclass(frozen=True)
class Trinity:
    map: PlanarMap
    violet: frozenset[int]
    emerald: frozenset[int]
    outer_face: int
    triangles: tuple[Triangle, ...]  # indexed by dart
    root_triangle: int  # a white triangle id (dart)

    @property
    def red_vertices(self) -> tuple[int, ...]:
        return tuple(range(self.map.n_faces))

    @property
    def white_triangles(self) -> tuple[int, ...]:
        return tuple(t.dart for t in self.triangles if t.colour == "white")

    @property
    def root_vertices(self) -> tuple[tuple[str, int], ...]:
        return self.triangles[self.root_triangle].corners

    def vertices_of_colour(self, colour: str) -> tuple[int, ...]:
        if colour == VIOLET:
            return tuple(sorted(self.violet))
        if colour == EMERALD:
            return tuple(sorted(self.emerald))
        return self.red_vertices

    @property
    def all_vertices(self) -> tuple[tuple[str, int], ...]:
        out = [(VIOLET, v) for v in sorted(self.violet)]
        out += [(EMERALD, v) for v in sorted(self.emerald)]
        out += [(RED, r) for r in self.red_vertices]
        return tuple(out)


def build_trinity(
    m: PlanarMap,
    bip: Bipartition,
    outer_face: int = 0,
    root_triangle: Optional[int] = None,
) -> Trinity:
    """The trinity of the plane map whose violet vertices are class_a and
    emerald ones class_b: the triangle of dart d is white iff d is based at a
    violet vertex. Each edge must join a vertex of class_a only to one of
    class_b only (else ``MapError``), so its dart at the emerald end is
    black. With next(d) = sigma^-1(alpha(d)) on d's face, the partner of a
    white w across its side of each colour, ``_black_partner_across``, is
    such a dart and shares the side's two corners by the map axioms alone:
    - red: alpha(w), the other dart of w's edge, has the same two ends;
    - violet: sigma^-1(alpha(w)) = next(w) is on w's face, at w's emerald end;
    - emerald: alpha(sigma(w)) is on w's face, as its next is w, and its
      head is w's violet vertex.
    """
    if not (0 <= outer_face < m.n_faces):
        raise MapError(f"outer face {outer_face} out of range")
    for e, ends in enumerate(m.edges):
        if sorted((v in bip.class_a, v in bip.class_b) for v in ends) != [(False, True), (True, False)]:
            raise MapError(f"edge {e} does not join class_a to class_b")
    triangles = []
    for d in range(m.n_darts):
        base = m.vertex_of[d]
        head = m.head_of(d)
        white = base in bip.class_a
        triangles.append(
            Triangle(
                dart=d,
                violet=base if white else head,
                emerald=head if white else base,
                red=m.face_of[d],
                colour="white" if white else "black",
            )
        )
    if root_triangle is None:
        outer_whites = [tr.dart for tr in triangles if tr.colour == "white" and tr.red == outer_face]
        if not outer_whites:
            raise InternalConsistencyError("outer face meets no white triangle")
        root_triangle = min(outer_whites)
    elif not (0 <= root_triangle < m.n_darts) or triangles[root_triangle].colour != "white":
        raise MapError(f"root triangle {root_triangle} is not a white triangle")
    return Trinity(
        map=m,
        violet=frozenset(bip.class_a),
        emerald=frozenset(bip.class_b),
        outer_face=outer_face,
        triangles=tuple(triangles),
        root_triangle=root_triangle,
    )


def _black_partner_across(t: Trinity, w: int, colour: str) -> int:
    """The black triangle sharing the colour-c edge of the white triangle w
    (see ``build_trinity``)."""
    m = t.map
    if colour == RED:
        return m.alpha(w)
    if colour == VIOLET:
        return m.sigma_inv(m.alpha(w))
    return m.alpha(m.sigma[w])


def colour_graph(t: Trinity, colour: str) -> tuple[PlanarMap, Bipartition]:
    """The colour-c subgraph of the trinity as an embedded map, built once per
    trinity and colour.

    Edge i is the white triangle of input edge i. For red the map IS the
    input map; for violet and emerald the vertices are the positions of
    ``incidence(t, COLOUR_SELECTORS[colour])``, class_a (X) then class_b (Y).
    The faces are the colour's own vertices, and the directed dual is the
    oriented planar dual: its edge i crosses edge i from right to left, seen
    from the class_a end (Kalman-Postnikov, *Root polytopes, Tutte
    polynomials, and a duality theorem for bipartite graphs*, 2017).
    """
    return memo(t, ("colour_graph", colour), lambda: _colour_graph(t, colour))


def _colour_graph(t: Trinity, colour: str) -> tuple[PlanarMap, Bipartition]:
    if colour == RED:
        return t.map, Bipartition(class_a=t.violet, class_b=t.emerald)
    code = COLOUR_SELECTORS[colour]
    ends, n_y, n_x = incidence(t, code)
    # Each input edge has one white dart, at its violet end: white triangle w is edge w // 2.
    rotations = [
        [w // 2 for w in _whites_around(t, c, v)] for c in hypergraph_classes(code) for v in t.vertices_of_colour(c)
    ]
    cm = build_map(n_x + n_y, [(x, n_x + y) for y, x in ends], rotations)
    return cm, Bipartition(class_a=frozenset(range(n_x)), class_b=frozenset(range(n_x, n_x + n_y)))


def _whites_around(t: Trinity, colour: str, v: int) -> Sequence[int]:
    """The white triangles at the colour-c vertex v in counter-clockwise order:
    at a violet vertex the triangles of its darts, at an emerald vertex those
    of alpha of its darts, and at a red vertex, a face, the white darts of the
    face orbit."""
    m = t.map
    if colour == VIOLET:
        return m.darts_of_vertex(v)
    if colour == EMERALD:
        return [m.alpha(d) for d in m.darts_of_vertex(v)]
    return [d for d in m.faces[v] if t.triangles[d].colour == "white"]


def incidence(t: Trinity, code: str) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """Each white triangle's (Y position, X position), in white-triangle
    order, with |Y| and |X|, once per trinity and selector: its Y and X
    corners as positions in ``vertices_of_colour``. Edge i of the colour graph
    ``colour_of_hypergraph(code)`` has these ends; the selector's hyperedges,
    root polytope and trees' hypertrees all read them."""

    def build():
        x_colour, y_colour = hypergraph_classes(code)
        x_pos = {v: i for i, v in enumerate(t.vertices_of_colour(x_colour))}
        y_pos = {v: i for i, v in enumerate(t.vertices_of_colour(y_colour))}
        whites = [t.triangles[w] for w in t.white_triangles]
        ends = tuple((y_pos[tri.corner(y_colour)], x_pos[tri.corner(x_colour)]) for tri in whites)
        return ends, len(y_pos), len(x_pos)

    return memo(t, ("incidence", code), build)


def directed_dual(t: Trinity, colour: str) -> DirectedDual:
    """The balanced directed dual of the colour graph, built once per trinity
    and colour."""
    return memo(t, ("directed_dual", colour), lambda: _directed_dual(t, colour))


def _directed_dual(t: Trinity, colour: str) -> DirectedDual:
    whites = t.white_triangles
    edges = []
    for w in whites:
        b = _black_partner_across(t, w, colour)
        tail = t.triangles[b].corner(colour)
        head = t.triangles[w].corner(colour)
        edges.append((tail, head))
    vertices = t.vertices_of_colour(colour)
    dd = DirectedDual(colour=colour, vertices=vertices, edges=tuple(edges), white_triangles=tuple(whites))
    _check_balanced(dd)
    return dd


def _check_balanced(dd: DirectedDual) -> None:
    indeg: Counter = Counter()
    outdeg: Counter = Counter()
    for tail, head in dd.edges:
        outdeg[tail] += 1
        indeg[head] += 1
    for v in dd.vertices:
        if indeg[v] != outdeg[v]:
            raise InternalConsistencyError(f"directed dual not balanced at vertex {v}")


def non_root_vertices(t: Trinity) -> tuple[tuple[str, int], ...]:
    roots = set(t.root_vertices)
    return tuple(v for v in t.all_vertices if v not in roots)


def non_root_white_triangles(t: Trinity) -> tuple[int, ...]:
    return tuple(w for w in t.white_triangles if w != t.root_triangle)


def _adjacent(tri: Triangle, vertex: tuple[str, int]) -> bool:
    return vertex in tri.corners


def adjacency_matrix(t: Trinity) -> tuple[tuple[int, ...], ...]:
    """The 0/1 entries of the matrix of ``non_root_vertices`` (rows) against
    ``non_root_white_triangles`` (columns), built once per trinity: the
    determinant and the matching count share it."""

    def build():
        cols = non_root_white_triangles(t)
        return tuple(tuple(1 if _adjacent(t.triangles[c], v) else 0 for c in cols) for v in non_root_vertices(t))

    return memo(t, "adjacency_matrix", build)


def count_tutte_matchings(t: Trinity) -> int:
    """The number of Tutte matchings: bijections from the non-root vertices to
    adjacent non-root white triangles, i.e. the permutations supported on the
    1-entries of the adjacency matrix, counted without listing them.

    A frontier dynamic program. The rows are swept greedily: next comes the
    row whose options open the fewest columns not yet seen (ties to the lower
    index). A state is the set of frontier columns already used, as a bitmask,
    with the number of partial matchings that reach it. Each row takes one
    unused option. A column closes after the last row that can take it: a
    state that leaves it unused can never become a bijection and is dropped,
    and a used one is forgotten, so the frontier holds only columns some later
    row can still take. The count is that of the empty mask at the end.

    Only the 0/1 pattern is read, never a determinant, so this route stays
    independent of ``round_det``.
    """
    entries = adjacency_matrix(t)
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise InternalConsistencyError("the Tutte adjacency matrix is not square")
    options = [[j for j, x in enumerate(row) if x] for row in entries]
    order: list[int] = []
    seen: set[int] = set()
    pending = set(range(n))
    while pending:
        i = min(pending, key=lambda r: (len(set(options[r]) - seen), r))
        pending.remove(i)
        order.append(i)
        seen.update(options[i])
    last = {j: step for step, i in enumerate(order) for j in options[i]}
    closing = [0] * n  # step -> bitmask of the columns no later row can take
    for j, step in last.items():
        closing[step] |= 1 << j
    states = {0: 1}
    for step, i in enumerate(order):
        done = closing[step]
        nxt: dict[int, int] = {}
        for used, count in states.items():
            for j in options[i]:
                new = used | 1 << j
                if new != used and new & done == done:
                    key = new & ~done
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return states.get(0, 0)


def hypergraph_classes(code: str) -> tuple[str, str]:
    if code not in HYPERGRAPH_CODES:
        raise ValueError(f"unknown hypergraph selector {code!r}; expected one of {HYPERGRAPH_CODES}")
    return _CODE_TO_COLOUR[code[0]], _CODE_TO_COLOUR[code[1]]


def colour_of_hypergraph(code: str) -> str:
    """The colour graph whose classes realize the hypergraph (X,Y)."""
    x, y = hypergraph_classes(code)
    (missing,) = [c for c in COLOURS if c not in (x, y)]
    return missing


def default_root(t: Trinity, colour: str) -> int:
    """The root triangle's corner of the colour."""
    return t.triangles[t.root_triangle].corner(colour)


def magic_number_report(t: Trinity) -> dict:
    from . import trees

    det_route = abs(round_det(t))
    matchings = count_tutte_matchings(t)
    rho = {}
    for colour in COLOURS:
        rho[colour] = trees.count_arborescences(directed_dual(t, colour), default_root(t, colour))
    hyper = {code: len(trees.hypertree_set(t, code)) for code in HYPERGRAPH_CODES}
    values = [det_route, matchings, *rho.values(), *hyper.values()]
    return {
        "det": det_route,
        "tutte_matchings": matchings,
        "arborescences": {c: rho[c] for c in COLOURS},
        "hypertree_counts": hyper,
        "all_equal": len(set(values)) == 1,
        "magic_number": values[0] if len(set(values)) == 1 else None,
    }


def round_det(t: Trinity) -> int:
    return integer_det(adjacency_matrix(t))
