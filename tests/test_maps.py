import pytest

from trinities.maps import (
    MapError,
    NotConnectedError,
    NotPlanarError,
    betti1,
    build_map,
    build_map_from_darts,
    derived,
    orbits,
)

from helpers import (
    NotBipartiteError,
    bipartition,
    g1_map,
    graphs,
    grouped,
    maps_isomorphic,
    planar_dual,
)


def test_g1_structure():
    m = g1_map()
    assert (m.n_vertices, m.n_edges, m.n_faces) == (5, 5, 2)
    assert m.faces == ((0, 3, 6, 9, 4, 1), (2, 5, 8, 7))
    assert betti1(m) == 1


def test_g1_bipartition():
    b = bipartition(g1_map())
    assert sorted(b.class_a) == [0, 1, 2]
    assert sorted(b.class_b) == [3, 4]


def next_in_face(m, d):
    """Next dart along the face on the left of d."""
    return m.sigma_inv(m.alpha(d))


def test_face_orbits_trace_left_side():
    m = g1_map()
    # The face on the left of a dart contains that dart in its orbit.
    for d in range(m.n_darts):
        assert d in m.faces[m.face_of[d]]
        assert m.face_of[next_in_face(m, d)] == m.face_of[d]


def test_dual_and_double_dual():
    m = g1_map()
    dual = planar_dual(m)
    assert (dual.n_vertices, dual.n_edges, dual.n_faces) == (2, 5, 5)
    assert maps_isomorphic(planar_dual(dual), m)


def test_single_edge_and_its_dual():
    m = build_map(2, ((0, 1),), ((0,), (0,)))
    assert m.n_faces == 1
    d = planar_dual(m)
    assert (d.n_vertices, d.n_edges) == (1, 1)


def test_triangle_is_not_bipartite():
    m = build_map(3, ((0, 1), (1, 2), (2, 0)), ((0, 2), (1, 0), (2, 1)))
    assert m.n_faces == 2
    with pytest.raises(NotBipartiteError):
        bipartition(m)


def test_nonplanar_rotation_system_rejected():
    # K4 has planar rotation systems and toroidal ones.
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    planar = ((0, 1, 2), (0, 4, 3), (1, 3, 5), (2, 5, 4))
    build_map(4, edges, planar)
    twisted = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 5, 4))
    with pytest.raises(NotPlanarError):
        build_map(4, edges, twisted)


def test_disconnected_rejected():
    with pytest.raises(NotConnectedError):
        build_map(4, ((0, 1), (2, 3)), ((0,), (0,), (1,), (1,)))


def test_an_empty_graph_on_two_vertices_is_disconnected():
    with pytest.raises(NotConnectedError, match="empty graph must be a single vertex"):
        build_map_from_darts(2, (), ((), ()))


PATH_EDGES = ((0, 1), (1, 2))  # the path 0 - 1 - 2; its rotations are (0,), (0, 1), (1,)


@pytest.mark.parametrize(
    "n_vertices, edges, rotations",
    [
        pytest.param(3, PATH_EDGES, ((0,), (0, 5), (1,)), id="unknown-edge"),
        pytest.param(3, PATH_EDGES, ((0,), (0, 1), (1, 0)), id="edge-at-a-vertex-it-does-not-touch"),
        pytest.param(2, ((0, 1),), ((0, 0), (0,)), id="edge-twice-at-one-vertex"),
        pytest.param(3, PATH_EDGES, ((0,), (0,), (1,)), id="edge-end-left-out"),
        pytest.param(3, PATH_EDGES, ((0,), (0, 1)), id="fewer-rotations-than-vertices"),
    ],
)
def test_bad_rotation_rejected(n_vertices, edges, rotations):
    with pytest.raises(MapError):
        build_map(n_vertices, edges, rotations)


def test_rotation_order_is_respected():
    m = g1_map()
    # Darts 1, 3, 5 sit at vertex e1 = 3; the given cyclic order 0,2,1 of
    # edge ids makes sigma cycle them as 1 -> 5 -> 3.
    assert m.darts_of_vertex(3) == (1, 5, 3)
    assert m.sigma[1] == 5 and m.sigma[5] == 3 and m.sigma[3] == 1


@pytest.mark.parametrize("cases", grouped("grids", "2x3", "3x3", "3x4", "4x4"))
def test_canonical_face_ordering(cases):
    # Each face is a next(d) cycle from its smallest dart, the faces come in
    # the order of that dart and partition the darts, and each vertex's darts
    # are its sigma cycle from its smallest dart.
    for m in (t.map for t in graphs(*cases)):
        for orbit in m.faces:
            assert orbit[0] == min(orbit)
            assert [next_in_face(m, d) for d in orbit] == [*orbit[1:], orbit[0]]
        assert [orbit[0] for orbit in m.faces] == sorted(orbit[0] for orbit in m.faces)
        assert sorted(d for orbit in m.faces for d in orbit) == list(range(m.n_darts))
        for v in range(m.n_vertices):
            darts = m.darts_of_vertex(v)
            assert darts[0] == min(darts) and {m.vertex_of[d] for d in darts} == {v}
            assert [m.sigma[d] for d in darts] == [*darts[1:], darts[0]]


def test_orbits_are_cycles_from_their_smallest_element_in_its_order():
    # Labels need not run from 0 or be contiguous.
    assert orbits({10: 11, 11: 10, 3: 3, 7: 5, 5: 7}) == ((3,), (5, 7), (10, 11))
    assert orbits({}) == ()


def test_loops_allowed_only_when_requested():
    # The library's entry rejects a loop; the dart-level builder, which only
    # the planar dual of the tests calls, takes one.
    with pytest.raises(MapError, match="loop at vertex 0"):
        build_map(1, ((0, 0),), ((0, 0),))
    m = build_map_from_darts(1, ((0, 0),), ((0, 1),))
    assert m.n_faces == 2


def test_derived_keeps_one_value_per_function_object_and_arguments():
    builds = []

    def builder(name):
        def build(obj, *args):
            builds.append((name, id(obj), args))
            return name, args

        build.__name__ = name
        return derived(build)

    first, second = builder("first"), builder("second")
    m, equal = g1_map(), g1_map()
    assert m == equal and m is not equal
    for _ in range(2):
        assert first(m, 1) == ("first", (1,))
        assert second(m, 1) == ("second", (1,))
        assert first(m, 1, 2) == ("first", (1, 2))
        assert first(m) == ("first", ())
        assert first(equal, 1) == ("first", (1,))
    assert first(m, 1) is first(m, 1)
    assert builds == [
        ("first", id(m), (1,)),
        ("second", id(m), (1,)),
        ("first", id(m), (1, 2)),
        ("first", id(m), ()),
        ("first", id(equal), (1,)),
    ]
    assert first.__name__ == "first"


def test_a_derived_build_that_raises_keeps_nothing():
    attempts = []

    @derived
    def failing(obj, n):
        attempts.append(n)
        raise ValueError("no value")

    m = g1_map()
    for _ in range(2):
        with pytest.raises(ValueError, match="no value"):
            failing(m, 3)
    assert attempts == [3, 3]
    assert failing.__wrapped__ not in vars(m)
