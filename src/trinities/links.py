"""Median links of plane bipartite graphs and their HOMFLY-PT polynomials.

The median construction places one Seifert circle around each vertex (violet
circles run counter-clockwise, emerald ones clockwise) and one crossing on
each edge, producing an oriented special alternating diagram. Arcs are
labelled by the darts of the source graph: arc d is the corner piece between
darts d and sigma(d).

HOMFLY-PT convention, fixed once: v^-1 P(L+) - v P(L-) = z P(L0), the unknot
evaluates to 1, and a split union multiplies by (v^-1 - v)/z per extra
component. The over/under assignment of the median crossings is calibrated so
that these diagrams come out positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .maps import Bipartition, PlanarMap, memo
from .polytopes import arborescence_triangulation, h_vector
from .trinity import RED, InternalConsistencyError, Trinity


class CrossingCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Crossing:
    sign: int
    over_in: int
    over_out: int
    under_in: int
    under_out: int

    def switched(self) -> "Crossing":
        return Crossing(
            sign=-self.sign,
            over_in=self.under_in,
            over_out=self.under_out,
            under_in=self.over_in,
            under_out=self.over_out,
        )

    def pd_tuple(self) -> tuple[int, int, int, int]:
        """Arc labels counter-clockwise starting at the incoming under-strand."""
        if self.sign > 0:
            return (self.under_in, self.over_out, self.under_out, self.over_in)
        return (self.under_in, self.over_in, self.under_out, self.over_out)


@dataclass(frozen=True)
class LinkDiagram:
    crossings: tuple[Crossing, ...]
    free_circles: int = 0

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)


def _validate_arcs(crossings: Sequence[Crossing]) -> None:
    ins = sorted([c.over_in for c in crossings] + [c.under_in for c in crossings])
    outs = sorted([c.over_out for c in crossings] + [c.under_out for c in crossings])
    if ins != outs or len(set(ins)) != len(ins):
        raise InternalConsistencyError("each arc must enter one crossing and leave one crossing")


def median_diagram(m: PlanarMap, bip: Bipartition, violet: Optional[frozenset[int]] = None) -> LinkDiagram:
    """Oriented special alternating link diagram of the graph, one crossing per
    edge; the strand entering along a violet circle passes over."""
    if violet is None:
        violet = bip.class_a
    crossings = []
    for e in range(m.n_edges):
        d = 2 * e if m.vertex_of[2 * e] in violet else 2 * e + 1
        dh = m.alpha(d)
        crossings.append(
            Crossing(
                sign=1,
                over_in=m.sigma_inv(d),
                over_out=m.sigma_inv(dh),
                under_in=dh,
                under_out=d,
            )
        )
    _validate_arcs(crossings)
    return LinkDiagram(crossings=tuple(crossings))


def median_diagram_of(t: Trinity) -> LinkDiagram:
    """The trinity's median diagram (violet circles counter-clockwise), built
    once per trinity."""
    bip = Bipartition(t.violet, t.emerald)
    return memo(t, "median_diagram", lambda: median_diagram(t.map, bip, violet=t.violet))


def mirror(d: LinkDiagram) -> LinkDiagram:
    return LinkDiagram(
        crossings=tuple(c.switched() for c in d.crossings), free_circles=d.free_circles
    )


def component_count(d: LinkDiagram) -> int:
    succ: dict[int, int] = {}
    for c in d.crossings:
        succ[c.over_in] = c.over_out
        succ[c.under_in] = c.under_out
    seen: set[int] = set()
    n = 0
    for a in sorted(succ):
        if a not in seen:
            n += 1
            cur = a
            while cur not in seen:
                seen.add(cur)
                cur = succ[cur]
    return n + d.free_circles


def seifert_data(t: Trinity) -> dict:
    """Component count, Euler characteristic and genus of the median Seifert
    surface (a disc per vertex, a band per edge)."""
    m = t.map
    d = median_diagram_of(t)
    comps = component_count(d)
    chi = m.n_vertices - m.n_edges
    genus2 = 2 - chi - comps
    if genus2 % 2 != 0 or genus2 < 0:
        raise InternalConsistencyError("Euler characteristic, components and genus are inconsistent")
    return {
        "components": comps,
        "euler_characteristic": chi,
        "genus": genus2 // 2,
        "seifert_circles": m.n_vertices,
        "writhe": d.writhe(),
    }


# ---------------------------------------------------------------------------
# Laurent polynomials in v and z.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentPoly2:
    """Integer Laurent polynomial in v and z; keys are (v exponent, z exponent)."""

    coeffs: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int], int]) -> "LaurentPoly2":
        return cls(tuple(sorted((k, v) for k, v in d.items() if v != 0)))

    @classmethod
    def monomial(cls, coeff: int = 1, v: int = 0, z: int = 0) -> "LaurentPoly2":
        return cls.from_dict({(v, z): coeff})

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.coeffs)

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        d = self.as_dict()
        for k, c in other.coeffs:
            d[k] = d.get(k, 0) + c
        return LaurentPoly2.from_dict(d)

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        d = self.as_dict()
        for k, c in other.coeffs:
            d[k] = d.get(k, 0) - c
        return LaurentPoly2.from_dict(d)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        d: dict[tuple[int, int], int] = {}
        for (v1, z1), c1 in self.coeffs:
            for (v2, z2), c2 in other.coeffs:
                k = (v1 + v2, z1 + z2)
                d[k] = d.get(k, 0) + c1 * c2
        return LaurentPoly2.from_dict(d)

    def shift(self, v: int = 0, z: int = 0, coeff: int = 1) -> "LaurentPoly2":
        return LaurentPoly2(tuple(sorted((((vv + v, zz + z), coeff * c) for (vv, zz), c in self.coeffs))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def subst_v_one(self) -> "LaurentPoly2":
        """Set v = 1, leaving a polynomial in z."""
        d: dict[tuple[int, int], int] = {}
        for (_v, z), c in self.coeffs:
            d[(0, z)] = d.get((0, z), 0) + c
        return LaurentPoly2.from_dict(d)

    def z_degrees(self) -> tuple[int, ...]:
        return tuple(sorted({z for (_v, z), _c in self.coeffs}))

    def z_coefficient(self, z: int) -> "LaurentPoly2":
        return LaurentPoly2(tuple(((v, 0), c) for (v, zz), c in self.coeffs if zz == z))


ONE = LaurentPoly2.from_dict({(0, 0): 1})
ZERO = LaurentPoly2.from_dict({})


def format_poly(p: LaurentPoly2) -> str:
    """Deterministic human-readable form, by descending v then z exponent."""
    if p.is_zero():
        return "0"
    parts = []
    for (v, z), c in sorted(p.coeffs, key=lambda t: (-t[0][0], -t[0][1])):
        factors = []
        if v:
            factors.append("v" if v == 1 else f"v^{v}")
        if z:
            factors.append("z" if z == 1 else f"z^{z}")
        if factors:
            body = " ".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)} {body}"
        else:
            body = str(abs(c))
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Skein recursion.
# ---------------------------------------------------------------------------


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


DELTA = LaurentPoly2.from_dict({(-1, -1): 1, (1, -1): -1})  # (v^-1 - v) / z


def _split_factor(n_components: int) -> LaurentPoly2:
    out = ONE
    for _ in range(n_components - 1):
        out = out * DELTA
    return out


def _homfly(crossings: list[Crossing], free: int) -> LaurentPoly2:
    free = _remove_r1(crossings, free)
    if not crossings:
        return _split_factor(free)
    i = _first_ascending(crossings)
    if i is None:
        # Descending diagram: an unlink of its components.
        return _split_factor(component_count(LinkDiagram(tuple(crossings), free)))
    c = crossings[i]
    switched = [x for x in crossings]
    switched[i] = c.switched()
    smoothed = list(crossings)
    free_s = _smooth(smoothed, i, free)
    p_switch = _homfly(switched, free)
    p_smooth = _homfly(smoothed, free_s)
    if c.sign > 0:
        # v^-1 P+ - v P- = z P0  =>  P+ = v^2 P- + v z P0
        return p_switch.shift(v=2) + p_smooth.shift(v=1, z=1)
    # P- = v^-2 P+ - v^-1 z P0
    return p_switch.shift(v=-2) - p_smooth.shift(v=-1, z=1)


def homfly(d: LinkDiagram, crossing_cap: int = 16) -> LaurentPoly2:
    if d.n_crossings > crossing_cap:
        raise CrossingCapExceeded(
            f"diagram has {d.n_crossings} crossings, cap is {crossing_cap}"
        )
    _validate_arcs(d.crossings)
    return _homfly(list(d.crossings), d.free_circles)


def homfly_top(p: LaurentPoly2) -> LaurentPoly2:
    """The v-polynomial of the highest z-degree whose coefficient survives v=1."""
    if p.is_zero():
        raise ValueError("zero polynomial has no top")
    for z in sorted(p.z_degrees(), reverse=True):
        coeff = p.z_coefficient(z)
        if not coeff.subst_v_one().is_zero():
            return coeff
    raise ValueError("every z-coefficient vanishes at v = 1")


def alexander_conway(p: LaurentPoly2) -> LaurentPoly2:
    """The specialization v = 1, a polynomial in z."""
    return p.subst_v_one()


def verify_homfly_h_vector(t: Trinity, root: Optional[int] = None, crossing_cap: int = 16) -> dict:
    """Compare the top of the median link's HOMFLY-PT polynomial with the
    h-polynomial of the arborescence triangulation at the given root.

    The identity checked is top = v^(E+V-1) * h(v^-2); the record also reports
    the h(v^-1) substitution for reference.
    """
    m = t.map
    p = homfly(median_diagram_of(t), crossing_cap)
    top = homfly_top(p)
    tr = arborescence_triangulation(t, RED, root)
    h = h_vector(tr)
    exponent = m.n_edges + m.n_vertices - 1
    top_deg = len(h) - 1  # h coefficients run from x^(d+1) down to x^0
    rhs2 = LaurentPoly2.from_dict(
        {(exponent - 2 * (top_deg - k), 0): c for k, c in enumerate(h) if c != 0}
    )
    rhs1 = LaurentPoly2.from_dict(
        {(exponent - (top_deg - k), 0): c for k, c in enumerate(h) if c != 0}
    )
    return {
        "homfly": p,
        "top": top,
        "h_vector": h,
        "scaled_h_of_v_minus2": rhs2,
        "scaled_h_of_v_minus1": rhs1,
        "holds": top == rhs2,
    }


def pd_code(d: LinkDiagram) -> str:
    lines = []
    for c in sorted(d.crossings, key=lambda c: c.pd_tuple()):
        a, b, cc, dd = c.pd_tuple()
        lines.append(f"X({a},{b},{cc},{dd}) {'+' if c.sign > 0 else '-'}")
    return "\n".join(lines)
