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

The skein runs on Gauss codes, with the crossing signs and the free-circle
count: a Reidemeister-I move and a smoothing are tuple splices, and no arc is
relabelled. Each splice keeps the start of the component it edits, so the
descending test reads from fixed base points.

One reading per skein node: a node drops its kinks, then reads its code once,
in order, pushing the smoothing of each crossing first met on its under-strand
as a child; no visit or sign is rewritten (see ``homfly``). The leaves' terms
are summed into one polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Optional, Sequence

from .maps import Bipartition, PlanarMap, derived, orbits
from .polytopes import h_vector
from .trinity import RED, InternalConsistencyError, Trinity


# The most crossings the skein takes unless told otherwise.
CROSSING_CAP = 16


class CrossingCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Crossing:
    sign: int
    over_in: int
    over_out: int
    under_in: int
    under_out: int

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


@derived
def median_diagram_of(t: Trinity) -> LinkDiagram:
    """The trinity's median diagram (violet circles counter-clockwise), built
    once per trinity."""
    return median_diagram(t.map, Bipartition(t.violet, t.emerald), violet=t.violet)


def gauss_code(d: LinkDiagram) -> list[tuple[int, ...]]:
    """The diagram's components as tuples of crossing visits, 2i for the
    over-strand of crossing i and 2i + 1 for its under-strand, in order of
    their smallest arc id, each read from that arc: the cycles of the
    next-arc permutation."""
    visit: dict[int, int] = {}  # in-arc -> its crossing visit
    next_arc: dict[int, int] = {}  # in-arc -> out-arc, the next in-arc
    for i, c in enumerate(d.crossings):
        visit[c.over_in], next_arc[c.over_in] = 2 * i, c.over_out
        visit[c.under_in], next_arc[c.under_in] = 2 * i + 1, c.under_out
    return [tuple(visit[arc] for arc in cycle) for cycle in orbits(next_arc)]


def component_count(d: LinkDiagram) -> int:
    return len(gauss_code(d)) + d.free_circles


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
# The skein, one reading per node.
# ---------------------------------------------------------------------------


def _drop_kinks(comps: list[tuple[int, ...]], free: int) -> tuple[list[tuple[int, ...]], int]:
    """Undo Reidemeister-I kinks: drop two cyclically adjacent visits of one
    crossing, never rotating a component. A component left empty becomes a
    free circle. Returns the components and the updated free count."""
    out = []
    for comp in comps:
        stack: list[int] = []
        for v in comp:
            if stack and stack[-1] >> 1 == v >> 1:
                stack.pop()
            else:
                stack.append(v)
        while len(stack) > 1 and stack[0] >> 1 == stack[-1] >> 1:
            stack = stack[1:-1]
        if stack:
            out.append(tuple(stack))
        else:
            free += 1
    return out, free


def _smoothed(comps: list[tuple[int, ...]], c: int) -> list[tuple[int, ...]]:
    """Oriented smoothing of crossing c: each strand that arrives at c leaves
    along the other strand. One component splits in two, two join in one; the
    edited component keeps its start."""
    (i, k1), (j, k2) = sorted(
        (i, comp.index(v)) for v in (2 * c, 2 * c + 1) for i, comp in enumerate(comps) if v in comp
    )
    a = comps[i]
    if i == j:
        return comps[:i] + [a[:k1] + a[k2 + 1 :], a[k1 + 1 : k2]] + comps[i + 1 :]
    b = comps[j]
    return comps[:i] + [a[:k1] + b[k2 + 1 :] + b[:k2] + a[k1 + 1 :]] + comps[i + 1 : j] + comps[j + 1 :]


@cache
def _unlink(k: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The terms of ((v^-1 - v)/z)^(k-1), the unlink of k components, by the
    binomial theorem."""
    n = k - 1
    return tuple(((2 * j - n, -n), (-1) ** j * comb(n, j)) for j in range(n + 1))


def homfly(d: LinkDiagram, crossing_cap: int = CROSSING_CAP) -> LaurentPoly2:
    """HOMFLY-PT polynomial by the skein relation on the diagram's Gauss
    code, one reading per skein node.

    A node is a code, its free circles, the bitmask ``met`` of the crossings
    its ancestors had met when it was pushed, and a weight. It drops its
    kinks, then reads its code once, in order, from ``met``. At the first
    visit of any other crossing c, of sign s, c joins ``met``; if that visit
    is an under-visit, P_s = v^(2s) P_-s + s v^s z P_0: the smoothing of c is
    pushed as a child weighted s v^s z, with ``met`` as it is then, and the
    switch multiplies the weight by v^(2s). Once read, the switched diagram
    is descending, an unlink of its k components, and the node adds weight *
    ((v^-1 - v)/z)^(k-1) to the sum.

    This is the recursion that switches the first under-first crossing, each
    chain of its switch children read in one pass: a switch changes no
    crossing id, so it makes no kink, and leaves the crossings met unchanged.
    Its smoothing children are this skein's: a smoothing keeps the components
    before the one it edits and that component's start up to c, and kinks
    drop whole crossings, so every crossing in ``met`` keeps its first visit
    in the child ahead of all visits of the others. The recursion reads each
    of them over-first there, met over-first or switched at that visit; a
    crossing outside ``met`` has both visits after that prefix, with the same
    bits in both.
    """
    if d.n_crossings > crossing_cap:
        raise CrossingCapExceeded(
            f"diagram has {d.n_crossings} crossings, cap is {crossing_cap}"
        )
    _validate_arcs(d.crossings)
    signs = tuple(c.sign for c in d.crossings)
    terms: dict[tuple[int, int], int] = {}
    # (components, free circles, crossings met, weight coeff * v^dv * z^dz)
    stack = [(gauss_code(d), d.free_circles, 0, 1, 0, 0)]
    while stack:
        comps, free, met, coeff, dv, dz = stack.pop()
        comps, free = _drop_kinks(comps, free)
        for comp in comps:
            for v in comp:
                c = v >> 1
                if not met >> c & 1:
                    met |= 1 << c
                    if v & 1:
                        s = signs[c]
                        stack.append((_smoothed(comps, c), free, met, s * coeff, dv + s, dz + 1))
                        dv += 2 * s
        for (uv, uz), u in _unlink(len(comps) + free):
            key = (dv + uv, dz + uz)
            terms[key] = terms.get(key, 0) + coeff * u
    return LaurentPoly2.from_dict(terms)


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


def verify_homfly_h_vector(t: Trinity, crossing_cap: int = CROSSING_CAP) -> dict:
    """Compare the top of the median link's HOMFLY-PT polynomial with the
    h-polynomial of the red arborescence triangulation, certified at the
    default root, the interior polynomial of its trees' hypertrees (Kalman
    and Murakami, 2017). Raises ``CrossingCapExceeded`` before any h is read
    when the diagram has more than ``crossing_cap`` crossings.

    The identity checked is top = v^(E+V-1) * h(v^-2); the record also reports
    the h(v^-1) substitution for reference.
    """
    m = t.map
    p = homfly(median_diagram_of(t), crossing_cap)
    top = homfly_top(p)
    h = h_vector(t, RED)
    exponent = m.n_edges + m.n_vertices - 1
    top_deg = len(h) - 1  # h coefficients run from x^(d+1) down to x^0

    def scaled_h(step: int) -> LaurentPoly2:  # v^exponent * h(v^-step)
        return LaurentPoly2.from_dict({(exponent - step * (top_deg - k), 0): c for k, c in enumerate(h) if c != 0})

    rhs2 = scaled_h(2)
    return {
        "homfly": p,
        "top": top,
        "h_vector": h,
        "scaled_h_of_v_minus2": rhs2,
        "scaled_h_of_v_minus1": scaled_h(1),
        "holds": top == rhs2,
    }


def pd_code(d: LinkDiagram) -> str:
    lines = []
    for c in sorted(d.crossings, key=lambda c: c.pd_tuple()):
        a, b, cc, dd = c.pd_tuple()
        lines.append(f"X({a},{b},{cc},{dd}) {'+' if c.sign > 0 else '-'}")
    return "\n".join(lines)
