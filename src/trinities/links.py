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

One reading per skein node, resumed where its parent's stopped: only the
root drops kinks from its whole code. A node reads its code once, in order,
pushing the smoothing of each crossing first met on its under-strand as a
child whose kinks are cancelled at the splice's junctions only, and whose
reading resumes after the visits its parent had read; no visit or sign is
rewritten (see ``homfly``). The leaves' terms are summed into one polynomial.
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
    free circle. Returns the components and the updated free count. The
    skein runs it on the diagram's own code only; ``_smoothing`` keeps its
    children free of kinks."""
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


def _joined(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """x + y for two words free of kinks, with the kinks at their junction
    cancelled, a cascade of adjacent visits of one crossing; also how many
    visits of x are left."""
    n = len(x)
    t, most = 0, min(n, len(y))
    while t < most and x[n - 1 - t] >> 1 == y[t] >> 1:
        t += 1
    return x[: n - t] + y[t:], n - t


def _trimmed(word: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """A word free of kinks with the kinks at its cyclic ends cancelled;
    also how many visits left its start."""
    lo, hi = 0, len(word)
    while hi - lo > 1 and word[lo] >> 1 == word[hi - 1] >> 1:
        lo += 1
        hi -= 1
    return word[lo:hi], lo


def _smoothing(
    comps: list[tuple[int, ...]], free: int, i: int, k1: int, w: int
) -> tuple[list[tuple[int, ...]], int, int, int]:
    """The smoothing child of a node whose reading meets crossing c first at
    ``comps[i][k1]``, w being c's other visit: the child's code and free
    circles, with every kink that the splice makes dropped, and the place
    where its reading resumes.

    Each strand that arrives at c leaves along the other strand. If w lies
    later in the same component a, a splits into ``a[:k1] + a[k2 + 1:]``,
    which keeps the start, and ``a[k1 + 1:k2]`` after it; otherwise w lies
    in a later component b, and the two join at a's place as ``a[:k1] +
    b[k2 + 1:] + b[:k2] + a[k1 + 1:]``. Kinks are cancelled at the one or
    two junctions, then each edited piece is trimmed at its cyclic ends. A
    join left empty becomes a free circle; a split leaves no piece empty
    (see ``homfly``). The other components pass through as they are. The
    reading resumes in the edited component, just after what is left of
    ``a[:k1]``, or at its start if the trim took more than that."""
    a = comps[i]
    try:
        k2 = a.index(w, k1 + 1)
    except ValueError:
        j = i + 1
        while w not in comps[j]:
            j += 1
        b = comps[j]
        k2 = b.index(w)
        head, kept = _joined(a[:k1], b[k2 + 1 :] + b[:k2])
        head, left = _joined(head, a[k1 + 1 :])
        head, lo = _trimmed(head)
        if head:
            edited = [head]
        else:
            edited, free = [], free + 1
        kept = min(kept, left)
        rest = comps[i + 1 : j] + comps[j + 1 :]
    else:
        head, kept = _joined(a[:k1], a[k2 + 1 :])
        head, lo = _trimmed(head)
        edited = [head, _trimmed(a[k1 + 1 : k2])[0]]
        rest = comps[i + 1 :]
    return comps[:i] + edited + rest, free, i, max(0, kept - lo)


@cache
def _unlink(k: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The terms of ((v^-1 - v)/z)^(k-1), the unlink of k components, by the
    binomial theorem."""
    n = k - 1
    return tuple(((2 * j - n, -n), (-1) ** j * comb(n, j)) for j in range(n + 1))


def homfly(d: LinkDiagram, crossing_cap: int = CROSSING_CAP) -> LaurentPoly2:
    """HOMFLY-PT polynomial by the skein relation on the diagram's Gauss
    code, one reading per skein node.

    A node is a code free of kinks, its free circles, the place where its
    reading resumes, the bitmask ``met`` of the crossings its ancestors had
    met when it was pushed, and a weight. It reads its code once, in order,
    from that place. At the first visit of any other crossing c, of sign s,
    c joins ``met``; if that visit is an under-visit, P_s = v^(2s) P_-s +
    s v^s z P_0: the smoothing of c, spliced by ``_smoothing``, is pushed as
    a child weighted s v^s z, with ``met`` as it is then, and the switch
    multiplies the weight by v^(2s). Once read, the switched diagram is
    descending, an unlink of its k components, and the node adds weight *
    ((v^-1 - v)/z)^(k-1) to the sum. Only the root runs ``_drop_kinks``,
    since the diagram's own code may hold kinks; it reads from the start.

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

    A child is its parent's smoothed code with all its kinks dropped, as
    ``_drop_kinks`` drops them, and its reading meets what a reading from
    the start would meet, by three facts:

    1. The untouched components are free of kinks: the parent's were (the
       root's by ``_drop_kinks``, every other node's by these facts), and a
       switch changes no crossing id.
    2. Words free of kinks reduce only at their junctions. Two kinks that
       overlap would share a visit, and so need three visits of one
       crossing, which has two; the cancellations commute, and every order
       of them ends at the same code. In a concatenation of kink-free words
       only the pair across a junction can cancel, and each cancellation
       exposes just the next pair across it; the pairs across a piece's
       cyclic ends go last, as in ``_drop_kinks``. So a split leaves no
       piece empty: ``a[k1 + 1:k2]`` holds a visit, as c is no kink, a
       kink-free word cannot trim to nothing, and ``a[:k1] + a[k2 + 1:]``
       could cancel away only if a began and ended at one crossing.
    3. The skipped prefix holds only visits of met crossings: the parent read
       ``comps[:i]`` and ``a[:k1]`` before it met c, so their crossings are
       all in ``met``; the child keeps ``comps[:i]``, and what is left of
       ``a[:k1]`` at the start of its edited component, and a reading from
       the start would skip every one of their visits.

    So the nodes, their order and the sum are those of the skein that drops
    the kinks of each node's whole code and reads it from its start.
    """
    if d.n_crossings > crossing_cap:
        raise CrossingCapExceeded(
            f"diagram has {d.n_crossings} crossings, cap is {crossing_cap}"
        )
    _validate_arcs(d.crossings)
    signs = tuple(c.sign for c in d.crossings)
    terms: dict[tuple[int, int], int] = {}
    comps, free = _drop_kinks(gauss_code(d), d.free_circles)
    # (components, free circles, where reading resumes, crossings met,
    # weight coeff * v^dv * z^dz)
    stack = [(comps, free, 0, 0, 0, 1, 0, 0)]
    while stack:
        comps, free, i0, k0, met, coeff, dv, dz = stack.pop()
        for i in range(i0, len(comps)):
            comp = comps[i]
            for k in range(k0, len(comp)):
                v = comp[k]
                c = v >> 1
                if not met >> c & 1:
                    met |= 1 << c
                    if v & 1:
                        s = signs[c]
                        stack.append((*_smoothing(comps, free, i, k, v ^ 1), met, s * coeff, dv + s, dz + 1))
                        dv += 2 * s
            k0 = 0
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
