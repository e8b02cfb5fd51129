"""Outside-in tracer: times and counts calls into the library's public
functions without editing the library.

``Tracer.install()`` replaces every public module attribute that refers to
one of the listed functions, in every loaded ``trinities`` module, with a
timing wrapper. That covers the copies ``from x import y`` makes (for
example ``geometry.lp_solve`` or ``cli.directed_dual``) as well as later
attribute reads through the defining module. ``uninstall()`` puts every
original object back.

Per function it records calls, inclusive seconds (outermost activation only,
so recursion is not counted twice) and, for enumerators, the summed length
of the results. Per module, ``self_s`` is the time spent in that module's
wrapped calls minus the time of wrapped calls nested directly inside them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# Layer -> public functions traced. A function re-exported under another
# module (geometry.simplex_normalized_volume comes from linalg) is listed,
# and its time attributed, under the module its callers import it from.
LAYERS = {
    "documents": ("parse_graph_document", "serialize_graph_document", "document_to_map"),
    "maps": ("build_map", "build_map_from_darts"),
    "trinity": (
        "build_trinity",
        "colour_graph",
        "directed_dual",
        "hypergraph_view",
        "adjacency_matrix",
        "enumerate_tutte_matchings",
        "magic_number_report",
    ),
    "trees": (
        "enumerate_spanning_trees",
        "hypertree_set_of_graph",
        "hypertree_set",
        "count_arborescences",
        "enumerate_arborescences",
        "arborescence_to_spanning_tree",
    ),
    "linalg": ("lp_solve", "det_exact", "rank", "solve_affine"),
    "geometry": (
        "lattice_points",
        "prune_to_vertices",
        "points_contain",
        "affine_dim",
        "intersect_in_common_face",
        "placing_triangulation",
        "total_normalized_volume",
        "simplex_normalized_volume",
    ),
    "polytopes": (
        "gp_polytope_of",
        "trimmed_gp_of",
        "hypertree_polytope_of",
        "root_polytope_of",
        "arborescence_triangulation",
        "verify_duality_suite",
    ),
    "links": ("median_diagram", "homfly", "verify_homfly_h_vector"),
    "floer": ("sfh_support", "tight_contact_count", "sutured_summary"),
    "cli": ("main", "build_report", "cmd_report", "cmd_verify"),
}

# Functions whose result is a collection; ``.items`` sums its length.
ENUMERATORS = frozenset(
    {
        "trees.enumerate_spanning_trees",
        "trees.hypertree_set_of_graph",
        "trees.hypertree_set",
        "trees.enumerate_arborescences",
        "trinity.enumerate_tutte_matchings",
        "geometry.lattice_points",
        "geometry.prune_to_vertices",
    }
)

PACKAGE = "trinities"


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)
        self.crossings = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._active: dict[str, int] = defaultdict(int)
        self._child_time: list[float] = []  # per open call: time of wrapped children
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        modules = []
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, names in LAYERS.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                self.absent.extend(f"{layer}.{name}" for name in names)
                continue
            modules.append(mod)
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrappers.setdefault(id(fn), (fn, self._wrap(fn, layer, f"{layer}.{name}")))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, layer: str, key: str):
        clock = time.process_time  # CPU seconds, like the end-to-end metrics
        active = self._active
        children = self._child_time
        enumerator = key in ENUMERATORS
        is_homfly = key == "links.homfly"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[key] += 1
            if is_homfly:
                diagram = args[0] if args else kwargs["d"]
                self.crossings += diagram.n_crossings
            active[key] += 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = children.pop()
                self.self_s[layer] += elapsed - nested
                if children:
                    children[-1] += elapsed
                active[key] -= 1
                if not active[key]:
                    self.seconds[key] += elapsed
            if enumerator:
                self.items[key] += len(result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data record of everything measured, for JSON transport."""
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "items": dict(self.items),
            "crossings": self.crossings,
            "self_s": dict(self.self_s),
            "absent": list(self.absent),
        }


def merge(snapshots) -> dict:
    """Sum several snapshots (one per traced process)."""
    total = {"calls": defaultdict(int), "seconds": defaultdict(float), "items": defaultdict(int),
             "crossings": 0, "self_s": defaultdict(float), "absent": set()}
    for snap in snapshots:
        for field in ("calls", "seconds", "items", "self_s"):
            for k, v in snap[field].items():
                total[field][k] += v
        total["crossings"] += snap["crossings"]
        total["absent"].update(snap["absent"])
    total["absent"] = sorted(total["absent"])
    return total


def metric_value(snap: dict, name: str):
    """Value of a per-layer metric name such as ``linalg.lp_solve.calls`` or
    ``trees.self_s``; None when the name is not a traced quantity."""
    layer, _, rest = name.partition(".")
    if rest == "self_s":
        return snap["self_s"].get(layer, 0.0) if layer in LAYERS else None
    fn, _, kind = rest.rpartition(".")
    key = f"{layer}.{fn}"
    if layer not in LAYERS or fn not in LAYERS[layer]:
        return None
    if kind == "calls":
        return snap["calls"].get(key, 0)
    if kind == "s":
        return snap["seconds"].get(key, 0.0)
    if kind == "items" and key in ENUMERATORS:
        return snap["items"].get(key, 0)
    if kind == "crossings" and key == "links.homfly":
        return snap["crossings"]
    return None
