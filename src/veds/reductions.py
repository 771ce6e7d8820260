"""Constructive reductions from set cover to vertex-edge domination on
star-convex and comb-convex bipartite graphs.

Both graphs are one gadget.  X holds the elements a_1..a_p, then a backbone
whose last vertex is the hub, then a pendant; Y holds the sets b_1..b_q,
then a private z_i per element, then a bridge.  Edges are the memberships,
a_i~z_i, every backbone vertex to every b_j, and the path
hub~bridge~pendant.  The star's backbone is the single vertex u; the comb's
is r_1..r_{p+1}.  So in both graphs the hub is x_{n1-1}, the pendant x_{n1}
and the bridge y_{n2}, and the pendant edge forces the hub into any
normalised solution.  A cover of size t then corresponds exactly to a
VED-set of size t + 1, in both directions.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from .errors import ContractError, DomainError, InputError
from .graph import (
    BipartiteGraph,
    VertexRef,
    build_graph,
    is_ve_dominating_set,
    xref,
    yref,
)

__all__ = [
    "SetSystem",
    "TreeCertificate",
    "ReductionArtifact",
    "TreeConvexityCheck",
    "reduce_star_convex",
    "reduce_comb_convex",
    "cover_to_vedset",
    "vedset_to_cover",
    "verify_tree_convexity",
    "approx_set_cover",
]


class _SetSystemFields(NamedTuple):
    universe: int
    sets: tuple[frozenset[int], ...]


class SetSystem(_SetSystemFields):
    """A universe 1..universe and a family of nonempty subsets of it.

    Every way of building one checks both fields (InputError): a direct
    call, ``_replace``, ``_make``, ``copy``, and ``pickle`` at every
    protocol, whose recipe is the constructor call.
    """

    __slots__ = ()

    def __new__(cls, universe: int, sets: tuple[frozenset[int], ...]) -> SetSystem:
        if universe < 1:
            raise InputError(f"universe size must be at least 1, got {universe}")
        for k, s in enumerate(sets, start=1):
            if not s:
                raise InputError(f"set {k} is empty")
            for e in s:
                if not 1 <= e <= universe:
                    raise InputError(f"set {k} contains out-of-range element {e}")
        return super().__new__(cls, universe, sets)

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)

    @classmethod
    def _make(cls, fields: Iterable) -> SetSystem:
        return cls(*fields)

    @property
    def q(self) -> int:
        return len(self.sets)

    def is_cover(self, indices: Iterable[int]) -> bool:
        chosen: set[int] = set()
        for k in indices:
            if not 1 <= k <= self.q:
                raise InputError(f"set index {k} out of range (q={self.q})")
            chosen |= self.sets[k - 1]
        return len(chosen) == self.universe


class TreeCertificate(NamedTuple):
    """Witness tree over the X side: a star (one centre) or a comb (a path
    backbone with exactly one pendant tooth per backbone vertex)."""

    kind: str  # "star" | "comb"
    edges: tuple[tuple[int, int], ...]
    center: int | None = None
    backbone: tuple[int, ...] = ()
    teeth: tuple[tuple[int, int], ...] = ()  # (backbone vertex, tooth) pairs


class ReductionArtifact(NamedTuple):
    """A reduced graph, its witness tree, the role of every vertex, and the
    set system it came from.  The correspondence needs a cover, which a
    system whose sets miss some element lacks."""

    graph: BipartiteGraph
    certificate: TreeCertificate
    vertex_roles: tuple[tuple[str, VertexRef], ...]
    system: SetSystem


def _gadget(
    ss: SetSystem, backbone: list[str], pendant: str, bridge: str, cert: TreeCertificate
) -> ReductionArtifact:
    """The reduced graph with the named backbone x_{p+1}..x_{n1-1}, pendant
    x_{n1} and bridge y_{n2}; the last backbone vertex is the hub."""
    p, q = ss.universe, ss.q
    if q > p:
        raise ContractError(
            f"reduction requires the family to be no larger than the universe "
            f"(got {q} sets over {p} elements)"
        )
    if q < 1:
        raise ContractError("reduction requires at least one set")
    hub, y_bridge = p + len(backbone), q + p + 1
    edges = [(i, j) for j, members in enumerate(ss.sets, start=1) for i in members]
    edges += [(i, q + i) for i in range(1, p + 1)]
    edges += [(r, j) for r in range(p + 1, hub + 1) for j in range(1, q + 1)]
    edges += [(hub, y_bridge), (hub + 1, y_bridge)]
    roles = [(f"a{i}", xref(i)) for i in range(1, p + 1)]
    roles += [(name, xref(p + k)) for k, name in enumerate(backbone, start=1)]
    roles.append((pendant, xref(hub + 1)))
    roles += [(f"b{j}", yref(j)) for j in range(1, q + 1)]
    roles += [(f"z{i}", yref(q + i)) for i in range(1, p + 1)]
    roles.append((bridge, yref(y_bridge)))
    return ReductionArtifact(
        graph=build_graph(hub + 1, y_bridge, edges),
        certificate=cert,
        vertex_roles=tuple(roles),
        system=ss,
    )


def reduce_star_convex(ss: SetSystem) -> ReductionArtifact:
    """The gadget with backbone u, pendant u' and bridge v: X = elements + u
    + u'; Y = sets + privates + v.  The witness star is centred at u."""
    u = ss.universe + 1
    star = TreeCertificate(
        kind="star",
        edges=tuple((u, t) for t in range(1, u)) + ((u, u + 1),),
        center=u,
    )
    return _gadget(ss, ["u"], "u'", "v", star)


def reduce_comb_convex(ss: SetSystem) -> ReductionArtifact:
    """The gadget with backbone r_1..r_{p+1}, pendant r' and bridge w: every
    set vertex sees the whole backbone, and the hub path is r_{p+1}~w~r'.
    The witness comb hangs a_i off r_i and r' off r_{p+1}."""
    p = ss.universe
    backbone = tuple(range(p + 1, 2 * p + 2))
    teeth = tuple(zip(backbone, range(1, p + 1))) + ((2 * p + 1, 2 * p + 2),)
    comb = TreeCertificate(
        kind="comb",
        edges=tuple(zip(backbone, backbone[1:])) + teeth,
        backbone=backbone,
        teeth=teeth,
    )
    return _gadget(ss, [f"r{k}" for k in range(1, p + 2)], f"r'{p + 1}", "w", comb)


def cover_to_vedset(art: ReductionArtifact, cover: Iterable[int]) -> frozenset[VertexRef]:
    """Map a cover to the VED-set {b_j : j in cover} plus the hub."""
    cover = sorted(set(cover))
    if not art.system.is_cover(cover):
        raise ContractError(f"indices {cover} do not cover the universe")
    d = frozenset(yref(j) for j in cover) | {xref(art.graph.n1 - 1)}
    if not is_ve_dominating_set(art.graph, d):
        raise ContractError(f"cover_to_vedset built an invalid VED-set from {cover}")
    return d


def vedset_to_cover(art: ReductionArtifact, d: Iterable[VertexRef]) -> frozenset[int]:
    """Normalise a VED-set of a reduced graph down to the cover it encodes.

    Replacements, in fixed order: the pendant and the bridge collapse into
    the hub; the backbone below the hub drops (comb); each private z_i and
    each element a_i is dropped when a set-neighbour of a_i is already
    present, otherwise replaced by the lowest-index set containing element i.
    What survives is set vertices plus the hub; the set indices are the cover.
    """
    g = art.graph
    d = set(d)
    if not is_ve_dominating_set(g, d):
        raise ContractError("the given set is not a VED-set of the reduced graph")
    p, q = art.system.universe, art.system.q
    hub, ends = xref(g.n1 - 1), {xref(g.n1), yref(g.n2)}
    if d & (ends | {hub}):
        d -= ends
        d.add(hub)
    d -= {xref(i) for i in range(p + 1, g.n1 - 1)}

    def set_neighbours(element: int) -> list[int]:
        return [j for j, s in enumerate(art.system.sets, start=1) if element in s]

    def settle(element: int, member: VertexRef) -> None:
        if member not in d:
            return
        hoods = set_neighbours(element)
        if not any(yref(j) in d for j in hoods):
            if not hoods:
                raise DomainError(
                    f"element {element} belongs to no set; the system has no cover"
                )
            d.add(yref(hoods[0]))
        d.discard(member)

    for i in range(1, p + 1):
        settle(i, yref(q + i))  # private z_i
    for i in range(1, p + 1):
        settle(i, xref(i))  # element a_i
    d.discard(hub)
    if any(ref.side == "x" or ref.index > q for ref in d):
        raise ContractError("vedset_to_cover left a vertex other than the hub and the sets")
    cover = frozenset(ref.index for ref in d)
    if not art.system.is_cover(cover):
        raise ContractError(f"vedset_to_cover normalised to {sorted(cover)}, not a cover")
    return cover


class TreeConvexityCheck(NamedTuple):
    ok: bool
    violator: int | None  # smallest offending y-index


def _reach(adj: dict[int, set[int]], start: int, allowed) -> set[int]:
    """The vertices of ``allowed`` reachable from ``start`` through ``allowed``."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt in allowed and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def verify_tree_convexity(g: BipartiteGraph, cert: TreeCertificate) -> TreeConvexityCheck:
    """Check that every Y-neighbourhood induces a subtree of the certificate.

    The certificate must be a tree spanning exactly the X side; anything else
    is an input error.
    """
    adj: dict[int, set[int]] = {i: set() for i in range(1, g.n1 + 1)}
    for a, b in cert.edges:
        if not (1 <= a <= g.n1 and 1 <= b <= g.n1) or a == b:
            raise InputError(f"certificate edge ({a}, {b}) is not over the X side")
        adj[a].add(b)
        adj[b].add(a)
    if len(cert.edges) != max(g.n1 - 1, 0):
        raise InputError(
            f"certificate has {len(cert.edges)} edges; a tree on {g.n1} vertices needs {g.n1 - 1}"
        )
    if g.n1 > 0 and len(_reach(adj, 1, adj)) != g.n1:
        raise InputError("certificate edges do not form a spanning tree of X")
    for j, col in enumerate(g.columns(), start=1):
        hood = set(col)
        if len(hood) > 1 and _reach(adj, min(hood), hood) != hood:
            return TreeConvexityCheck(False, j)
    return TreeConvexityCheck(True, None)


def _least_cover(masks: list[int], full: int, max_size: int) -> tuple[int, ...] | None:
    """The first combination of mask positions whose union is ``full``, by
    size (0 up to ``max_size``) and then in lexicographic order, or None."""
    for size in range(max_size + 1):
        for combo in combinations(range(len(masks)), size):
            acc = 0
            for k in combo:
                acc |= masks[k]
            if acc == full:
                return combo
    return None


def approx_set_cover(
    ss: SetSystem,
    k: int,
    ved_solver: Callable[[BipartiteGraph], Iterable[VertexRef]],
) -> frozenset[int]:
    """Return a cover of size <= k when one exists (exhaustive search);
    otherwise reduce to the star-convex graph, run the supplied VED solver,
    and convert its output back into a cover."""
    if not ss.is_cover(range(1, ss.q + 1)):
        raise DomainError("the system has no cover: some element lies in no set")
    masks = [sum(1 << (e - 1) for e in s) for s in ss.sets]
    combo = _least_cover(masks, (1 << ss.universe) - 1, min(k, ss.q))
    if combo is not None:
        return frozenset(j + 1 for j in combo)
    art = reduce_star_convex(ss)
    d = frozenset(ved_solver(art.graph))
    return vedset_to_cover(art, d)

