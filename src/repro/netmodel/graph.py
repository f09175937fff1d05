"""Overlay graph analysis: the relay fleet as a networkx graph.

The paper's related work notes that Google Hangouts routes streams
through *multiple* cloud relays ("streams traverse the cloud backbone
from one relay to another"); VIA itself stops at two (transit).  This
module exposes the overlay as a weighted graph so that generalised
multi-hop routes can be analysed:

* :func:`backbone_graph` -- relays + private-WAN edges,
* :func:`overlay_graph` -- the backbone plus two AS endpoints and their
  public on-ramp edges,
* :func:`best_multihop_route` -- the RTT-shortest relay route between two
  ASes with up to ``max_relays`` hops (Dijkstra over the overlay graph).

Used to check how much headroom lies beyond two-relay transit
(``tests/test_graph.py``): in a well-provisioned backbone the answer is
"very little", which is the engineering justification for VIA's
bounce/transit-only action space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netmodel.world import World

# networkx is imported where it is used: repro.netmodel re-exports this
# module, and a controller process that never builds a graph should not
# pay ~0.1 s of start-up for it.
if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["backbone_graph", "overlay_graph", "best_multihop_route"]

#: Node key for AS endpoints in the overlay graph (relays use plain ints).
_AS = "as"


def backbone_graph(world: World, day: int = 0) -> "nx.Graph":
    """The private inter-relay backbone as a weighted graph.

    Edge weights are the backbone segments' true mean RTT on ``day``.
    """
    import networkx as nx

    graph = nx.Graph()
    relay_ids = world.topology.relay_ids
    graph.add_nodes_from(relay_ids)
    for i, r1 in enumerate(relay_ids):
        for r2 in relay_ids[i + 1:]:
            rtt = world.inter_segment(r1, r2).mean_on_day(day).rtt_ms
            graph.add_edge(r1, r2, rtt_ms=rtt)
    return graph


def overlay_graph(world: World, src_asn: int, dst_asn: int, day: int = 0) -> "nx.Graph":
    """Backbone plus the two endpoints' public on-ramp edges."""
    graph = backbone_graph(world, day)
    for asn in (src_asn, dst_asn):
        node = (_AS, asn)
        graph.add_node(node)
        for relay_id in world.topology.relay_ids:
            rtt = world.wan_segment(asn, relay_id).mean_on_day(day).rtt_ms
            graph.add_edge(node, relay_id, rtt_ms=rtt)
    return graph


def best_multihop_route(
    world: World,
    src_asn: int,
    dst_asn: int,
    *,
    day: int = 0,
    max_relays: int | None = None,
) -> tuple[list[int], float]:
    """(relay sequence, WAN RTT) of the best relay route between two ASes.

    The returned RTT covers on-ramps + backbone hops (access segments are
    common to all routes and excluded).  ``max_relays`` caps the number of
    relay hops; ``None`` allows arbitrarily long backbone routes.  A
    one-relay result corresponds to VIA's *bounce*, two relays to
    *transit*, and more to the Hangouts-style generalisation.
    """
    import networkx as nx

    if src_asn == dst_asn:
        raise ValueError("multi-hop routing needs two distinct ASes")
    graph = overlay_graph(world, src_asn, dst_asn, day)
    source, target = (_AS, src_asn), (_AS, dst_asn)
    if max_relays is None:
        path = nx.shortest_path(graph, source, target, weight="rtt_ms")
        relays = [node for node in path if not isinstance(node, tuple)]
        cost = nx.path_weight(graph, path, weight="rtt_ms")
        return relays, float(cost)
    best: tuple[list[int], float] | None = None
    # Bounded search: enumerate simple paths with at most max_relays
    # intermediate relay nodes (cutoff counts edges: relays + 1).
    for path in nx.all_simple_paths(graph, source, target, cutoff=max_relays + 1):
        relays = [node for node in path if not isinstance(node, tuple)]
        if not 1 <= len(relays) <= max_relays:
            continue
        cost = float(nx.path_weight(graph, path, weight="rtt_ms"))
        if best is None or cost < best[1]:
            best = (relays, cost)
    if best is None:
        raise ValueError("no relay route found within the hop bound")
    return best
