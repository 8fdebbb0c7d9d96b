"""Network builder: nodes, shared link queues, and route construction.

A :class:`Network` owns the directed links of a topology.  Each directed link
is one :class:`~repro.net.queue.DropTailQueue` followed by one
:class:`~repro.net.pipe.Pipe`; every flow routed over the link shares that
queue, which is what makes links into bottlenecks.

Paths are described as node lists; :meth:`Network.route` assembles the
corresponding :class:`~repro.net.route.Route`.  Topology queries (shortest
paths, ECMP path sets) are answered from the link table itself: each query
builds successor lists in link-creation order, so its path order is fixed
by the topology builder alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.simulation import Simulation
from .packet import MSS_BYTES
from .pipe import Pipe
from .queue import DropTailQueue, VariableRateQueue
from .route import Route

__all__ = ["Network", "Link", "mbps_to_pps", "pps_to_mbps"]


def mbps_to_pps(mbps: float, mss_bytes: int = MSS_BYTES) -> float:
    """Convert a link rate in Mb/s to full-sized packets per second."""
    return mbps * 1e6 / (8.0 * mss_bytes)


def pps_to_mbps(pps: float, mss_bytes: int = MSS_BYTES) -> float:
    """Convert packets per second (of full-sized packets) to Mb/s."""
    return pps * 8.0 * mss_bytes / 1e6


@dataclass
class Link:
    """One directed link: its queue (buffer + service rate) and pipe."""

    src: str
    dst: str
    queue: DropTailQueue
    pipe: Pipe

    @property
    def rate_pps(self) -> float:
        return self.queue.rate_pps

    @property
    def delay(self) -> float:
        return self.pipe.delay

    @property
    def loss_rate(self) -> float:
        return self.queue.loss_rate

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"


class Network:
    """A topology of named nodes joined by shared-queue links."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.links: Dict[Tuple[str, str], Link] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_link(
        self,
        src: str,
        dst: str,
        rate_pps: float,
        delay: float,
        buffer_pkts: int,
        bidirectional: bool = True,
        variable: bool = False,
    ) -> Link:
        """Create a link (and its reverse twin unless ``bidirectional=False``).

        ``variable=True`` builds a :class:`VariableRateQueue` so the link's
        capacity can be changed at run time (wireless scenarios).

        Returns the forward :class:`Link`.
        """
        link = self._add_one_way(src, dst, rate_pps, delay, buffer_pkts, variable)
        if bidirectional:
            self._add_one_way(dst, src, rate_pps, delay, buffer_pkts, variable)
        return link

    def _add_one_way(
        self, src, dst, rate_pps, delay, buffer_pkts, variable
    ) -> Link:
        key = (src, dst)
        if key in self.links:
            raise ValueError(f"link {src}->{dst} already exists")
        queue_cls = VariableRateQueue if variable else DropTailQueue
        queue = queue_cls(self.sim, rate_pps, buffer_pkts, name=f"{src}->{dst}")
        pipe = Pipe(self.sim, delay, name=f"{src}->{dst}.pipe")
        link = Link(src, dst, queue, pipe)
        self.links[key] = link
        return link

    def link(self, src: str, dst: str) -> Link:
        """Look up the directed link from ``src`` to ``dst``."""
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src}->{dst} in network") from None

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def route(self, nodes: Sequence[str], name: str = "") -> Route:
        """Build the Route along ``nodes``; ACKs return with the reverse
        links' propagation delay (delay-only, uncongested)."""
        if len(nodes) < 2:
            raise ValueError("a route needs at least two nodes")
        elements: List = []
        reverse_delay = 0.0
        for src, dst in zip(nodes, nodes[1:]):
            link = self.link(src, dst)
            elements.append(link.queue)
            elements.append(link.pipe)
            # Reverse propagation: use the reverse link if present, else
            # assume symmetric latency.
            reverse = self.links.get((dst, src))
            reverse_delay += reverse.pipe.delay if reverse else link.pipe.delay
        route_name = name or "->".join(str(n) for n in nodes)
        return Route(self.sim, elements, reverse_delay, name=route_name)

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def successors(self) -> Dict[str, List[str]]:
        """Every link endpoint mapped to its successors, in link-creation
        order."""
        succ: Dict[str, List[str]] = {}
        for src, dst in self.links:
            succ.setdefault(src, []).append(dst)
            succ.setdefault(dst, [])
        return succ

    def shortest_paths(self, src: str, dst: str) -> List[List[str]]:
        """All shortest-hop paths from src to dst (the ECMP path set).

        Breadth-first search records every predecessor one hop closer to
        ``src``; paths are then walked back from ``dst`` taking
        predecessors in the order they were found.  Raises ``ValueError``
        if either endpoint is unknown or ``dst`` is unreachable.
        """
        succ = self.successors()
        for node in (src, dst):
            if node not in succ:
                raise ValueError(
                    f"no path {src}->{dst}: unknown node {node!r}"
                )
        depth = {src: 0}
        pred: Dict[str, List[str]] = {src: []}
        frontier = [src]
        while frontier and dst not in pred:
            next_frontier = []
            for node in frontier:
                for nxt in succ[node]:
                    if nxt not in depth:
                        depth[nxt] = depth[node] + 1
                        pred[nxt] = [node]
                        next_frontier.append(nxt)
                    elif depth[nxt] == depth[node] + 1:
                        pred[nxt].append(node)
            frontier = next_frontier
        if dst not in pred:
            raise ValueError(f"no path {src}->{dst}: {dst!r} is unreachable")

        def walk_back(node: str) -> List[List[str]]:
            if node == src:
                return [[src]]
            return [p + [node] for u in pred[node] for p in walk_back(u)]

        return walk_back(dst)

    def random_shortest_path(
        self, src: str, dst: str, rng: Optional[random.Random] = None
    ) -> List[str]:
        """Pick one shortest-hop path uniformly at random, as the paper's
        ECMP mimic does ("each TCP source picks one of the shortest-hop
        paths at random")."""
        rng = rng if rng is not None else self.sim.rng
        paths = self.shortest_paths(src, dst)
        return paths[rng.randrange(len(paths))]

    def random_paths(
        self,
        src: str,
        dst: str,
        count: int,
        rng: Optional[random.Random] = None,
        cutoff_extra_hops: int = 2,
    ) -> List[List[str]]:
        """Sample ``count`` distinct paths at random (shortest paths first,
        then paths up to ``cutoff_extra_hops`` longer), as in the FatTree
        experiments where "for each pair of hosts we selected 8 paths at
        random"."""
        rng = rng if rng is not None else self.sim.rng
        shortest = self.shortest_paths(src, dst)
        if len(shortest) >= count:
            rng.shuffle(shortest)
            return shortest[:count]
        cutoff = len(shortest[0]) - 1 + cutoff_extra_hops
        succ = self.successors()
        pool: List[List[str]] = []

        def extend(path: List[str]) -> None:
            # Depth-first over simple paths of at most ``cutoff`` edges;
            # a path is recorded on reaching dst and never extended past it.
            if path[-1] == dst:
                pool.append(path)
            elif len(path) <= cutoff:
                for nxt in succ[path[-1]]:
                    if nxt not in path:
                        extend(path + [nxt])

        extend([src])
        rng.shuffle(pool)
        # Keep shortest paths preferentially, then fill with longer ones.
        chosen = [p for p in pool if len(p) == len(shortest[0])]
        chosen += [p for p in pool if len(p) != len(shortest[0])]
        return chosen[:count]

    def all_links(self) -> Iterable[Link]:
        return self.links.values()

    def reset_counters(self) -> None:
        """Reset every link queue's arrival/drop counters (for warm-up)."""
        for link in self.links.values():
            link.queue.reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(nodes={len(self.successors())}, "
            f"links={len(self.links)})"
        )
