"""DragonFly+ topology model of the JUWELS Booster / JUPITER interconnect.

JUWELS Booster organises 936 nodes into 48-node *cells* (2 BullSequana
racks each) connected in a DragonFly+ topology: full electrical
connectivity inside a cell (via leaf/spine switches) and all-to-all
optical global links between cells.  The timing model only needs to
classify a (src, dst) node pair into a *link class* and to bound the
bandwidth available across any bisection, so this module deliberately
stays at that level rather than simulating individual switches.

A fat-tree alternative is provided for the topology ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from ..units import register_dims
from .hardware import SystemSpec

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

#: dimension annotations consumed by ``repro.check``'s UNIT3xx rules;
#: the count-like spec fields are declared dimensionless so bandwidth
#: aggregates (NIC rate x NICs x nodes) stay provably B/s
DIMS = register_dims(__name__, {
    "bisection_bandwidth.return": "B/s",
    "NodeSpec.devices_per_node": "1",
    "NodeSpec.nics_per_node": "1",
    "SystemSpec.nodes_per_cell": "1",
    "SystemSpec.large_scale_threshold_nodes": "1",
})


class LinkClass(Enum):
    """Coarse classification of a communication path."""

    SELF = "self"              # same device (no transfer)
    INTRA_NODE = "intra-node"  # NVLink-class
    INTRA_CELL = "intra-cell"  # one switch hop, full bandwidth
    INTER_CELL = "inter-cell"  # global optical links, possibly tapered


@dataclass(frozen=True)
class Topology:
    """Base topology: classify node pairs, expose bisection capacity."""

    system: SystemSpec

    def cell_of(self, node: int) -> int:
        """Cell index of a node (0-based)."""
        self._check_node(node)
        return node // self.system.nodes_per_cell

    def classify(self, src_node: int, dst_node: int) -> LinkClass:
        """Link class for traffic between two nodes."""
        if src_node == dst_node:
            return LinkClass.INTRA_NODE
        if self.cell_of(src_node) == self.cell_of(dst_node):
            return LinkClass.INTRA_CELL
        return LinkClass.INTER_CELL

    def hops(self, src_node: int, dst_node: int) -> int:
        """Switch hops between two nodes (0 = same node)."""
        cls = self.classify(src_node, dst_node)
        if src_node == dst_node:
            return 0
        return {LinkClass.INTRA_CELL: 2, LinkClass.INTER_CELL: 4}[cls]

    def bisection_bandwidth(self, nnodes: int) -> float:
        """Aggregate bandwidth across the worst-case bisection of a job.

        For a job confined to a single cell the bisection is limited only by
        injection (all-to-all leaf/spine), i.e. ``nnodes/2`` nodes injecting
        at full NIC rate.  Spanning several cells, the global links dominate
        and are tapered by ``cell_uplink_taper``.
        """
        sysm = self.system
        if nnodes < 2:
            return float("inf")
        inject = sysm.node.nic_bandwidth * sysm.node.nics_per_node
        if nnodes <= sysm.nodes_per_cell:
            return inject * (nnodes / 2.0)
        cells = -(-nnodes // sysm.nodes_per_cell)
        cell_uplink = inject * sysm.nodes_per_cell * sysm.cell_uplink_taper
        # Worst-case bisection cuts the cells in half; the global links of
        # the smaller half bound the cross traffic.
        return cell_uplink * (cells // 2 if cells >= 2 else 1)

    def graph(self, nnodes: int | None = None) -> nx.Graph:
        """An explicit networkx graph (nodes + cell switches) for analysis."""
        import networkx as nx  # 0.1-0.2 s the timing model never pays

        sysm = self.system
        n = nnodes if nnodes is not None else sysm.nodes
        g = nx.Graph()
        inject = sysm.node.nic_bandwidth * sysm.node.nics_per_node
        cells = -(-n // sysm.nodes_per_cell)
        for c in range(cells):
            g.add_node(("cell", c), kind="switch")
        for node in range(n):
            g.add_node(("node", node), kind="node")
            g.add_edge(("node", node), ("cell", node // sysm.nodes_per_cell),
                       bandwidth=inject)
        uplink = inject * sysm.nodes_per_cell * sysm.cell_uplink_taper
        for a in range(cells):
            for b in range(a + 1, cells):
                g.add_edge(("cell", a), ("cell", b),
                           bandwidth=uplink / max(cells - 1, 1))
        return g

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.system.nodes:
            raise ValueError(f"node {node} outside system of {self.system.nodes} nodes")


@dataclass(frozen=True)
class DragonflyPlus(Topology):
    """The DragonFly+ topology used by JUWELS Booster and JUPITER."""


@dataclass(frozen=True)
class FatTree(Topology):
    """Non-blocking three-level fat tree (ablation alternative).

    No cell taper: any bisection sustains full injection bandwidth, and
    there is no large-scale congestion regime.  Used by the topology
    ablation bench to show how much of the JUQCS communication signature
    is attributable to DragonFly+ tapering.
    """

    def classify(self, src_node: int, dst_node: int) -> LinkClass:
        if src_node == dst_node:
            return LinkClass.INTRA_NODE
        # Treat every off-node pair as full-bandwidth "intra-cell" traffic.
        return LinkClass.INTRA_CELL

    def bisection_bandwidth(self, nnodes: int) -> float:
        if nnodes < 2:
            return float("inf")
        inject = self.system.node.nic_bandwidth * self.system.node.nics_per_node
        return inject * (nnodes / 2.0)
