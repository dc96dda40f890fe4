"""Lattice-surgery operation costs, edge orientation and routing primitives."""

from .backends import (
    DEFAULT_ROUTING_BACKEND,
    ROUTING_BACKEND_NAMES,
    RoutingBackend,
    get_backend,
)
from .operations import DEFAULT_COSTS, LatticeSurgeryCosts
from .orientation import OrientationTracker
from .routing import (
    RoutePlan,
    RoutingIndex,
    bfs_ancilla_path,
    enumerate_cnot_plans,
    find_shortest_cnot_plan,
)

__all__ = [
    "LatticeSurgeryCosts",
    "DEFAULT_COSTS",
    "DEFAULT_ROUTING_BACKEND",
    "OrientationTracker",
    "ROUTING_BACKEND_NAMES",
    "RoutingBackend",
    "RoutePlan",
    "RoutingIndex",
    "bfs_ancilla_path",
    "enumerate_cnot_plans",
    "find_shortest_cnot_plan",
    "get_backend",
]
