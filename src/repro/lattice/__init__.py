"""Lattice-surgery operation costs, edge orientation and routing primitives."""

from .operations import DEFAULT_COSTS, LatticeSurgeryCosts
from .orientation import OrientationTracker
from .routing import RoutePlan, RoutingIndex

__all__ = [
    "LatticeSurgeryCosts",
    "DEFAULT_COSTS",
    "OrientationTracker",
    "RoutePlan",
    "RoutingIndex",
]
