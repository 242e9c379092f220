"""Interconnection networks: Omega (paper default), buffered Omega, bus,
crossbar and 2D mesh."""

from .message import Message, MessageType, SizeClass, flit_size
from .omega import (
    BufferedOmegaNetwork,
    BusNetwork,
    CrossbarNetwork,
    LinkNetwork,
    MeshNetwork,
    OmegaNetwork,
)
from .routing import is_power_of_two, mesh_dims, num_stages, omega_route, xy_route
from .topology import Interconnect, NetworkParams

__all__ = [
    "Message",
    "MessageType",
    "SizeClass",
    "flit_size",
    "Interconnect",
    "NetworkParams",
    "LinkNetwork",
    "OmegaNetwork",
    "BufferedOmegaNetwork",
    "BusNetwork",
    "CrossbarNetwork",
    "MeshNetwork",
    "mesh_dims",
    "xy_route",
    "omega_route",
    "num_stages",
    "is_power_of_two",
]
