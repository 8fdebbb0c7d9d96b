"""Network elements: packets, queues, pipes, routes and topologies."""

from .middlebox import SequenceRandomizingFirewall
from .network import Link, Network, mbps_to_pps, pps_to_mbps
from .packet import ACK_SIZE, MSS_BYTES, AckPacket, DataPacket, Packet
from .pipe import LossyPipe, Pipe
from .queue import DropTailQueue, VariableRateQueue, chain_intercept
from .route import Route

__all__ = [
    "ACK_SIZE",
    "MSS_BYTES",
    "AckPacket",
    "DataPacket",
    "DropTailQueue",
    "Link",
    "LossyPipe",
    "Network",
    "Packet",
    "Pipe",
    "Route",
    "SequenceRandomizingFirewall",
    "VariableRateQueue",
    "chain_intercept",
    "mbps_to_pps",
    "pps_to_mbps",
]
