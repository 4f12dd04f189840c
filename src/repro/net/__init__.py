"""Wireless cell network substrate: messages, shared priority channels,
and deterministic fault injection."""

from .channel import Channel, ChannelStats, corrupted_copy
from .faults import Fate, FaultConfig, FaultModel, FaultStats
from .intercell import InterCellLink
from .messages import (
    BROADCAST,
    KIND_PRIORITY,
    Message,
    MessageKind,
    PRIORITY_CHECK,
    PRIORITY_DATA,
    PRIORITY_IR,
    SERVER_ID,
)

__all__ = [
    "BROADCAST",
    "Channel",
    "ChannelStats",
    "Fate",
    "FaultConfig",
    "FaultModel",
    "FaultStats",
    "InterCellLink",
    "KIND_PRIORITY",
    "Message",
    "MessageKind",
    "PRIORITY_CHECK",
    "PRIORITY_DATA",
    "PRIORITY_IR",
    "SERVER_ID",
    "corrupted_copy",
]
