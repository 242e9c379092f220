"""A node table for networks built without a machine: every message type
goes to one stand-in controller whose ``handle`` is the given callable."""

from types import SimpleNamespace

from repro.network import MessageType


def sink_table(handle):
    return dict.fromkeys(MessageType, SimpleNamespace(handle=handle))
