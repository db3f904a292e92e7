"""COMM503 fixtures: genuine send/recv wait-for cycles.

Every program here must deadlock under the reference step scheduler --
the differential suite asserts it.
"""

from repro.vmpi import Phantom


def recv_cycle(comm):
    """Every rank receives from its left neighbour before sending right:
    all ranks block on the first recv and nobody ever sends."""
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size
    token = yield comm.recv(left, tag=1)
    yield comm.send(right, token, tag=1)
    return token


def head_to_head(comm):
    """Paired ranks push 1 MiB at each other before receiving: both
    sends exceed the eager limit, rendezvous blocks, nobody reaches
    the recv."""
    peer = comm.rank ^ 1
    yield comm.send(peer, Phantom(1 << 20), tag=2)
    back = yield comm.recv(peer, tag=2)
    return back
