"""Op-construction contracts: tags and roots are validated when the
descriptor is built, not deep inside the engine's matching tables --
the contract the static protocol pass folds against."""

import numpy as np
import pytest

from repro.vmpi import Comm, Phantom
from repro.vmpi.ops import (
    Collective,
    Exchange,
    Irecv,
    Isend,
    Recv,
    Send,
    Sendrecv,
)

TAGGED_OPS = [
    lambda tag: Send(dest=0, payload=1.0, tag=tag),
    lambda tag: Recv(source=0, tag=tag),
    lambda tag: Isend(dest=0, payload=1.0, tag=tag),
    lambda tag: Irecv(source=0, tag=tag),
    lambda tag: Sendrecv(dest=0, payload=1.0, source=0, tag=tag),
    lambda tag: Exchange(sends=((0, 1.0),), recvs=(0,), tag=tag),
]


@pytest.mark.parametrize("build", TAGGED_OPS)
def test_negative_tag_rejected(build):
    with pytest.raises(ValueError):
        build(-1)


@pytest.mark.parametrize("build", TAGGED_OPS)
@pytest.mark.parametrize("tag", [1.5, "7", None, True])
def test_non_int_tag_rejected(build, tag):
    with pytest.raises(TypeError):
        build(tag)


@pytest.mark.parametrize("build", TAGGED_OPS)
def test_valid_tags_accepted(build):
    assert build(0).tag == 0
    assert build(2 ** 20).tag == 2 ** 20


ROOTED = ["bcast", "reduce", "gather", "scatter"]


@pytest.mark.parametrize("kind", ROOTED)
def test_negative_root_rejected(kind):
    with pytest.raises(ValueError):
        Collective(kind=kind, root=-1)


@pytest.mark.parametrize("kind", ROOTED)
@pytest.mark.parametrize("root", [0.0, "0", None, False])
def test_non_int_root_rejected(kind, root):
    with pytest.raises(TypeError):
        Collective(kind=kind, root=root)


@pytest.mark.parametrize("kind", ROOTED)
def test_valid_root_accepted(kind):
    assert Collective(kind=kind, root=3).root == 3


def test_unknown_collective_kind_still_rejected():
    with pytest.raises(ValueError):
        Collective(kind="alltoallw")


def test_facade_methods_validate_like_the_ops():
    """``Comm`` builds each op directly, so a rank program meets the
    op's own validation through the facade too."""
    comm = Comm(comm_id=0, rank=0, members=(0, 1))
    with pytest.raises(TypeError):
        comm.bcast(Phantom(8.0), root=True)
    with pytest.raises(ValueError):
        comm.compute(flops=-1.0)
    # an unhashable amount still builds
    assert comm.compute(flops=np.array(2.0)).flops == 2.0
