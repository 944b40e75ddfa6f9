"""Routes do not depend on the interpreter's hash seed.

The order in which the Lee search's neighbor generator emits via sites
is routing semantics: heap entries tiebreak on insertion order.  Any
iteration over a hash-ordered container on that path would make routes
vary with ``PYTHONHASHSEED``; routing the same boards in two fresh
interpreters with different seeds must give the same wiring.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro

_ROUTE_BOARDS = """
from repro.channels.workspace import RoutingWorkspace
from repro.core.router import RouterConfig, make_router
from repro.stringer import Stringer
from repro.workloads import make_titan_board

for name in ("kdj11_2l", "tna"):
    board = make_titan_board(name, scale=0.30, seed=1)
    workspace = RoutingWorkspace(board)
    make_router(board, RouterConfig(), workspace).route(
        Stringer(board).string_all()
    )
    print(name, workspace.state_digest())
"""


def _digests(hash_seed: str) -> str:
    package = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package, env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-c", _ROUTE_BOARDS],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


@pytest.mark.slow
def test_state_digest_independent_of_hash_seed():
    first = _digests("0")
    assert first.split()[::2] == ["kdj11_2l", "tna"]
    assert _digests("12345") == first
