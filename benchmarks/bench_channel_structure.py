"""E7 — Section 12 channel data-structure ablation: list vs binary tree.

Paper: "In earlier versions, each channel was represented as a binary tree
of segments, since binary trees have better performance for random probes.
In reality, however, the access pattern to a channel is far from random.
It is localized to a small part of the channel when routing any given
connection.  The change from binary tree to doubly linked list with a
moving head-of-list pointer halved the running time on most problems."

The workload is the *authentic* access pattern: every channel operation
(free-gap probe, overlap scan, add, remove) issued while routing a real
board is recorded through an instrumented channel, then replayed against
each structure.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.analysis import format_table
from repro.channels.alternatives import MovingHeadChannel, TreeChannel
from repro.channels.channel import Channel
from repro.channels.workspace import RoutingWorkspace
from repro.core.router import GreedyRouter
from repro.stringer import Stringer
from repro.workloads import make_titan_board

#: Shared operation log: (channel_key, op, args...).
_TRACE: List[Tuple] = []
_trace_counter = [0]


class _RecordingChannel(Channel):
    """Production channel that journals every call for replay."""

    def __init__(self) -> None:
        super().__init__()
        self._key = _trace_counter[0]
        _trace_counter[0] += 1

    def gap_view(self, lo, hi, passable=frozenset()):
        # Every free-gap list the searches build (``free_gaps`` too) is
        # built here: journal it as the ``free_gaps`` probe each
        # structure answers.
        _TRACE.append((self._key, "free_gaps", lo, hi, passable))
        return super().gap_view(lo, hi, passable)

    def is_free(self, lo, hi, passable=frozenset()):
        _TRACE.append((self._key, "is_free", lo, hi, passable))
        return super().is_free(lo, hi, passable)

    def overlapping_list(self, lo, hi):
        return list(super().overlapping(lo, hi))

    def add(self, lo, hi, owner, passable=frozenset()):
        _TRACE.append((self._key, "add", lo, hi, owner, passable))
        return super().add(lo, hi, owner, passable)

    def load_units(self, cells, owners):
        # The workspace's one-pass pin install: journal it as the unit
        # adds it replaces, so the replay starts from a pinned board.
        for cell, owner in zip(cells, owners):
            _TRACE.append((self._key, "add", cell, cell, owner, frozenset()))
        return super().load_units(cells, owners)

    def remove(self, lo, hi, owner):
        _TRACE.append((self._key, "remove", lo, hi, owner))
        return super().remove(lo, hi, owner)


def _record_trace() -> List[Tuple]:
    """Route a real board once through recording channels."""
    if _TRACE:
        return _TRACE
    board = make_titan_board("kdj11_2l", scale=0.30, seed=1)
    connections = Stringer(board).string_all()
    ws = RoutingWorkspace(board, channel_factory=_RecordingChannel)
    GreedyRouter(board, workspace=ws).route(connections)
    return _TRACE


def _replay(factory) -> Tuple[int, int]:
    """Run the recorded trace against fresh instances of a structure."""
    trace = _record_trace()
    channels: Dict[int, object] = {}
    probes = 0
    checksum = 0
    for entry in trace:
        key, op = entry[0], entry[1]
        channel = channels.get(key)
        if channel is None:
            channel = factory()
            channels[key] = channel
        if op == "free_gaps":
            _, _, lo, hi, passable = entry
            checksum += len(channel.free_gaps(lo, hi, passable))
            probes += 1
        elif op == "is_free":
            _, _, lo, hi, passable = entry
            checksum += int(channel.is_free(lo, hi, passable))
            probes += 1
        elif op == "add":
            _, _, lo, hi, owner, passable = entry
            channel.add(lo, hi, owner, passable)
        else:
            _, _, lo, hi, owner = entry
            channel.remove(lo, hi, owner)
    return probes, checksum


STRUCTURES = {
    "moving_head_list": MovingHeadChannel,
    "binary_tree": TreeChannel,
    "bisect_array (production)": Channel,
}
_stats = {}


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_channel_structure(name, benchmark, record):
    _record_trace()  # ensure recording happens outside the timed region
    probes, checksum = benchmark(lambda: _replay(STRUCTURES[name]))
    _stats[name] = {
        "probes": probes,
        "checksum": checksum,
        "seconds": benchmark.stats.stats.mean,
    }
    if name == list(STRUCTURES)[-1]:
        _report(record)


def _report(record):
    rows = [
        {
            "structure": name,
            "ops_replayed": len(_TRACE),
            "probes": s["probes"],
            "mean_s": round(s["seconds"], 4),
        }
        for name, s in _stats.items()
    ]
    record(
        "channel_structure",
        format_table(
            rows,
            title="E7: channel structures replaying the recorded access "
            "trace of a real kdj11_2l route "
            "(paper: tree -> moving-head list halved run time)",
        ),
    )
    # All structures must agree on every probe result.
    checksums = {s["checksum"] for s in _stats.values()}
    assert len(checksums) == 1
    # The moving-head list must beat the binary tree on the real,
    # localized pattern.
    assert (
        _stats["moving_head_list"]["seconds"]
        < _stats["binary_tree"]["seconds"]
    )
