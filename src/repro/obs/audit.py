"""WorkspaceAuditor: machine-checkable cross-structure invariants.

The routing engine keeps four structures that must agree at all times —
per-layer channels, the via map (Section 4's cached counts), the
drilled-via registry, and the per-connection :class:`RouteRecord`\\ s.
The auditor re-derives each relation from scratch and reports every
disagreement:

1. **via-count** — the via map's cover count at every site equals a
   fresh rescan of the layers;
2. **sole-owner** — the via map's sole-owner cache is exactly the owner
   set the layers report (single owner, or the MIXED marker);
3. **record-segment** — every segment a ``RouteRecord`` claims is
   installed in its channel with the right owner, and every installed
   connection-owned segment is claimed by exactly that connection's
   record;
4. **via-owner** — every drilled via has a live owner: a routed
   connection that lists it in its record, or a real board pin at that
   position.

``audit()`` returns a report; ``check()`` raises
:class:`WorkspaceAuditError` listing the violations.  The auditor never
mutates the workspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.channels.segment import FILL_OWNER, is_rippable_owner, owner_pin_id
from repro.channels.via_map import MIXED
from repro.grid.coords import ViaPoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channels.workspace import RouteRecord, RoutingWorkspace


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with a human-readable description."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


@dataclass
class AuditReport:
    """Everything one audit checked and every violation it found."""

    violations: List[Violation] = field(default_factory=list)
    checked_sites: int = 0
    checked_segments: int = 0
    checked_records: int = 0
    checked_vias: int = 0

    @property
    def ok(self) -> bool:
        """True if every invariant held."""
        return not self.violations

    def summary(self) -> str:
        """One line: what was checked and how it went."""
        verdict = (
            "clean" if self.ok else f"{len(self.violations)} violation(s)"
        )
        return (
            f"audit {verdict}: {self.checked_sites} via sites, "
            f"{self.checked_segments} segments, "
            f"{self.checked_records} records, "
            f"{self.checked_vias} drilled vias"
        )


class WorkspaceAuditError(RuntimeError):
    """An audit found violations (raised by :meth:`WorkspaceAuditor.check`)."""

    def __init__(self, report: AuditReport, context: str = "") -> None:
        self.report = report
        self.context = context
        lines = [v for v in report.violations[:20]]
        detail = "\n  ".join(str(v) for v in lines)
        more = len(report.violations) - len(lines)
        if more > 0:
            detail += f"\n  ... and {more} more"
        where = f" after {context}" if context else ""
        super().__init__(
            f"workspace invariants broken{where} "
            f"({len(report.violations)} violation(s)):\n  {detail}"
        )

    def __reduce__(self):
        # The default rebuilds from ``args`` (the formatted message),
        # which is not what ``__init__`` takes.  A ``grr serve`` worker
        # process sends its exceptions back pickled.
        return type(self), (self.report, self.context)


class RestoreBlockedError(RuntimeError):
    """A route that must always fit back could not be restored.

    Carries the auditor's diff of what occupies the route's claimed
    space — raised by :func:`repro.core.improve.improve_routes` instead
    of a bare ``assert`` so the failure survives ``python -O`` and says
    *what* blocked the restore.
    """

    def __init__(self, conn_id: int, blockers: List[str]) -> None:
        self.conn_id = conn_id
        self.blockers = blockers
        detail = "\n  ".join(blockers) if blockers else "(no blocker found)"
        super().__init__(
            f"route for connection {conn_id} could not be restored; "
            f"blocked by:\n  {detail}"
        )

    def __reduce__(self):
        return type(self), (self.conn_id, self.blockers)


class WorkspaceAuditor:
    """On-demand verifier of the workspace's cross-structure invariants."""

    def __init__(self, workspace: "RoutingWorkspace") -> None:
        self.workspace = workspace

    # ------------------------------------------------------------------
    # the audit
    # ------------------------------------------------------------------

    def audit(self) -> AuditReport:
        """Check every invariant; returns the full report."""
        report = AuditReport()
        self._audit_via_map(report)
        self._audit_records(report)
        self._audit_drilled_vias(report)
        return report

    def check(self, context: str = "") -> AuditReport:
        """Audit and raise :class:`WorkspaceAuditError` on any violation."""
        report = self.audit()
        if not report.ok:
            raise WorkspaceAuditError(report, context)
        return report

    # ------------------------------------------------------------------
    # invariants 1+2: via map vs. a fresh layer rescan
    # ------------------------------------------------------------------

    def _audit_via_map(self, report: AuditReport) -> None:
        ws = self.workspace
        via_map = ws.via_map
        for vy in range(via_map.via_ny):
            for vx in range(via_map.via_nx):
                via = ViaPoint(vx, vy)
                report.checked_sites += 1
                point = ws.grid.via_to_grid(via)
                expected = 0
                owners: Set[int] = set()
                for layer in ws.layers:
                    owner = layer.owner_at(point)
                    if owner is not None:
                        expected += 1
                        owners.add(owner)
                cached = via_map.count(via)
                if cached != expected:
                    report.violations.append(
                        Violation(
                            "via-count",
                            f"{via}: map says {cached} covers, layers "
                            f"hold {expected}",
                        )
                    )
                sole = via_map.sole_owner(via)
                if expected == 0:
                    if sole is not None:
                        report.violations.append(
                            Violation(
                                "sole-owner",
                                f"{via}: empty site caches owner {sole!r}",
                            )
                        )
                elif len(owners) == 1:
                    owner = next(iter(owners))
                    if sole != owner:
                        report.violations.append(
                            Violation(
                                "sole-owner",
                                f"{via}: cache says {sole!r}, layers say "
                                f"sole owner {owner}",
                            )
                        )
                elif sole is not MIXED:
                    report.violations.append(
                        Violation(
                            "sole-owner",
                            f"{via}: cache says {sole!r}, layers say "
                            f"mixed owners {sorted(owners)}",
                        )
                    )

    # ------------------------------------------------------------------
    # invariant 3: records vs. installed segments
    # ------------------------------------------------------------------

    def _audit_records(self, report: AuditReport) -> None:
        ws = self.workspace
        # Everything the channels actually hold, per connection owner.
        installed: Dict[int, Set[Tuple[int, int, int, int]]] = {}
        for layer_index, channel_index, seg in ws.iter_installed_segments():
            report.checked_segments += 1
            if not is_rippable_owner(seg.owner):
                continue  # pins and fill are not record-tracked
            installed.setdefault(seg.owner, set()).add(
                (layer_index, channel_index, seg.lo, seg.hi)
            )
        for conn_id, record in ws.records.items():
            report.checked_records += 1
            claimed = set(record.segments)
            have = installed.pop(conn_id, set())
            for seg in sorted(claimed - have):
                report.violations.append(
                    Violation(
                        "record-segment",
                        f"connection {conn_id} claims segment "
                        f"(layer={seg[0]}, channel={seg[1]}, "
                        f"[{seg[2]},{seg[3]}]) that is not installed",
                    )
                )
            for seg in sorted(have - claimed):
                report.violations.append(
                    Violation(
                        "record-segment",
                        f"connection {conn_id} owns installed segment "
                        f"(layer={seg[0]}, channel={seg[1]}, "
                        f"[{seg[2]},{seg[3]}]) missing from its record",
                    )
                )
        for owner, segs in sorted(installed.items()):
            report.violations.append(
                Violation(
                    "record-segment",
                    f"owner {owner} holds {len(segs)} installed "
                    f"segment(s) but has no route record",
                )
            )

    # ------------------------------------------------------------------
    # invariant 4: every drilled via has a live owner
    # ------------------------------------------------------------------

    def _audit_drilled_vias(self, report: AuditReport) -> None:
        ws = self.workspace
        pins = ws.board.pins
        for via, owner in sorted(ws.via_map.drilled_sites().items()):
            report.checked_vias += 1
            if owner == FILL_OWNER:
                report.violations.append(
                    Violation(
                        "via-owner", f"{via}: drilled by tesselation fill"
                    )
                )
            elif owner < 0:
                pin_id = owner_pin_id(owner)
                if pin_id >= len(pins) or pins[pin_id].position != via:
                    report.violations.append(
                        Violation(
                            "via-owner",
                            f"{via}: drilled by pin token {owner} but no "
                            f"pin lives there",
                        )
                    )
            else:
                record = ws.records.get(owner)
                if record is None:
                    report.violations.append(
                        Violation(
                            "via-owner",
                            f"{via}: drilled by connection {owner} which "
                            f"has no route record",
                        )
                    )
                elif via not in record.vias:
                    report.violations.append(
                        Violation(
                            "via-owner",
                            f"{via}: drilled by connection {owner} but "
                            f"missing from its record",
                        )
                    )
        # The reverse direction: every via a record lists must be drilled
        # by that connection.
        for conn_id, record in ws.records.items():
            for via in record.vias:
                if ws.via_map.drilled_owner(via) != conn_id:
                    report.violations.append(
                        Violation(
                            "via-owner",
                            f"connection {conn_id} records via {via} "
                            f"which is drilled by "
                            f"{ws.via_map.drilled_owner(via)!r}",
                        )
                    )

    # ------------------------------------------------------------------
    # restore diffs (used by improve_routes' integrity guard)
    # ------------------------------------------------------------------

    def restore_blockers(self, record: "RouteRecord") -> List[str]:
        """What currently occupies the space a record needs to restore.

        One line per blocked claim: foreign owners overlapping a claimed
        segment, or an existing drill at a claimed via site.  Empty when
        nothing blocks (the restore should then succeed).
        """
        ws = self.workspace
        conn = record.conn_id
        blockers: List[str] = []
        for layer_index, channel_index, lo, hi in record.segments:
            channel = ws.layers[layer_index].channel(channel_index)
            for seg in channel.overlapping(lo, hi):
                if seg.owner != conn:
                    blockers.append(
                        f"segment (layer={layer_index}, "
                        f"channel={channel_index}, [{lo},{hi}]) overlaps "
                        f"[{seg.lo},{seg.hi}] owned by {seg.owner}"
                    )
        for via in record.vias:
            owner = ws.via_map.drilled_owner(via)
            if owner is not None:
                blockers.append(f"via {via} already drilled by {owner}")
        return blockers
