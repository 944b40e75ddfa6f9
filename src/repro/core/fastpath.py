"""Vectorized wavefront kernels behind the router's backend seam.

The profile work of PR 3-7 keeps finding the same three inner loops at
the top of every flame graph: :func:`repro.core.single_layer.
reachable_vias` (the paper's *Vias* — the neighbor generator of every
Lee expansion), :func:`~repro.core.single_layer.trace` (the single-layer
path search behind the zero/one-via strategies and every retrace hop),
and the free-gap recomputes feeding both.  This module holds drop-in
kernels for those loops, selected at runtime by
``RouterConfig.backend``:

* ``"python"`` — the pure-python implementations in
  :mod:`repro.core.single_layer` / :mod:`repro.channels.channel`; the
  always-available, zero-dependency default.
* ``"numpy"`` — the kernels below: the DFS walks *full-span* per-channel
  gap arrays (:meth:`repro.channels.gap_cache.GapCache.full_bounds`)
  and clamps extents to the search box on the fly, so no box-clipped
  gap list is ever built on the hot path; adjacency windows come from
  bisect over the shared bound arrays instead of prefix scans; via-site
  enumeration and availability testing are batched through numpy over
  the whole search's frontier at once; and free-gap recomputes are
  vectorized over the channel's segment arrays.
* ``"auto"`` — ``"numpy"`` when numpy imports, else ``"python"``.

**Parity contract.**  A kernel must be *bit-for-bit* substitutable for
its pure-python twin: same routes, same
:class:`~repro.core.single_layer.SearchStats` (``searches`` /
``examined`` / ``cap_hits``), same truncation points at the
``max_gaps`` cap and at :data:`~repro.core.budget.SEARCH_CHECK_MASK`
budget checkpoints, and — because Lee heap entries tiebreak on the
``itertools.count`` discipline — the same *emission order* for every
neighbor list.  The kernels therefore replicate the exact pop order of
the python DFS (a stack, children pushed worst-to-best) and only batch
work whose evaluation order is unobservable: via availability is
checked against state that cannot change mid-search, so testing the
whole frontier's candidate sites in one vectorized sweep yields the
identical list the per-site loop produces.

Traversing full-span arrays instead of the python twin's box-clipped
lists is exact, not approximate: for a current gap clamped to
``[glo, ghi]`` (within the box, so ``glo >= lo`` and ``ghi <= hi``), a
neighbor's *full* gap overlaps it iff its *clipped* gap exists and
overlaps it — ``min(nghi, hi) >= glo ⟺ nghi >= glo`` since
``hi >= ghi >= glo``, and symmetrically for the other bound.  Clipped
lists are contiguous subranges of the full lists, so window order (and
hence pop order) is preserved, and clamped extents equal clipped
extents wherever the python twin reads them (distances, goal tests,
via ranges, chain trimming).  The hypothesis suite in
``tests/test_fastpath.py`` drives both backends over random channel
states and full boards to hold this contract.

numpy stays an *optional* dependency (``pip install repro[fast]``):
importing this module never imports numpy (:func:`load_numpy` does, on
first use), ``"auto"`` quietly falls back when it is missing, and only
an explicit ``backend="numpy"`` raises.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from importlib.util import find_spec
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Tuple

# Bound as a module (not ``from ... import SEARCH_CHECK_MASK``) because
# this module is reached through ``repro.channels`` while ``repro.core.
# budget`` is still mid-import; the constant is read at kernel entry,
# long after both modules have finished initialising.
from repro.channels.via_map import MIXED as _MIXED
from repro.core import budget as _budget
from repro.grid.coords import ViaPoint
from repro.grid.geometry import Orientation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channels.channel import Channel
    from repro.channels.via_map import ViaMap
    from repro.core.budget import BudgetTracker
    from repro.core.single_layer import SearchStats, _FreeSpace

#: True when the numpy backend can be selected in this interpreter.
HAVE_NUMPY = find_spec("numpy") is not None

#: numpy once :func:`load_numpy` has imported it.  The import costs a
#: fresh interpreter about as much as the rest of the CLI, so it waits
#: until a workspace switches to the numpy backend.
_np = None

#: The three recognised spellings of ``RouterConfig.backend``.
BACKENDS = ("auto", "python", "numpy")

#: Below this many candidate via sites a search's availability batch is
#: checked with the scalar loop: numpy's per-call overhead only pays for
#: itself on wider frontiers (with the probe inlined, the measured
#: crossover on the titan suite sits near two hundred sites; typical
#: frontiers are ~30).  The threshold compares deterministic counts,
#: never timings, so either path returns the identical list.
MIN_VECTOR_SITES = 192

#: Channels with fewer segments than this recompute their free gaps with
#: the pure-python walk even on the numpy backend; building the segment
#: array view costs more than the walk saves below this size.
MIN_VECTOR_SEGMENTS = 48


def load_numpy():
    """Import numpy for the kernels below (once); returns the module.

    :meth:`repro.channels.workspace.RoutingWorkspace.set_backend` calls
    this when it selects ``"numpy"``, so the import happens while a
    router is built, never inside a search.
    """
    global _np
    if _np is None:
        import numpy

        _np = numpy
    return _np


def resolve_backend(requested: str) -> str:
    """Map a ``RouterConfig.backend`` value to the backend to run.

    ``"auto"`` degrades silently to ``"python"`` when numpy is missing;
    an explicit ``"numpy"`` without numpy installed is a configuration
    error and raises.
    """
    if requested not in BACKENDS:
        raise ValueError(
            f"unknown backend {requested!r}; choose from {BACKENDS}"
        )
    if requested == "auto":
        return "numpy" if HAVE_NUMPY else "python"
    if requested == "numpy" and not HAVE_NUMPY:
        raise ValueError(
            "backend='numpy' requested but numpy is not installed "
            "(pip install repro[fast]); use backend='auto' to fall back"
        )
    return requested


# ----------------------------------------------------------------------
# free-gap scanning over the channel's segment arrays
# ----------------------------------------------------------------------


def free_gaps_vectorized(
    channel: "Channel", lo: int, hi: int
) -> List[Tuple[int, int]]:
    """``Channel.free_gaps(lo, hi)`` over numpy views of the segment arrays.

    Bit-identical to the python walk for the passable-free case (the gap
    cache's base recomputes — the hot ones); only worth calling above
    :data:`MIN_VECTOR_SEGMENTS` segments (the caller gates on size).
    The segment-array mirror is stamped with the channel generation, so
    repeat recomputes between mutations (distinct boxes) share one
    list-to-array conversion.
    """
    if hi < lo:
        return []
    mirror = channel.array_mirror
    if mirror is None or mirror[0] != channel.generation:
        seg_los, seg_his = channel.segment_bounds()
        mirror = (
            channel.generation,
            _np.array(seg_los, dtype=_np.int64),
            _np.array(seg_his, dtype=_np.int64),
        )
        channel.array_mirror = mirror
    _, los, his = mirror
    # Window of segments overlapping [lo, hi]: disjoint + sorted means
    # both bound arrays are sorted — the same bisect the python walk does.
    i = int(his.searchsorted(lo, side="left"))
    j = int(los.searchsorted(hi, side="right"))
    if i >= j:
        return [(lo, hi)]
    n = j - i
    # Gap k lies between blocker k-1 and blocker k; the edges are the box
    # bounds.  Disjointness means no merging is ever needed.
    starts = _np.empty(n + 1, dtype=_np.int64)
    starts[0] = lo
    _np.add(his[i:j], 1, out=starts[1:])
    ends = _np.empty(n + 1, dtype=_np.int64)
    ends[-1] = hi
    _np.subtract(los[i:j], 1, out=ends[:-1])
    keep = starts <= ends
    if not keep.all():
        starts = starts[keep]
        ends = ends[keep]
    return list(zip(starts.tolist(), ends.tolist()))


# ----------------------------------------------------------------------
# the DFS kernels (trace / reachable_vias)
# ----------------------------------------------------------------------


def trace_kernel(
    fs: "_FreeSpace",
    ca: int,
    xa: int,
    cb: int,
    xb: int,
    max_gaps: int,
    stats: Optional["SearchStats"] = None,
    budget: Optional["BudgetTracker"] = None,
) -> Optional[List[Tuple[int, int, int]]]:
    """The ``trace`` DFS over full-span gap arrays.

    Returns the trimmed channel pieces exactly as
    :func:`repro.core.single_layer.trace` would, or None exactly when
    the python DFS returns None (including a blocked start, which —
    like the twin — touches ``stats`` not at all).  Pop order, children
    sort order, cap and budget truncation points all replicate the twin
    bit for bit; see the module docstring for why full-span traversal
    with box clamping is exact.
    """
    layer = fs.layer
    lo, hi, passable = fs.lo, fs.hi, fs.passable
    cache = fs._cache
    full_bounds = cache.full_bounds
    # Inline replica of full_bounds' hit path; see reachable_vias_kernel.
    entries_get = cache._entries.get if cache.enabled else None
    channels = layer.channels
    no_pass = not passable
    stride = layer.channel_length + 1
    c_lo, c_hi = fs.c_lo, fs.c_hi
    # Per-search view memo, indexed by channel offset from the box edge
    # (a list probe beats a dict probe on this hottest of lookups).
    views = [None] * (c_hi - c_lo + 1)
    start_view = None
    if entries_get is not None:
        entry = entries_get(ca)
        if entry is not None and entry[0] == channels[ca].generation:
            start_view = entry[1] if no_pass else entry[3].get(passable)
            if start_view is False:
                start_view = None
            elif start_view is not None:
                cache.hits += 1
    if start_view is None:
        start_view = full_bounds(ca, passable)
    views[ca - c_lo] = start_view
    los_s = start_view[1]
    si = bisect_right(los_s, xa) - 1
    if si < 0 or start_view[2][si] < xa:
        return None
    start_lo = los_s[si]
    if start_lo < lo:
        start_lo = lo
    start_hi = start_view[2][si]
    if start_hi > hi:
        start_hi = hi
    start_key = ca * stride + si
    parents = {start_key: -1}
    goal = -1
    if ca == cb and start_lo <= xb <= start_hi:
        goal = start_key
    # Stack entries carry (key, channel, clamped lo, clamped hi) so a
    # pop never re-derives its gap from the views.
    stack = [(start_key, ca, start_lo, start_hi)]
    pop = stack.pop
    extend = stack.extend
    examined = 0
    capped = False
    check_mask = _budget.SEARCH_CHECK_MASK
    search_exceeded = None if budget is None else budget.search_exceeded
    while stack and goal < 0:
        key, c, glo, ghi = pop()
        examined += 1
        if examined > max_gaps:
            capped = True
            break
        if (
            search_exceeded is not None
            and (examined & check_mask) == 0
            and search_exceeded()
        ):
            capped = True
            break
        children: List[tuple] = []
        found_goal = -1
        for nc in (c - 1, c + 1):
            if nc < c_lo or nc > c_hi:
                continue
            nview = views[nc - c_lo]
            if nview is None:
                if entries_get is not None:
                    entry = entries_get(nc)
                    if (
                        entry is not None
                        and entry[0] == channels[nc].generation
                    ):
                        nview = (
                            entry[1] if no_pass else entry[3].get(passable)
                        )
                        if nview is False:
                            nview = None
                        elif nview is not None:
                            cache.hits += 1
                if nview is None:
                    nview = full_bounds(nc, passable)
                views[nc - c_lo] = nview
            los_n = nview[1]
            his_n = nview[2]
            i = bisect_left(his_n, glo)
            j = bisect_right(los_n, ghi, i)
            base = nc * stride
            for ngi in range(i, j):
                nkey = base + ngi
                if nkey in parents:
                    continue
                parents[nkey] = key
                nglo = los_n[ngi]
                if nglo < lo:
                    nglo = lo
                nghi = his_n[ngi]
                if nghi > hi:
                    nghi = hi
                if nc == cb and nglo <= xb <= nghi:
                    found_goal = nkey
                    break
                if xb < nglo:
                    distance = nglo - xb
                elif xb > nghi:
                    distance = xb - nghi
                else:
                    distance = 0
                children.append(
                    (distance + abs(nc - cb), (nkey, nc, nglo, nghi))
                )
            if found_goal >= 0:
                break
        if found_goal >= 0:
            goal = found_goal
            break
        # Best-to-worst, stable on ties — the python twin's
        # ``children.sort(key=lambda item: -item[0])``.
        children.sort(key=_negate_first)
        extend(item[1] for item in children)
    if stats is not None:
        stats.note(examined, capped)
    if goal < 0:
        return None
    chain: List[Tuple[int, int, int]] = []
    node = goal
    while node >= 0:
        c, gi = divmod(node, stride)
        view = views[c - c_lo]
        glo = view[1][gi]
        if glo < lo:
            glo = lo
        ghi = view[2][gi]
        if ghi > hi:
            ghi = hi
        chain.append((c, glo, ghi))
        node = parents[node]
    chain.reverse()
    return _trim_chain_extents(chain, xa, xb)


def _negate_first(item: Tuple[int, int]) -> int:
    return -item[0]


def _trim_chain_extents(
    chain: List[Tuple[int, int, int]], xa: int, xb: int
) -> List[Tuple[int, int, int]]:
    """``single_layer._trim_chain`` on ``(channel, lo, hi)`` extents.

    Same junction arithmetic; the clamped extents carried by the kernel
    equal the clipped extents the twin reads back from ``fs.gaps``.
    """
    n = len(chain)
    if n == 1:
        return [(chain[0][0], min(xa, xb), max(xa, xb))]
    overlaps: List[Tuple[int, int]] = []
    for i in range(n - 1):
        _, l1, h1 = chain[i]
        _, l2, h2 = chain[i + 1]
        overlaps.append((max(l1, l2), min(h1, h2)))
    junctions = [0] * (n - 1)
    desired = xb
    for i in range(n - 2, -1, -1):
        olo, ohi = overlaps[i]
        junctions[i] = min(max(desired, olo), ohi)
        desired = junctions[i]
    pieces: List[Tuple[int, int, int]] = []
    prev = xa
    for i in range(n - 1):
        j = junctions[i]
        pieces.append((chain[i][0], min(prev, j), max(prev, j)))
        prev = j
    pieces.append((chain[-1][0], min(prev, xb), max(prev, xb)))
    return pieces


def reachable_vias_kernel(
    fs: "_FreeSpace",
    ca: int,
    xa: int,
    a_via: Optional[ViaPoint],
    via_map: "ViaMap",
    passable: FrozenSet[int],
    max_gaps: int,
    stats: Optional["SearchStats"] = None,
    budget: Optional["BudgetTracker"] = None,
) -> List[ViaPoint]:
    """``reachable_vias``'s explore-and-collect on the fast path.

    The DFS replicates :func:`~repro.core.single_layer._explore_all`'s
    pop order exactly (a blocked start returns ``[]`` without touching
    ``stats``, like the twin); via-channel gaps are collected in pop
    order and their candidate sites expanded arithmetically and
    availability-tested in one numpy batch at the end.  Deferring the
    test is safe because nothing mutates the via map mid-search, and
    the flat (gap-pop order, ascending site) expansion is precisely the
    order the per-site python loop emits.
    """
    layer = fs.layer
    g = layer.grid.grid_per_via
    horizontal = layer.orientation is Orientation.HORIZONTAL
    lo, hi = fs.lo, fs.hi
    cache = fs._cache
    full_bounds = cache.full_bounds
    # Inline replica of full_bounds' *hit* path: entry layout is
    # [generation, base_full, base_clips, pass_fulls, pass_clips] (see
    # gap_cache), and the probed-once marker is ``False``.  Any miss —
    # absent entry, stale generation, marker — falls through to the
    # real method.  Inline hits still bump ``cache.hits`` so the
    # profile's cache-traffic counters stay meaningful on this backend.
    entries_get = cache._entries.get if cache.enabled else None
    channels = layer.channels
    no_pass = not passable
    stride = layer.channel_length + 1
    c_lo, c_hi = fs.c_lo, fs.c_hi
    # Per-search view memo, indexed by channel offset from the box edge.
    views = [None] * (c_hi - c_lo + 1)
    start_view = None
    if entries_get is not None:
        entry = entries_get(ca)
        if entry is not None and entry[0] == channels[ca].generation:
            start_view = entry[1] if no_pass else entry[3].get(passable)
            if start_view is False:
                start_view = None
            elif start_view is not None:
                cache.hits += 1
    if start_view is None:
        start_view = full_bounds(ca, passable)
    views[ca - c_lo] = start_view
    los_s = start_view[1]
    si = bisect_right(los_s, xa) - 1
    if si < 0 or start_view[2][si] < xa:
        return []
    slo = los_s[si]
    if slo < lo:
        slo = lo
    shi = start_view[2][si]
    if shi > hi:
        shi = hi
    seen = {ca * stride + si}
    seen_add = seen.add
    # Stack entries carry (channel, clamped lo, clamped hi); the packed
    # int key exists only inside ``seen``, so a pop touches no view.
    stack = [(ca, slo, shi)]
    pop = stack.pop
    append = stack.append
    examined = 0
    capped = False
    check_mask = _budget.SEARCH_CHECK_MASK
    search_exceeded = None if budget is None else budget.search_exceeded
    # Via-channel gaps are divided down to site ranges as they pop (in
    # emission order); _collect_sites only expands and probes them.
    rows_append = (rows_l := []).append
    slo_append = (site_los := []).append
    shi_append = (site_his := []).append
    total = 0
    while stack:
        c, glo, ghi = pop()
        examined += 1
        if examined > max_gaps:
            capped = True
            break
        if (
            search_exceeded is not None
            and (examined & check_mask) == 0
            and search_exceeded()
        ):
            capped = True
            break
        if not c % g:
            v_lo = (glo + g - 1) // g
            v_hi = ghi // g
            if v_hi >= v_lo:
                rows_append(c // g)
                slo_append(v_lo)
                shi_append(v_hi)
                total += v_hi - v_lo + 1
        # The two neighbor directions, unrolled (this is the hottest
        # loop on the board): c - 1 pushed first, then c + 1, exactly
        # like the twin's iteration order.
        nc = c - 1
        while True:
            if c_lo <= nc <= c_hi:
                nview = views[nc - c_lo]
                if nview is None:
                    if entries_get is not None:
                        entry = entries_get(nc)
                        if (
                            entry is not None
                            and entry[0] == channels[nc].generation
                        ):
                            nview = (
                                entry[1]
                                if no_pass
                                else entry[3].get(passable)
                            )
                            if nview is False:
                                nview = None
                            elif nview is not None:
                                cache.hits += 1
                    if nview is None:
                        nview = full_bounds(nc, passable)
                    views[nc - c_lo] = nview
                los_n = nview[1]
                his_n = nview[2]
                i = bisect_left(his_n, glo)
                j = bisect_right(los_n, ghi, i)
                base = nc * stride
                for ngi in range(i, j):
                    nkey = base + ngi
                    if nkey not in seen:
                        seen_add(nkey)
                        nglo = los_n[ngi]
                        if nglo < lo:
                            nglo = lo
                        nghi = his_n[ngi]
                        if nghi > hi:
                            nghi = hi
                        append((nc, nglo, nghi))
            if nc > c:
                break
            nc = c + 1
    if stats is not None:
        stats.note(examined, capped)
    if not total:
        return []
    return _collect_sites(
        rows_l, site_los, site_his, total, horizontal, a_via, via_map,
        passable,
    )


def _collect_sites(
    chans_l: List[int],
    los_l: List[int],
    his_l: List[int],
    total: int,
    horizontal: bool,
    a_via: Optional[ViaPoint],
    via_map: "ViaMap",
    passable: FrozenSet[int],
) -> List[ViaPoint]:
    """Expand via-site ranges to available sites, in emission order.

    ``chans_l``/``los_l``/``his_l`` are parallel lists of inclusive
    via-coordinate ranges in gap-pop order, ``total`` their combined
    site count (``> 0``).
    """
    if total < MIN_VECTOR_SITES:
        # Narrow frontier: the scalar loop beats numpy's call overhead.
        # Candidates are filtered on bare coordinates; only survivors
        # become ViaPoint objects (the python twin filters ViaPoints,
        # but equality and probe accounting are coordinate-wise, so the
        # emitted list and counters are identical).
        found: List[ViaPoint] = []
        # Inline of via_map.is_available_xy: free sites (count zero) are
        # available to everyone, covered sites only when solely owned by
        # a passable owner.  The probe tally is added in one lump — the
        # per-candidate accounting is identical to the method calls.
        count = via_map._count
        via_ny = via_map.via_ny
        sole_get = via_map._sole.get
        probes = 0
        a_vx = a_via.vx if a_via is not None else -1
        a_vy = a_via.vy if a_via is not None else -1
        for vc, v_lo, v_hi in zip(chans_l, los_l, his_l):
            for v in range(v_lo, v_hi + 1):
                vx, vy = (v, vc) if horizontal else (vc, v)
                if vx == a_vx and vy == a_vy:
                    continue
                probes += 1
                if not count[vx * via_ny + vy]:
                    found.append(ViaPoint(vx, vy))
                else:
                    sole = sole_get((vx, vy))
                    if sole is not _MIXED and sole in passable:
                        found.append(ViaPoint(vx, vy))
        via_map.probe_count += probes
        return found
    starts = _np.array(los_l, dtype=_np.int64)
    reps = _np.array(his_l, dtype=_np.int64)
    reps -= starts
    reps += 1
    chans = _np.array(chans_l, dtype=_np.int64)
    ends = _np.cumsum(reps)
    sites = _np.repeat(starts - (ends - reps), reps) + _np.arange(total)
    chan_flat = _np.repeat(chans, reps)
    if horizontal:
        vx, vy = sites, chan_flat
    else:
        vx, vy = chan_flat, sites
    if a_via is not None:
        keep = (vx != a_via.vx) | (vy != a_via.vy)
        if not keep.all():
            vx = vx[keep]
            vy = vy[keep]
    mask = via_map.available_mask(vx, vy, passable)
    return list(map(ViaPoint, vx[mask].tolist(), vy[mask].tolist()))


def band_available_kernel(
    via_map: "ViaMap", xs: List[int], ys: List[int], passable: FrozenSet[int]
) -> List[bool]:
    """numpy twin of the lower-bound band scan's availability probes.

    ``repro.core.bounds`` collects the candidate arrival-band sites for
    a target and asks which are available; this kernel answers with one
    :meth:`ViaMap.available_mask` sweep.  Bit-for-bit parity with the
    scalar loop (one ``is_available_xy`` per site, same order) holds by
    the mask's own contract — values and ``probe_count`` included — so
    goal-mode routes cannot depend on which backend built the bounds.
    """
    vx = _np.asarray(xs, dtype=_np.int64)
    vy = _np.asarray(ys, dtype=_np.int64)
    return via_map.available_mask(vx, vy, passable).tolist()
