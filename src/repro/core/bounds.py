"""Placeholder for the deleted goal-mode lower-bound cache.

``bench/tracer.py`` still patches ``LowerBoundCache.lookup`` for its
``bounds`` row, so the class and method stay until the benchmark drops
that row.  Nothing in :mod:`repro` calls it; the row reads 0.
"""


class LowerBoundCache:
    """No lower bounds are computed or cached any more."""

    def lookup(self, *args, **kwargs) -> None:
        """Never called by the router; kept as a tracing target."""
        raise NotImplementedError("goal-oriented search was removed")
