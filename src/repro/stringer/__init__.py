"""Stringing (Section 3): turn multi-pin nets into pin-to-pin chains.

"Starting at the output pin for the net, the next nearest input pin is
repeatedly added to the chain, until the whole net has been connected.
Then for ECL nets, the nearest free terminating resistor is added to the
end of the net. ... the stringing is repeated for each legal starting pin.
The shortest overall path is then chosen."
"""

from repro import lazy_exports

_EXPORTS = {
    "Stringer": "repro.stringer.stringer",
    "StringingError": "repro.stringer.stringer",
    "random_stringing": "repro.stringer.baselines",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
