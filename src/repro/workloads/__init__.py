"""Synthetic routing problems standing in for the paper's Titan boards.

The paper evaluated grr on real DEC netlists (Table 1).  Those are not
available, so this package generates seeded boards with the same *shape*:
arrays of DIP ICs flanked by SIP terminating-resistor packs (Figure 19),
ECL nets strung output-first with local/global fanout mix, and power pins
bound to plane nets.  See DESIGN.md §2 for the substitution argument.
"""

from repro import lazy_exports

_EXPORTS = {
    "BackplaneSpec": "repro.workloads.backplane",
    "BoardSpec": "repro.workloads.boards",
    "connector_package": "repro.workloads.backplane",
    "generate_backplane": "repro.workloads.backplane",
    "NetlistSpec": "repro.workloads.netlist_gen",
    "TITAN_CONFIGS": "repro.workloads.titan",
    "TitanBoardConfig": "repro.workloads.titan",
    "generate_board": "repro.workloads.boards",
    "generate_nets": "repro.workloads.netlist_gen",
    "make_titan_board": "repro.workloads.titan",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
