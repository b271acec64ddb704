"""Pass-engine layer: one shared timing context for the whole compile flow.

Before this layer, every optimization pass built its own
:class:`~repro.synth.timing.TimingEngine` — a cold STA (full arrival
propagation, and in vector mode a fresh kernel binding) per pass, even
though the netlist journal already lets one engine follow the flow's
mutations incrementally.  :class:`PassContext` owns that single engine:
``DCShell`` hands the same context to every pass it runs, passes journal
their edits through the netlist change journal as before, and the shell's
report commands reuse the same warm engine.

Per-library candidate tables (:func:`upgrade_table` /
:func:`downgrade_table`) hoist ``library.next_size_up`` / ``variants``
lookups out of the pass round loops.
"""

from __future__ import annotations

import threading
import weakref

from ..hdl.netlist import Netlist
from .library import LibCell, TechLibrary
from .sdc import Constraints
from .timing import TimingEngine
from .wireload import WireLoadModel

__all__ = [
    "PassContext",
    "upgrade_table",
    "downgrade_table",
    "sizing_neighbors",
]


_TABLE_LOCK = threading.Lock()
_UPGRADES: "weakref.WeakKeyDictionary[TechLibrary, dict]" = (
    weakref.WeakKeyDictionary()
)
_DOWNGRADES: "weakref.WeakKeyDictionary[TechLibrary, dict]" = (
    weakref.WeakKeyDictionary()
)
_NEIGHBORS: "weakref.WeakKeyDictionary[TechLibrary, dict]" = (
    weakref.WeakKeyDictionary()
)


def upgrade_table(library: TechLibrary) -> dict[str, LibCell | None]:
    """``{lib_cell name -> next stronger variant (or None)}`` for ``library``.

    Exactly ``library.next_size_up(library.cell(name))`` per entry, built
    once per library object.  Lookups of names the library does not know
    raise ``KeyError`` — the same contract as ``library.cell``.
    """
    with _TABLE_LOCK:
        table = _UPGRADES.get(library)
        if table is None:
            table = {
                cell.name: library.next_size_up(cell) for cell in library.cells()
            }
            _UPGRADES[library] = table
    return table


def downgrade_table(library: TechLibrary) -> dict[str, LibCell | None]:
    """``{lib_cell name -> strongest weaker variant (or None)}``.

    The last entry of ``[v for v in variants(function) if v.drive <
    current.drive]`` — ``recover_area``'s downsizing candidate.
    """
    with _TABLE_LOCK:
        table = _DOWNGRADES.get(library)
        if table is None:
            table = {}
            for cell in library.cells():
                weaker = [
                    v for v in library.variants(cell.function)
                    if v.drive < cell.drive
                ]
                table[cell.name] = weaker[-1] if weaker else None
            _DOWNGRADES[library] = table
    return table


def sizing_neighbors(library: TechLibrary) -> dict[str, tuple[str, ...]]:
    """``{lib_cell name -> every other drive variant of its function}``.

    The move vocabulary of the design-space explorer
    (:mod:`repro.synth.explore`): for each library cell, the names of
    the same-function variants it could be rebound to, in the library's
    weakest-first ``variants`` order.  Cells with a single drive
    strength map to an empty tuple.  Built once per library object
    (same memo discipline as :func:`upgrade_table`).
    """
    with _TABLE_LOCK:
        table = _NEIGHBORS.get(library)
        if table is None:
            table = {
                cell.name: tuple(
                    v.name
                    for v in library.variants(cell.function)
                    if v.name != cell.name
                )
                for cell in library.cells()
            }
            _NEIGHBORS[library] = table
    return table


class PassContext:
    """Shared state for one compile flow over one netlist.

    Owns the single :class:`TimingEngine` (and with it the SoA lowering +
    kernel) that every timing-driven pass uses; the engine follows the
    netlist's change journal, so pass-to-pass handoff is incremental
    instead of a rebuild.
    """

    __slots__ = ("netlist", "library", "wireload", "constraints", "engine")

    def __init__(
        self,
        netlist: Netlist,
        library: TechLibrary,
        wireload: WireLoadModel,
        constraints: Constraints,
        engine: TimingEngine | None = None,
    ) -> None:
        self.netlist = netlist
        self.library = library
        self.wireload = wireload
        self.constraints = constraints
        self.engine = engine if engine is not None else TimingEngine(
            netlist, library, wireload, constraints
        )

    def upgrade_table(self) -> dict[str, LibCell | None]:
        return upgrade_table(self.library)

    def downgrade_table(self) -> dict[str, LibCell | None]:
        return downgrade_table(self.library)
