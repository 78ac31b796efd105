"""TCAM cells, arrays and banks.

The layer stack:

* :mod:`.trit` -- ternary values, words and match algebra,
* :mod:`.cell` -- the electrical cell descriptor protocol,
* :mod:`.cells` -- one descriptor per technology (CMOS 16T, 2T-2R ReRAM,
  2-FeFET, and the two energy-aware FeFET variants),
* :mod:`.array` -- a rows x cols array executing searches and writes with
  full energy/delay accounting,
* :mod:`.bank` -- segmented/hierarchical search built from arrays,
* :mod:`.priority` -- match reduction (priority encoding),
* :mod:`.area` -- lambda-rule area estimates.
"""

from .trit import (
    TernaryWord,
    Trit,
    mismatch_counts_batch,
    pack_keys,
    random_word,
    word_from_string,
)
from .outcome import BaseOutcome
from .cell import CellDescriptor, WriteCost
from .area import TechNode, TECH_45NM, cell_dimensions
from .array import (
    ArrayGeometry,
    NearestMatchOutcome,
    SearchOutcome,
    TCAMArray,
    WriteOutcome,
)
from .bank import HierarchicalBank, SegmentedBank, SegmentedSearchOutcome
from .nand_array import NANDTCAMArray
from .weighted import DistanceSearchOutcome, WeightedTCAMArray
from .chip import ChipSearchOutcome, GatingPolicy, TCAMChip
from .priority import MatchReducer, PriorityEncoder
from .writer import WearLevelingScheduler, WritePlan, WriteScheduler

__all__ = [
    "Trit",
    "TernaryWord",
    "random_word",
    "word_from_string",
    "pack_keys",
    "mismatch_counts_batch",
    "BaseOutcome",
    "CellDescriptor",
    "WriteCost",
    "TechNode",
    "TECH_45NM",
    "cell_dimensions",
    "TCAMArray",
    "ArrayGeometry",
    "SearchOutcome",
    "NearestMatchOutcome",
    "WriteOutcome",
    "SegmentedBank",
    "HierarchicalBank",
    "SegmentedSearchOutcome",
    "NANDTCAMArray",
    "WeightedTCAMArray",
    "DistanceSearchOutcome",
    "TCAMChip",
    "ChipSearchOutcome",
    "GatingPolicy",
    "PriorityEncoder",
    "MatchReducer",
    "WriteScheduler",
    "WearLevelingScheduler",
    "WritePlan",
]
