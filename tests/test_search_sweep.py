"""The committed search sweep replays field for field.

tests/golden/search_sweep.json holds `exhaustive_ops_search` answers on
the corpus-p2 configs and 600 random P^1-P^4 cycles at B = 0..3, and on
the classify-wide cycles of seeds 1-3 at B = 2, recorded by
record_search_golden.py.  Every field must come back exactly: the
weight, the weight vector (the first maximal sign vector), the basis
points (the earliest maximal frame) and the basis.
"""

import json

from chowstab import exhaustive_ops_search
from record_search_golden import GOLDEN, answer, cycle_of


def test_search_matches_the_recorded_sweep():
    cycles = json.loads(GOLDEN.read_text())["cycles"]
    assert len(cycles) == 938 + 600 + 216
    differing = []
    for entry in cycles:
        cycle = cycle_of(entry["n"], entry["points"])
        for bound, stored in entry["results"].items():
            if answer(exhaustive_ops_search(cycle, int(bound))) != stored:
                differing.append((entry["source"], bound))
    assert differing == []
