"""Work counters of one comparison run: each per-row bookkeeping step of
the comparison pipeline runs once, so these counts are pinned as upper
bounds (a count that grows is repeated work, not a wrong answer)."""

import numpy as np

from gmtepi import chains, epi, layers
from gmtepi.generators import cone_harmonic

# build_comparison(cone_harmonic(2, 0.05, 256)): an S of 11,264 terms
S_TERMS = 11_264
# one Gram determinant per row: S's 11,264, P's inner pieces, the mollified
# cone, and P's boundary and its projection (256 each)
GRAM_ROWS = 12_288
WELD_ROWS = 33_536  # vertex rows: P's boundary once, and s_parts - P_inside once for the defect gate
SOLVED_ROWS = 256  # affine maps: only P's layers over V are read
CLEARANCE_CALLS = 1


def test_one_comparison_does_each_bookkeeping_step_once(monkeypatch):
    P = cone_harmonic(2, 0.05, 256)[0]
    count = dict(gram=0, weld=0, solve=0, clearance=0)

    def counted(key, real, rows):
        def call(*args):
            count[key] += rows(*args)
            return real(*args)

        return call

    gram = counted("gram", chains._gram_dets, lambda v: len(v))
    monkeypatch.setattr(chains, "_gram_dets", gram)
    monkeypatch.setattr(epi, "_gram_dets", gram)
    monkeypatch.setattr(chains, "_vertex_ids", counted("weld", chains._vertex_ids, lambda v: v.shape[0] * v.shape[1]))
    # the affine maps of the layers are the pipeline's only linear solve
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve, lambda a, b: len(a)))
    monkeypatch.setattr(layers, "boundary_clearance", counted("clearance", layers.boundary_clearance, lambda *a: 1))
    S, rep = epi.build_comparison(P)
    assert len(S) == S_TERMS and rep.boundary_defect == 0.0
    assert count["gram"] <= GRAM_ROWS, count
    assert count["weld"] <= WELD_ROWS, count
    assert count["solve"] <= SOLVED_ROWS, count
    assert count["clearance"] <= CLEARANCE_CALLS, count
