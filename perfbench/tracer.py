"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each listed function in every loaded
``gmtepi`` module that holds it (so calls through ``from .chains import
boundary`` are caught too) and each listed method on its class; ``remove``
puts the originals back.  A span is (name, parent span, start, end,
outcome) and is kept in flat arrays until the run ends.  A name that no
longer exists in the program is reported as absent.
"""

from __future__ import annotations

import sys
import time
from array import array

PACKAGE = "gmtepi"

# (module, qualified name, outcome recorded per call)
TARGETS = (
    ("chainfile", "load_chain", None),
    ("chains", "PolyChain.__init__", "terms"),
    ("chains", "boundary", None),
    ("chains", "merge_terms", None),
    ("chains", "ball_mass", None),
    ("groups", "group_norm", None),
    ("quadrature", "simplex_ball_moments", "hit"),
    ("quadrature", "trig_monomial_integral", None),
    ("quadrature", "simplex_ball_mass", None),
    ("quadrature", "disk_polygon_area", None),
    ("moments", "chain_ball_moments", None),
    ("moments", "quad_form", None),
    ("moments", "beta_numbers", None),
    ("mono", "DensityProfile.from_chain", None),
    ("planes", "OrientedPlane.from_span", None),
    ("layers", "decompose_layers", None),
    ("layers", "cylindrical_excess", None),
    ("layers", "height_sup", None),
    ("epi", "build_comparison", None),
    ("epi", "mollified_graph", None),
    ("epi", "trace_and_split", None),
    ("scan", "multiscale_scan", None),
    ("scan", "support_sample", None),
    ("scan", "extract_graph", None),
    ("scan", "find_frame", "found"),
)

_OUTCOMES = {
    # number of terms the constructed chain kept
    "terms": lambda args, result: len(args[0].terms),
    # 1 when the ball meets the simplex
    "hit": lambda args, result: int(result.s0 > 0.0),
    # reaching the return means a frame was found; failures raise
    "found": lambda args, result: 1,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn, outcome):
        names, parents, starts, ends, outs = self.name_id, self.parent, self.start, self.end, self.outcome
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outs.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                raise
            ends[idx] = clock()
            stack.pop()
            if outcome is not None:
                outs[idx] = outcome(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        for module_name, qualname, outcome_name in TARGETS:
            label = f"{module_name}.{qualname}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(label)
                continue
            nid = len(self.names)
            self.names.append(label)
            outcome = _OUTCOMES.get(outcome_name)
            if owner_name:
                # a method: patch the class, which every importer shares
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(nid, raw.__func__, outcome))
                else:
                    new = self._wrap(nid, raw, outcome)
                setattr(owner, attr, new)
                self._restore.append((owner, attr, raw))
                continue
            new = self._wrap(nid, raw, outcome)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, new)
                        self._restore.append((mod, key, raw))

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, ranges: list[tuple[int, int]]) -> dict[str, dict[str, float]]:
        """Totals per name over the spans whose index lies in ``ranges``.

        ``calls``, ``s`` (inclusive time of outermost spans of the name),
        ``self_s`` (span time minus the time of its traced children) and
        ``outcome`` (sum of the recorded outcomes).
        """
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "outcome": 0} for name in self.names}
        spans = [i for lo, hi in ranges for i in range(lo, hi)]
        child: dict[int, float] = {}
        for i in spans:
            p = self.parent[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + self.end[i] - self.start[i]
        for i in spans:
            nid = self.name_id[i]
            row = out[self.names[nid]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child.get(i, 0.0)
            row["outcome"] += self.outcome[i]
            if not self._inside_same_name(i):
                row["s"] += dur
        return out

    def _inside_same_name(self, i: int) -> bool:
        nid = self.name_id[i]
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False

    def save(self, path: str) -> None:
        """Write every span as arrays in one compressed ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            outcome=np.frombuffer(self.outcome, dtype=np.int64),
        )
