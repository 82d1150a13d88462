"""Layer decomposition and the cylindrical excess.

A chain in general position over a base plane is a finite stack of
affine graphs.  The cylindrical excess measures how much mass the stack
carries beyond a flat sheet; it is computed exactly (constant Jacobians
times exact polygon-disk areas).  The multiplicity statistics bound how
much of the base is covered more than once.
"""

import math

import numpy as np

from gmtepi import NormedCoefficient, OrientedPlane, PolyChain, Simplex, integers
from gmtepi.layers import cylindrical_excess, decompose_layers, height_sup, multiplicity_stats

G = integers()
one = NormedCoefficient(G, 1)
V = OrientedPlane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

print(__doc__)


def graph_disk(N, fn, R=1.4):
    ang = 2 * math.pi * np.arange(N + 1) / N
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1) * R
    terms = []
    for i in range(N):
        base2 = np.array([[0.0, 0.0], pts[i], pts[i + 1]])
        v = np.zeros((3, 3))
        v[:, :2] = base2
        v[:, 2] = [fn(p) for p in base2]
        terms.append((Simplex(v), one))
    return PolyChain(3, 2, G, terms)


for slope in (0.0, 0.05, 0.1, 0.2):
    T = graph_disk(64, lambda p: slope * p[0])
    d = decompose_layers(T, V)
    exc = cylindrical_excess(d, radius=1.0)
    exact = (math.sqrt(1 + slope**2) - 1) * math.pi
    print(f"graph of {slope:.2f} x over the unit disk: excess {exc:.6f} "
          f"(closed form {exact:.6f}), height sup {height_sup(T, V, 1.0):.3f}")

print("\ntwo stacked flat sheets (coefficients 1 and 1):")
T2 = graph_disk(48, lambda p: 0.0) + graph_disk(48, lambda p: 0.3)
d2 = decompose_layers(T2, V)
print(f"  stalk coefficient g0 = {d2.g0.value}, layers = {len(d2.domains)}")
rep = multiplicity_stats(d2, eps_mass=2.0)
print(f"  overlap measure {rep.e2_measure:.4f} (= pi: the sheets overlap everywhere)")
print(f"  integral of the stalk count over the overlap: {rep.int_count:.4f} (= 2 pi)")
print(f"  hypotheses for the 2/3/5-factor bounds hold: {rep.hypotheses_ok}")
print("  (they fail here: a doubled flat stack has layer coefficients below")
print("   three quarters of g0; the bounds are only asserted when earned)")
