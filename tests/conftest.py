import numpy as np
import pytest

from gmtepi.chains import PolyChain, Simplex
from gmtepi.groups import NormedCoefficient, integers


@pytest.fixture
def one():
    return NormedCoefficient(integers(), 1)


def make_flat_disk(N=64, n=3, coeff=1):
    from gmtepi.generators import flat_disk

    return flat_disk(N, n, coeff)[0]


def make_graph_disk(N, fn, n=3, R=1.0, coeff=1):
    """Fan triangulation of the graph of ``fn`` over the inscribed N-gon."""
    G = integers()
    g = NormedCoefficient(G, coeff)
    ang = 2 * np.pi * np.arange(N + 1) / N
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1) * R
    terms = []
    for i in range(N):
        base2 = np.array([[0.0, 0.0], pts[i], pts[i + 1]])
        v = np.zeros((3, n))
        v[:, :2] = base2
        v[:, 2] = [fn(p) for p in base2]
        terms.append((Simplex(v), g))
    return PolyChain(n, 2, G, terms)


def random_chain(rng, m=2, n=3, terms=6, scale=1.0):
    G = integers()
    out = []
    for _ in range(terms):
        v = rng.normal(size=(m + 1, n)) * scale
        out.append((Simplex(v), NormedCoefficient(G, int(rng.integers(1, 4)))))
    return PolyChain(n, m, G, out)


def minor_volumes(verts: np.ndarray) -> np.ndarray:
    """Volumes of a (T, m+1, n) stack of simplices, m <= 2, from the m x m
    minors of the edge matrix: unlike the Gram determinant of the edges at
    vertex 0 they keep their accuracy on a simplex with a tiny angle at
    vertex 0, as thin clip pieces have."""
    e = verts[:, 1:] - verts[:, :1]
    if e.shape[1] == 0:
        return np.ones(len(verts))
    if e.shape[1] == 1:
        return np.linalg.norm(e[:, 0], axis=1)
    minors = e[:, 0, :, None] * e[:, 1, None, :] - e[:, 1, :, None] * e[:, 0, None, :]
    return 0.5 * np.sqrt(0.5 * np.sum(minors * minors, axis=(1, 2)))


def two_height_graph() -> PolyChain:
    """The fan over a 24-gon of x -> (0.2 x_1, 0.3 x_2) in R^4: its
    gradient has a nonzero 2 x 2 minor."""
    ang = 2 * np.pi * np.arange(25) / 24
    ring = 1.3 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    g = NormedCoefficient(integers(), 1)
    terms = []
    for i in range(24):
        base2 = np.array([[0.0, 0.0], ring[i], ring[i + 1]])
        terms.append((Simplex(np.column_stack([base2, 0.2 * base2[:, 0], 0.3 * base2[:, 1]])), g))
    return PolyChain(4, 2, integers(), terms)
