"""The array-backed chain operations against the per-term code kept in
``scalar_oracle``: construction, ``boundary``, ``merge_terms``, negation,
sums and ``size`` give the same vertex stacks, payloads and term order,
and bad input fails at the boundary."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_oracle as oracle
from gmtepi import epi
from gmtepi.chains import DEGENERATE_GRAM, PolyChain, Simplex, _gram_dets, boundary, mass, merge_terms, size
from gmtepi.generators import cone_harmonic, generate
from gmtepi.groups import NormedCoefficient, cantor, group_norm, integers, unit_discrete
from gmtepi.quadrature import simplex_volume

FAMILIES = [
    ("flat_disk", {"N": 64}),
    ("flat_disk", {"N": 17, "n": 5, "coeff": -3}),
    ("tilted", {"tilt": 0.1, "N": 64}),
    ("cone_harmonic", {"k": 2, "amplitude": 0.05, "N": 48}),
    ("cone_harmonic", {"k": 3, "amplitude": 0.04, "N": 32, "n": 4}),
    ("two_sheet_cantor", {"levels": 3, "samples_per_gap": 12}),
    ("cantor_graph", {"levels": 2, "samples_per_gap": 8}),
    ("cantor_group", {"depth": 5}),
    ("stacked", {"heights": (0.0, 0.3, 0.3), "coeffs": (1, 2, -2), "N": 16}),
]


def assert_same_terms(chain: PolyChain, pairs: list) -> None:
    """Same vertex stack (bit for bit), same payloads, same term order."""
    assert len(chain) == len(pairs)
    if not pairs:
        return
    want = np.stack([s.vertices for s, _ in pairs])
    assert chain.verts.tobytes() == want.tobytes()
    assert chain.payload.tolist() == [list(np.atleast_1d(c.value)) for _, c in pairs]


def check_against_oracle(chain: PolyChain) -> None:
    terms = list(chain.terms)
    assert chain.coeff_norms().tolist() == [group_norm(c) for _, c in terms]
    assert chain.volumes().tolist() == [simplex_volume(s.vertices) for s, _ in terms]
    assert_same_terms(merge_terms(chain), oracle.merge_terms(terms))
    assert_same_terms(-chain, oracle.chain_filter(oracle.negate(terms)))
    doubled = terms + [(Simplex(s.vertices[::-1]), c) for s, c in terms[::-1]]
    want = oracle.merge_terms(oracle.chain_filter(terms + doubled))
    assert_same_terms(chain + chain.with_terms(doubled), want)
    assert_same_terms(chain - chain, oracle.merge_terms(terms + oracle.negate(terms)))
    assert size(chain) == oracle.size(terms)
    if chain.m >= 1:
        bd = boundary(chain)
        assert_same_terms(bd, oracle.boundary(terms))
        if chain.m >= 2:
            assert boundary(bd).is_zero


@pytest.mark.parametrize("kind,params", FAMILIES, ids=[f"{k}{i}" for i, (k, _) in enumerate(FAMILIES)])
def test_generator_families_match_the_oracle(kind, params):
    check_against_oracle(generate(kind, params)[0])


def _random_terms(rng, group, m, n, count):
    """Random simplices with duplicates, reversed copies, near-duplicates
    within the snap grid and degenerate simplices, with coefficients that
    include zero."""
    pool = rng.integers(-3, 4, size=(6, n)) * 0.5  # shared vertices make shared faces
    terms = []
    for _ in range(count):
        v = pool[rng.choice(len(pool), size=m + 1, replace=False)]
        kind = rng.integers(0, 6)
        if kind == 1 and terms:
            v = terms[rng.integers(len(terms))][0].vertices.copy()
        elif kind == 2 and terms:
            v = terms[rng.integers(len(terms))][0].vertices[::-1].copy()
        elif kind == 3:
            v = v + rng.uniform(-0.2, 0.2, size=v.shape) * 1e-12
        elif kind == 4:
            v = v.copy()
            v[-1] = v[0] + 1e-11 * (v[1] - v[0])  # degenerate
        if group.tag == "cantor":
            coeff = NormedCoefficient(group, tuple(rng.integers(0, 2, size=group.depth).tolist()))
        else:
            coeff = NormedCoefficient(group, int(rng.integers(-2, 3)))
        terms.append((Simplex(v), coeff))
    return terms


@pytest.mark.parametrize("group", [integers(), unit_discrete(), cantor(4)], ids=lambda g: g.tag)
@pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (3, 4)])
def test_random_chains_match_the_oracle(group, m, n):
    rng = np.random.default_rng(7 * m + n)
    for _ in range(6):
        terms = _random_terms(rng, group, m, n, 40)
        chain = PolyChain(n, m, group, terms)
        assert_same_terms(chain, oracle.chain_filter(terms))
        check_against_oracle(chain)


def _assert_carries_its_gram(chain: PolyChain) -> None:
    """The Gram determinants a chain holds are those ``_gram_dets`` gives
    its rows, bit for bit, and none is below ``DEGENERATE_GRAM``."""
    gram = chain._cache["gram"]
    assert gram.tobytes() == _gram_dets(chain.verts).tobytes()
    assert np.all(gram >= DEGENERATE_GRAM)


@pytest.mark.parametrize("group", [integers(), unit_discrete(), cantor(4)], ids=lambda g: g.tag)
@pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (2, 5), (3, 4)])
def test_merged_and_summed_chains_carry_their_gram_determinants(group, m, n):
    rng = np.random.default_rng(11 * m + n)
    for _ in range(4):
        terms = _random_terms(rng, group, m, n, 40)
        other = _random_terms(rng, group, m, n, 30)
        assert any(oracle._is_degenerate(s) for s, _ in terms + other)
        a, b = PolyChain(n, m, group, terms), PolyChain(n, m, group, other)
        for chain in (a, merge_terms(a), a + b, a - b, -a, a - a, merge_terms(a + a), -(a - b)):
            _assert_carries_its_gram(chain)
            assert not any(oracle._is_degenerate(s) for s, _ in chain.terms)
    # the carried path keeps the construction filter: a row below
    # DEGENERATE_GRAM and a zero payload go, as in the constructor
    one = NormedCoefficient(integers(), 1)
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 1e-11, 0.0]])
    verts, payload = np.stack([tri, flat, tri + 1.0]), np.array([[1], [1], [0]])
    assert _gram_dets(verts)[1] < DEGENERATE_GRAM
    chain = PolyChain(3, 2, integers(), [(Simplex(tri), one)])
    carried = chain._from_rows(verts, payload, _gram_dets(verts))
    built = chain.with_arrays(verts, payload)
    assert_same_terms(carried, [(Simplex(tri), one)])
    assert carried.verts.tobytes() == built.verts.tobytes()
    _assert_carries_its_gram(carried)


def test_vertices_sharing_a_snap_cell_keep_their_order():
    # a large tetrahedron with two vertices 4e-13 apart is not degenerate;
    # its two faces through both have a repeated key vertex, and the two
    # faces opposite them share one key and cancel
    p = np.array([[0.0, 0.0, 0.0], [4e-13, 0.0, 0.0], [0.0, 1e3, 0.0], [0.0, 0.0, 1e3]])
    chain = PolyChain(3, 3, integers(), [(Simplex(p), NormedCoefficient(integers(), 1))])
    assert len(chain) == 1 and len(boundary(chain)) == 2
    check_against_oracle(chain)


def test_comparison_defect_matches_the_oracle(monkeypatch):
    assembled = []
    real = epi._assemble

    def capture(*args):
        out = real(*args)
        assembled.append(out)
        return out

    monkeypatch.setattr(epi, "_assemble", capture)
    epi.build_comparison(cone_harmonic(2, 0.05, 48)[0])
    _S, P_inside, s_parts = assembled[0]
    diff = s_parts - P_inside
    want = oracle.merge_terms(list(s_parts.terms) + oracle.negate(list(P_inside.terms)))
    assert_same_terms(diff, want)
    bd = boundary(diff)
    assert_same_terms(bd, oracle.boundary(list(diff.terms)))
    assert bd.is_zero  # the interface faces cancel after snap merging
    assert boundary(boundary(s_parts)).is_zero


def test_terms_are_a_lazy_view():
    chain = generate("stacked", {"heights": (0.0, 0.3), "coeffs": (1, -2), "N": 8})[0]
    terms = chain.terms
    assert len(terms) == 16
    s, c = terms[-1]
    assert np.array_equal(s.vertices, chain.verts[15]) and c == NormedCoefficient(integers(), -2)
    assert s.volume == chain.volumes()[15]
    assert [c.value for _, c in terms[6:10]] == [1, 1, -2, -2]
    with pytest.raises(IndexError):
        terms[16]
    assert mass(chain.with_terms(chain.terms)) == mass(chain)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertices_are_rejected(bad):
    v = np.array([[[0.0, 0.0], [1.0, bad]]])
    with pytest.raises(ValueError, match="finite"):
        PolyChain(2, 1, integers(), verts=v, payload=[1])
    with pytest.raises(ValueError, match="finite"):
        PolyChain(2, 1, integers(), [(Simplex(v[0]), NormedCoefficient(integers(), 1))])


def test_coordinates_beyond_the_snap_grid_are_rejected():
    # these two disjoint segments used to share one snapped key and merge
    # into a single term with coefficient 2
    v = np.array([[[1e7, 0.0], [2e7, 0.0]], [[3e7, 0.0], [4e7, 0.0]]])
    with pytest.raises(ValueError, match="snap grid"):
        PolyChain(2, 1, integers(), verts=v, payload=[1, 1])
    ok = PolyChain(2, 1, integers(), verts=v * 1e-2, payload=[1, 1])
    assert len(merge_terms(ok)) == 2


def test_non_integral_payloads_are_rejected():
    with pytest.raises(ValueError, match="not an integer"):
        NormedCoefficient(integers(), 1.5)
    assert NormedCoefficient(integers(), 2.0).value == 2
    v = np.array([[[0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(ValueError, match="integers"):
        PolyChain(2, 1, integers(), verts=v, payload=[1.5])


def test_cantor_bits_outside_zero_one_are_rejected():
    with pytest.raises(ValueError, match="0 or 1"):
        NormedCoefficient(cantor(3), (2, 3, 0))
    v = np.array([[[0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(ValueError, match="0 or 1"):
        PolyChain(2, 1, cantor(3), verts=v, payload=[[2, 3, 0]])


@pytest.mark.parametrize("depth", [5, 33, 34, 60])
def test_cantor_norms_match_group_norm_at_every_depth(depth):
    rng = np.random.default_rng(depth)
    bits = rng.integers(0, 2, size=(16, depth))
    bits[0] = 1  # all ones: the largest numerator
    bits[1] = 0
    bits[1, -1] = 1  # the group gap 3^-depth
    v = np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]] * 8) + np.arange(16.0)[:, None, None]
    chain = PolyChain(2, 1, cantor(depth), verts=v, payload=bits)
    assert chain.coeff_norms().tolist() == [group_norm(c) for _, c in chain.terms]


def _assert_same_rows(got: PolyChain, want: PolyChain) -> None:
    """Same vertex stack, payloads and Gram cache, bit for bit."""
    assert (got.n, got.m, got.group) == (want.n, want.m, want.group)
    assert got.verts.shape == want.verts.shape and got.verts.tobytes() == want.verts.tobytes()
    assert got.payload.tobytes() == want.payload.tobytes()
    assert got._cache["gram"].tobytes() == want._cache["gram"].tobytes()


def _coincident_chain(rng: np.random.Generator, m: int, group) -> PolyChain:
    """Rows over a few lattice simplices, jittered well inside a snap cell:
    repeats in shuffled vertex orders (both orientations), classes that sum
    to zero, and collinear rows the construction filter drops."""
    width = group.depth if group.tag == "cantor" else 1
    pool = 0.5 * rng.integers(0, 4, size=(8, 3))
    base = [rng.choice(8, size=m + 1, replace=bool(rng.random() < 0.2)) for _ in range(rng.integers(1, 7))]
    if m == 2 and rng.random() < 0.5:
        pool[7] = pool[5] + 0.5 * (pool[6] - pool[5])  # collinear with 5 and 6
        base.append(np.array([5, 6, 7]))
    rows, payload = [], []
    for _ in range(rng.integers(1, 24)):
        ids = rng.permutation(base[rng.integers(len(base))])
        rows.append(pool[ids] + rng.uniform(-1e-14, 1e-14, size=(m + 1, 3)))
        if group.tag == "cantor":
            payload.append(rng.integers(0, 2, size=width))
        else:
            payload.append([rng.integers(-2, 3)])
        if rng.random() < 0.3:  # the same simplex with the opposite payload
            rows.append(pool[ids])
            payload.append(payload[-1] if group.tag == "cantor" else [-payload[-1][0]])
    return PolyChain(3, m, group, verts=np.array(rows), payload=np.array(payload))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2]), st.booleans(), st.integers(0, 2**32 - 1))
def test_merge_and_boundary_match_the_welding_oracle(m, is_cantor, seed):
    # merged chains carry their weld's vertex ids into boundary, and
    # classes are grouped by packed keys: the rows must be those of a fresh
    # weld and a lexsort over every key column
    chain = _coincident_chain(np.random.default_rng(seed), m, cantor(3) if is_cantor else integers())
    merged = merge_terms(chain)
    _assert_same_rows(merged, oracle.welded_merge_terms(chain))
    _assert_same_rows(boundary(chain), oracle.welded_boundary(chain))
    _assert_same_rows(boundary(merged), oracle.welded_boundary(oracle.welded_merge_terms(chain)))
    diff = merged - chain  # merged over the rows of two chains
    _assert_same_rows(boundary(diff), oracle.welded_boundary(diff))
