import json

import numpy as np
import pytest

from gmtepi.chainfile import chain_to_dict, dict_to_chain, load_chain, save_chain, write_report
from gmtepi.chains import mass
from gmtepi.generators import generate

ALL_KINDS = [
    ("flat_disk", {"N": 16}),
    ("tilted", {"tilt": 0.1, "N": 32}),
    ("cone_harmonic", {"k": 2, "amplitude": 0.05, "N": 32}),
    ("two_sheet_cantor", {"levels": 2, "samples_per_gap": 8}),
    ("cantor_graph", {"levels": 2, "samples_per_gap": 8}),
    ("cantor_group", {"depth": 3}),
    ("stacked", {"heights": (0.0, 0.3), "coeffs": (1, 1), "N": 8}),
]


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_round_trip_bit_exact(tmp_path, kind, params):
    chain, meta = generate(kind, params)
    path = tmp_path / f"{kind}.json"
    save_chain(str(path), chain, meta)
    loaded, meta2 = load_chain(str(path))
    assert loaded.n == chain.n and loaded.m == chain.m and loaded.group == chain.group
    assert len(loaded) == len(chain)
    for (s1, c1), (s2, c2) in zip(chain.terms, loaded.terms):
        assert np.array_equal(s1.vertices, s2.vertices)  # bit exact
        assert c1 == c2
    assert mass(loaded) == mass(chain)
    # a second emit reproduces the file byte for byte
    path2 = tmp_path / "again.json"
    save_chain(str(path2), loaded, meta2)
    assert path.read_bytes() == path2.read_bytes()


def test_version_gate(tmp_path):
    chain, meta = generate("flat_disk", {"N": 8})
    d = chain_to_dict(chain, meta)
    d["version"] = 99
    with pytest.raises(ValueError):
        dict_to_chain(d)


def test_report_determinism(tmp_path):
    rows = [{"a": 1, "b": 0.1 + 0.2}, {"a": 2, "b": float(np.float64(1) / 3)}]
    summary = {"x": np.float64(2.5), "arr": np.arange(3), "flag": np.bool_(True)}
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    c1, j1 = write_report(str(out1), "rep", "cmd", {"seed": 0}, rows, summary)
    c2, j2 = write_report(str(out2), "rep", "cmd", {"seed": 0}, rows, summary)
    assert open(c1, "rb").read() == open(c2, "rb").read()
    assert open(j1, "rb").read() == open(j2, "rb").read()
    # floats round-trip through the CSV text exactly
    line = open(c1).read().splitlines()[1]
    assert float(line.split(",")[1]) == 0.1 + 0.2


def _disk_dict():
    chain, meta = generate("flat_disk", {"N": 8})
    return chain_to_dict(chain, meta)


def _without_group(d):
    del d["group"]
    return d


def _without_coeff(d):
    del d["simplices"][3]["coeff"]
    return d


@pytest.mark.parametrize("damage,reason", [
    (_without_group, "chain file has no 'group' field"),
    (_without_coeff, "simplex 3 of the chain file has no 'coeff' field"),
    (lambda d: [d], "a chain file holds a JSON object, not an array"),
])
def test_a_malformed_file_names_the_missing_field(damage, reason):
    with pytest.raises(ValueError) as err:
        dict_to_chain(damage(_disk_dict()))
    assert str(err.value) == reason
