"""Chains are read through their arrays: no module of ``src/gmtepi`` but
``chains.py`` reads the per-simplex ``terms`` view, and none but
``groups.py`` adds coefficients one at a time with ``group_add`` or
``group_neg``.  Every field of :class:`EpiConfig` checks its value."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

from gmtepi.epi import EpiConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "gmtepi"


@pytest.mark.parametrize("pattern,home", [(r"\.terms\b", "chains.py"), (r"\bgroup_(add|neg)\(", "groups.py")])
def test_no_module_walks_a_chain_term_by_term(pattern, home):
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != home
        for number, line in enumerate(path.read_text().splitlines(), 1) if re.search(pattern, line)
    ]
    assert len(list(SRC.glob("*.py"))) > 10 and not hits


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(EpiConfig)])
def test_every_epi_config_field_refuses_a_bad_value(name):
    # NaN is out of range for every field, whatever its type
    with pytest.raises(ValueError, match=f"^'{name}' must be "):
        EpiConfig(**{name: math.nan})
