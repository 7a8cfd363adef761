from pathlib import Path

import pytest

import spaqlab
from mutants import MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS,
                         ids=[f"{m.module}-{i}" for i, m in enumerate(MUTANTS)])
def test_each_mutant_text_occurs_once_in_src(mutant):
    # tests/mutants.py replaces the first occurrence; a text that moved or
    # appears twice would leave the row mutating nothing or the wrong line
    src = Path(spaqlab.__file__).parent
    counts = {p.stem: p.read_text().count(mutant.old)
              for p in src.glob("*.py")}
    assert counts[mutant.module] == 1
    assert sum(counts.values()) == 1
    assert mutant.tests
