"""The mutation list of tests/mutants.py stays applicable: a refactor that
rewrites a mutated line must fail here, not silently disable the entry."""

import os

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_once(mutant):
    with open(os.path.join(mutants.ROOT, "src", "dppls", mutant.file)) as fh:
        assert fh.read().count(mutant.old) == 1
    for target in mutant.targets:
        assert os.path.exists(os.path.join(mutants.ROOT, target.split("::")[0]))

