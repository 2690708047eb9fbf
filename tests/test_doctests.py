import doctest

import pytest

import schubert.calc
import schubert.chains
import schubert.perms
import schubert.poly
import schubert.rcgraphs


@pytest.mark.parametrize("module", [
    schubert.chains,
    schubert.perms,
    schubert.rcgraphs,
    schubert.poly,
    schubert.calc,
])
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
