import json
import random

import pytest

from schubert.chains import LabeledChain, chain_monomial
from schubert.perms import all_perms, identity, longest
from schubert.rcgraphs import (
    RcGraph,
    chain_of_rcgraph,
    enumerate_rcgraphs,
    is_valid,
    monomial,
    perm_of,
    rcgraph_from_json_obj,
    rcgraph_of_chain,
    rcgraph_to_json_obj,
    render_ascii,
    staircase,
    word,
)

from oracles import brute_force_rcgraphs

GRAPH_1432 = RcGraph(4, {(1, 2), (1, 3), (3, 1)})


def test_staircase_bounds_enforced():
    with pytest.raises(ValueError):
        RcGraph(3, {(2, 2)})
    with pytest.raises(ValueError):
        RcGraph(4, {(0, 1)})
    RcGraph(4, {(2, 2)})  # boundary cell is fine


def test_word_of_example_graph():
    assert word(GRAPH_1432) == (3, 2, 3)
    assert word(RcGraph(5)) == ()
    full = RcGraph(4, staircase(4))
    assert len(word(full)) == 6
    assert perm_of(full) == longest(4)


def test_is_valid():
    assert is_valid(GRAPH_1432)
    small = RcGraph(3, {(1, 1), (2, 1)})
    assert word(small) == (1, 2)
    assert perm_of(small) == (2, 3, 1)
    assert is_valid(small)
    assert not is_valid(RcGraph(3, {(1, 2), (2, 1)}))  # word (2, 2) cancels


def test_perm_of():
    assert perm_of(GRAPH_1432) == (1, 4, 3, 2)
    assert perm_of(RcGraph(4)) == identity(4)
    with pytest.raises(ValueError):
        perm_of(RcGraph(3, {(1, 2), (2, 1)}))


def test_monomial():
    assert monomial(GRAPH_1432) == (2, 0, 1)  # x1^2 * x3
    assert monomial(RcGraph(4)) == (0, 0, 0)


def test_weight_complementarity_worked_pair():
    chain = chain_of_rcgraph(GRAPH_1432)
    assert chain.labels == ((1, 1), (2, 1), (2, 2))
    assert [p for p in chain.perms] == [
        (1, 4, 3, 2), (4, 1, 3, 2), (4, 2, 3, 1), (4, 3, 2, 1)]
    total = tuple(a + b for a, b in zip(monomial(GRAPH_1432), chain_monomial(chain)))
    assert total == (3, 2, 1)  # x^R * x^gamma == x^delta


def test_chain_of_full_staircase_is_empty():
    full = RcGraph(4, staircase(4))
    chain = chain_of_rcgraph(full)
    assert chain.labels == ()
    assert chain.start == longest(4)


def test_chain_of_empty_graph_n3():
    chain = chain_of_rcgraph(RcGraph(3))
    assert chain.labels == ((1, 1), (1, 2), (2, 1))
    assert chain.start == identity(3)
    assert chain.end == (3, 2, 1)
    # each greedy stage is itself a valid rc-graph
    cells = set()
    for lab in chain.labels:
        cells.add(lab)
        assert is_valid(RcGraph(3, frozenset(cells)))


def test_chain_of_invalid_graph_rejected():
    with pytest.raises(ValueError):
        chain_of_rcgraph(RcGraph(3, {(1, 2), (2, 1)}))


def test_rcgraph_of_chain_worked_example():
    chain = LabeledChain(
        perms=((1, 4, 3, 2), (4, 1, 3, 2), (4, 2, 3, 1), (4, 3, 2, 1)),
        labels=((1, 1), (2, 1), (2, 2)),
    )
    assert rcgraph_of_chain(chain) == GRAPH_1432


def test_rcgraph_of_chain_rejects_bad_input():
    not_to_w0 = LabeledChain(perms=((1, 4, 3, 2), (4, 1, 3, 2)), labels=((1, 1),))
    with pytest.raises(ValueError, match="longest"):
        rcgraph_of_chain(not_to_w0)
    decreasing = LabeledChain(
        perms=((4, 1, 3, 2), (4, 2, 3, 1), (4, 3, 2, 1)),
        labels=((3, 1), (2, 2)),
    )
    with pytest.raises(ValueError, match="increase"):
        rcgraph_of_chain(decreasing)
    wrong_label = LabeledChain(
        perms=((4, 2, 3, 1), (4, 3, 2, 1)), labels=((1, 2),))
    with pytest.raises(ValueError):
        rcgraph_of_chain(wrong_label)


def test_empty_chain_at_w0_gives_full_staircase():
    chain = LabeledChain(perms=(longest(4),), labels=())
    assert rcgraph_of_chain(chain) == RcGraph(4, staircase(4))


def test_enumerate_trivial():
    assert list(enumerate_rcgraphs(identity(4))) == [RcGraph(4)]
    assert list(enumerate_rcgraphs(longest(4))) == [RcGraph(4, staircase(4))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_matches_brute_force_exhaustive(n):
    for w in all_perms(n):
        got = {g.crossings for g in enumerate_rcgraphs(w)}
        assert got == brute_force_rcgraphs(w), w


def test_enumerate_matches_brute_force_sampled_s5():
    rng = random.Random(5)
    perms = list(all_perms(5))
    for w in rng.sample(perms, 8):
        got = {g.crossings for g in enumerate_rcgraphs(w)}
        assert got == brute_force_rcgraphs(w), w


def test_215463_count_matches_brute_force():
    w = (2, 1, 5, 4, 6, 3)
    graphs = list(enumerate_rcgraphs(w))
    assert len(graphs) == len({g.crossings for g in graphs})
    assert {g.crossings for g in graphs} == brute_force_rcgraphs(w)


def test_render_ascii_layout():
    assert render_ascii(GRAPH_1432) == ". + +\n. .\n+"


def test_json_round_trip():
    obj = rcgraph_to_json_obj(GRAPH_1432)
    assert obj == {"n": 4, "crossings": [[1, 3], [1, 2], [3, 1]]}
    assert rcgraph_from_json_obj(json.loads(json.dumps(obj))) == GRAPH_1432
