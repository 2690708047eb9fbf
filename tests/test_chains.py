import json
import random
import re
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from schubert import chains
from schubert.chains import (
    LabeledChain,
    chain_from_json_obj,
    chain_monomial,
    chain_to_json_obj,
    check_chain,
    increasing_chains,
    increasing_chains_to_w0,
    padded_type,
    search_toward,
    type_counts,
)
from schubert.perms import all_perms, bruhat_covers, labeled_edges, length, longest

from oracles import (
    brute_force_chains,
    brute_force_rcgraphs,
    brute_force_type_counts,
    chain_type,
    labeled_covers_by_sort,
)

CHAIN_1432 = LabeledChain(
    perms=((1, 4, 3, 2), (4, 1, 3, 2), (4, 2, 3, 1), (4, 3, 2, 1)),
    labels=((1, 1), (2, 1), (2, 2)),
)


def test_chain_monomial_worked_example():
    assert chain_monomial(CHAIN_1432) == (1, 2, 0)


def test_empty_chain():
    empty = LabeledChain(perms=((1, 2, 3),), labels=())
    assert chain_monomial(empty) == (0, 0)
    assert len(empty) == 0
    assert empty.start == empty.end
    with pytest.raises(ValueError, match="one label per step"):
        LabeledChain((), ())


def test_exponent_sum_is_step_count():
    for chain in increasing_chains_to_w0((2, 1, 4, 3)):
        assert sum(chain_monomial(chain)) == len(chain)


def test_single_chain_when_endpoints_equal():
    chains = list(increasing_chains((2, 4, 1, 3), (2, 4, 1, 3)))
    assert chains == [LabeledChain(perms=((2, 4, 1, 3),), labels=())]


def test_empty_stream_when_not_below():
    assert list(increasing_chains((2, 4, 1, 3), (1, 3, 2, 4))) == []
    # same length, distinct: incomparable
    assert list(increasing_chains((2, 1, 4, 3), (1, 3, 4, 2))) == []


def test_known_chain_appears():
    chains = list(increasing_chains((1, 4, 3, 2), (4, 3, 2, 1)))
    assert CHAIN_1432 in chains
    assert CHAIN_1432 in list(increasing_chains_to_w0((1, 4, 3, 2)))


def test_chain_count_for_1324_to_2413():
    # equals the coefficient sum of the skew polynomial; frozen from the
    # normal-form route (see test_calc.test_skew_coefficient_sum_oracle)
    chains = list(increasing_chains((1, 3, 2, 4), (2, 4, 1, 3)))
    assert len(chains) == 4


def test_every_emitted_chain_is_valid_and_increasing():
    for w in [(1, 4, 3, 2), (2, 1, 4, 3), (1, 2, 3, 4)]:
        for chain in increasing_chains((1, 2, 3, 4), w):
            check_chain(chain)
            assert chain.is_increasing()
            assert chain.start == (1, 2, 3, 4)
            assert chain.end == w


def test_deterministic_lexicographic_order():
    runs = [
        [c.labels for c in increasing_chains((1, 4, 3, 2), (4, 3, 2, 1))]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0] == sorted(runs[0])


def test_to_w0_trivial_cases():
    w0 = longest(4)
    assert list(increasing_chains_to_w0(w0)) == [LabeledChain((w0,), ())]


def test_to_w0_count_matches_brute_force_rcgraphs():
    for w in [(1, 4, 3, 2), (2, 1, 4, 3), (3, 1, 2, 4)]:
        assert len(list(increasing_chains_to_w0(w))) == len(brute_force_rcgraphs(w))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_specialized_equals_generic(n):
    w0 = longest(n)
    for w in all_perms(n):
        special = {c.labels for c in increasing_chains_to_w0(w)}
        generic = {c.labels for c in increasing_chains(w, w0)}
        assert special == generic, w
        assert len(special) == sum(1 for _ in increasing_chains_to_w0(w))


def test_to_w0_chains_match_the_oracle_cold_and_warm():
    # a node's covers u*(k,l) come by increasing l, so by decreasing u(l): the
    # tree yields its chains in decreasing order of their perms
    expected = {}
    for n in range(1, 6):
        w0, top = longest(n), n * (n - 1) // 2
        for w in all_perms(n):
            ends_at_w0 = [(p, lab) for p, lab in brute_force_chains(w, top) if p[-1] == w0]
            expected[w] = sorted(ends_at_w0, reverse=True)
    chains._branch.cache_clear()
    for warm in (False, True):
        for w, chains_to_w0 in expected.items():
            got = [(c.perms, c.labels) for c in increasing_chains_to_w0(w)]
            assert got == chains_to_w0, (w, warm)


def test_threads_share_the_branch_cache():
    ws = list(all_perms(6))

    def enumerate_all():
        return [[(c.perms, c.labels) for c in increasing_chains_to_w0(w)] for w in ws]

    expected = enumerate_all()
    chains._branch.cache_clear()
    got = {}
    threads = [threading.Thread(target=lambda i=i: got.setdefault(i, enumerate_all()))
               for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [got.get(i) == expected for i in range(4)] == [True] * 4


@pytest.mark.parametrize("n", [3, 4, 5])
def test_star_property_and_branch_consistency(n):
    # every step in a chain to w0 swaps position k of its label, and all
    # branches at a node share the same label
    for w in all_perms(n):
        for chain in increasing_chains_to_w0(w):
            for u, v, (k, b) in zip(chain.perms, chain.perms[1:], chain.labels):
                diff = [p for p in range(n) if u[p] != v[p]]
                assert diff[0] == k - 1
                assert u[k - 1] == b
                assert (k, b) in labeled_edges(u, v)


def test_count_by_type():
    u, w0 = (1, 4, 3, 2), (4, 3, 2, 1)
    assert type_counts(u, u)[padded_type((0, 0, 0), 4)] == 1
    assert type_counts(u, u)[padded_type((1, 0, 0), 4)] == 0
    counts = type_counts(u, w0)
    assert counts[padded_type((1, 2), 4)] == 1  # the example chain is the only one
    assert sum(counts.values()) == len(list(increasing_chains(u, w0)))
    assert counts[(1, 2, 0)] == 1


def test_one_search_toward_w_serves_every_start_on_s4():
    for w in all_perms(4):
        types, near = search_toward(w)
        for u in all_perms(4):
            expected = brute_force_type_counts(u, w)
            assert Counter(types(u)) == expected, (u, w)
            assert type_counts(u, w) == expected, (u, w)
        # the search never enters a node at or past the length of w
        assert all(length(p) < length(w) for p in near), w


def oracle_ends(u, top):
    """The oracle's chains from u grouped by end: each end's types and its chains in order."""
    ends = {}
    for perms, labels in brute_force_chains(u, top):
        types, chains = ends.setdefault(perms[-1], (Counter(), []))
        types[chain_type(labels, len(u))] += 1
        chains.append(LabeledChain(perms, labels))
    return ends


def test_interval_searches_match_the_walk_from_u_on_s5():
    # all 14400 ordered pairs: an incomparable pair has no chain, u == w the empty one
    for u in all_perms(5):
        ends = oracle_ends(u, length(longest(5)))
        for w in all_perms(5):
            types, chains = ends.get(w, (Counter(), []))
            assert type_counts(u, w) == types, (u, w)
            assert list(increasing_chains(u, w)) == chains, (u, w)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_interval_searches_match_the_walk_on_random_climbs(data):
    n = data.draw(st.sampled_from([6, 7]))
    u = w = tuple(data.draw(st.permutations(range(1, n + 1))))
    for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
        covers = bruhat_covers(w)
        if not covers:
            break
        w = data.draw(st.sampled_from(covers))[0]
    types, chains = oracle_ends(u, length(w)).get(w, (Counter(), []))
    assert type_counts(u, w) == types
    assert list(increasing_chains(u, w)) == chains


def test_type_partition_of_total():
    u, w = (1, 3, 2, 4), (2, 4, 1, 3)
    counts = type_counts(u, w)
    assert sum(counts.values()) == 4
    assert all(len(a) == 3 for a in counts)


def test_label_sequences_within_fixed_endpoints_are_distinct():
    # distinct walks between the same endpoints never share a label sequence
    # (checked exhaustively at n = 4); labels alone remain ambiguous only
    # across different endpoints
    for u in all_perms(4):
        for w in all_perms(4):
            if not 0 < length(w) - length(u) <= 3:
                continue
            seqs = [c.labels for c in increasing_chains(u, w)]
            assert len(seqs) == len(set(seqs)), (u, w)


def test_chain_json_round_trip():
    obj = chain_to_json_obj(CHAIN_1432)
    assert obj == {"start": "1432", "steps": [[1, 1], [2, 1], [2, 2]]}
    assert json.loads(json.dumps(obj)) == obj
    assert chain_from_json_obj(obj) == CHAIN_1432


def test_chain_json_ambiguity_detected():
    # 1324 has two covers labeled (1, 1): to 3124 and to 2314
    with pytest.raises(ValueError, match="2 distinct chains"):
        chain_from_json_obj({"start": "1324", "steps": [[1, 1]]})
    # the label (1, 2) requires value 2 at a position <= 1, impossible here
    with pytest.raises(ValueError, match="no chain"):
        chain_from_json_obj({"start": "1234", "steps": [[1, 2]]})


def read_by_oracle(obj, end=None):
    """
    Read obj by brute force: extend every walk by each oracle edge that
    carries the next label.  The chain, or the kind of error
    chain_from_json_obj raises.
    """
    walks = [(tuple(map(int, obj["start"])),)]
    for lab in map(tuple, obj["steps"]):
        walks = [p + (v,) for p in walks for edge, v in labeled_covers_by_sort(p[-1]) if edge == lab]
    walks = [p for p in walks if end is None or p[-1] == end]
    if len(walks) == 1:
        return LabeledChain(walks[0], tuple(map(tuple, obj["steps"])))
    return f"fit {len(walks)} distinct chains" if walks else "no chain"


def read(obj, end=None):
    try:
        return chain_from_json_obj(obj, end)
    except ValueError as exc:
        return re.search(r"no chain|fit \d+ distinct chains", str(exc)).group()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_chain_reader_matches_the_oracle_on_random_walks(n):
    # labeled walks that need not increase, read with and without their end,
    # then with one more label from a box that reaches past 1..n - 1 and 1..n
    rng = random.Random(n)
    for _ in range(200):
        perms = [tuple(rng.sample(range(1, n + 1), n))]
        labels = []
        for _ in range(rng.randint(0, 5)):
            if not (edges := labeled_covers_by_sort(perms[-1])):
                break
            lab, v = rng.choice(edges)
            perms.append(v)
            labels.append(list(lab))
        extra = [rng.randint(-1, n), rng.randint(-1, n + 1)]
        for steps in (labels, labels + [extra]):
            obj = {"start": "".join(map(str, perms[0])), "steps": steps}
            for end in (None, perms[-1]):
                assert read(obj, end) == read_by_oracle(obj, end), (obj, end)


def test_chain_json_round_trip_all_outputs_n4():
    for w in all_perms(4):
        for chain in increasing_chains_to_w0(w):
            assert chain_from_json_obj(chain_to_json_obj(chain)) == chain


def test_chain_json_endpoint_hint():
    one_step = next(increasing_chains((1, 3, 2, 4), (3, 1, 2, 4)))
    obj = chain_to_json_obj(one_step)
    assert obj["steps"] == [[1, 1]]
    assert chain_from_json_obj(obj, end=(3, 1, 2, 4)) == one_step
    other = next(increasing_chains((1, 3, 2, 4), (2, 3, 1, 4)))
    assert chain_from_json_obj(chain_to_json_obj(other), end=(2, 3, 1, 4)) == other


def test_type_counts_from_identity_match_complement():
    # Gamma(1, w) and Gamma(w0 w, w0) carry identical type distributions,
    # even though no explicit bijection between them is implemented
    from schubert.perms import compose, identity

    for w in all_perms(4):
        w0w = compose(longest(4), w)
        assert type_counts(identity(4), w) == type_counts(w0w, longest(4)), w


def test_random_to_w0_chains_verify_in_s5():
    rng = random.Random(1)
    perms = list(all_perms(5))
    for w in rng.sample(perms, 10):
        for chain in increasing_chains_to_w0(w):
            check_chain(chain)
            assert chain.is_increasing()
