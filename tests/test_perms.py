import random

import pytest
from hypothesis import given, settings, strategies as st

from schubert.perms import (
    _covers_below,
    _perm,
    _ranks,
    _sorted_edges,
    all_perms,
    as_perm,
    bruhat_covers,
    bruhat_leq,
    code,
    compose,
    embed,
    embed_all,
    identity,
    inverse,
    labeled_edges,
    length,
    longest,
    perm_from_code,
    perm_from_str,
    perm_to_str,
)

from oracles import (
    bruhat_leq_by_sorted_prefixes,
    bruhat_reachable,
    cover_graph,
    inversion_count,
    labeled_covers_by_sort,
)

perms_of = lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
small_perms = st.integers(min_value=1, max_value=6).flatmap(perms_of)


def test_identity():
    assert identity(3) == (1, 2, 3)
    assert identity(1) == (1,)
    assert length(identity(5)) == 0


def test_longest():
    assert longest(4) == (4, 3, 2, 1)
    assert length(longest(4)) == 6
    assert compose(longest(4), longest(4)) == identity(4)


def test_length_examples():
    assert length((2, 1, 5, 4, 6, 3)) == 5
    assert length((4, 3, 2, 1)) == 6
    assert length((1, 4, 3, 2)) == 3


@given(small_perms)
def test_length_matches_oracle(w):
    assert length(w) == inversion_count(w)


def test_code_examples():
    assert code((2, 4, 1, 3)) == (1, 2, 0, 0)
    assert code(identity(6)) == (0,) * 6
    assert code(longest(4)) == (3, 2, 1, 0)


def test_perm_from_code_examples():
    assert perm_from_code((1, 2, 0, 0)) == (2, 4, 1, 3)
    assert perm_from_code((0, 0, 0)) == identity(3)
    assert perm_from_code((3, 2, 1, 0)) == (4, 3, 2, 1)
    with pytest.raises(ValueError):
        perm_from_code((4, 0, 0, 0))
    with pytest.raises(ValueError, match="longer"):
        perm_from_code((0, 0, 0), 2)


@given(small_perms)
def test_code_roundtrip(w):
    c = code(w)
    assert sum(c) == length(w)
    assert perm_from_code(c) == w


def test_covers_of_1324():
    covers = bruhat_covers((1, 3, 2, 4))
    results = {w: ij for w, ij in covers}
    assert results[(2, 3, 1, 4)] == (1, 3)
    assert results[(1, 4, 2, 3)] == (2, 4)
    assert all(ij != (1, 4) for ij in results.values())


def test_covers_of_longest_empty():
    assert bruhat_covers(longest(4)) == []


@given(small_perms)
def test_cover_properties(u):
    for w, (i, j) in bruhat_covers(u):
        assert length(w) == length(u) + 1
        assert u[i - 1] < u[j - 1]
        assert not any(u[i - 1] < u[p] < u[j - 1] for p in range(i, j - 1))
        labels = labeled_edges(u, w)
        assert len(labels) == j - i
        assert all(b == u[i - 1] for _, b in labels)
        assert [k for k, _ in labels] == list(range(i, j))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_covers_match_oracle(n):
    succ = cover_graph(n)
    for u, targets in succ.items():
        covers = bruhat_covers(u)
        assert {w for w, _ in covers} == targets
        assert len(covers) == len(targets)
        for w, ij in covers:
            assert ij == tuple(p + 1 for p in range(n) if u[p] != w[p])
        assert [ij for _, ij in covers] == sorted(ij for _, ij in covers)


def test_labeled_edges_examples():
    assert labeled_edges((1, 4, 3, 2), (4, 1, 3, 2)) == [(1, 1)]
    assert labeled_edges((4, 1, 3, 2), (4, 2, 3, 1)) == [(2, 1), (3, 1)]
    assert labeled_edges((4, 2, 3, 1), (4, 3, 2, 1)) == [(2, 2)]


def test_labeled_edges_rejects_non_cover():
    with pytest.raises(ValueError):
        labeled_edges((1, 2, 3, 4), (4, 3, 2, 1))
    with pytest.raises(ValueError):
        labeled_edges((1, 2, 3), (1, 2, 3))


def sorted_edges_of(u):
    return _sorted_edges(u, [(i, j, v) for v, (i, j) in bruhat_covers(u)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_labeled_covers_match_the_sorted_oracle(n):
    for u in all_perms(n):
        assert sorted_edges_of(u) == labeled_covers_by_sort(u)


@given(st.integers(min_value=7, max_value=10).flatmap(perms_of))
def test_labeled_covers_match_the_sorted_oracle_where_rank_fields_widen(u):
    assert sorted_edges_of(u) == labeled_covers_by_sort(u)


@given(st.data())
def test_labeled_edges_match_the_oracle_on_covers_and_non_covers(data):
    n = data.draw(st.integers(min_value=5, max_value=8))
    u = data.draw(perms_of(n))
    edges = labeled_covers_by_sort(u)
    kind = data.draw(st.sampled_from(["cover", "swap", "any"]))
    if kind == "cover" and edges:
        w = data.draw(st.sampled_from(edges))[1]
    elif kind == "swap":  # two positions swapped: a cover, a step down or a longer step up
        i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                         unique=True)))
        w = u[:i] + (u[j],) + u[i + 1:j] + (u[i],) + u[j + 1:]
    else:
        w = data.draw(perms_of(n))
    labels = [lab for lab, v in edges if v == w]
    if labels:
        assert labeled_edges(u, w) == labels
    else:
        with pytest.raises(ValueError):
            labeled_edges(u, w)


def test_bruhat_leq_examples():
    assert bruhat_leq((1, 3, 2, 4), (2, 4, 1, 3))
    assert bruhat_leq((2, 4, 1, 3), (2, 4, 1, 3))
    assert not bruhat_leq((4, 3, 2, 1), (1, 2, 3, 4))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bruhat_leq_matches_reachability(n):
    reach = bruhat_reachable(n)
    for u in all_perms(n):
        reachable = reach[u]
        for w in all_perms(n):
            assert bruhat_leq(u, w) == (w in reachable), (u, w)


# rank fields are 4 bits wide in S_5..S_8 and 5 bits in S_9 and S_10
pair_of_perms = st.integers(min_value=6, max_value=10).flatmap(
    lambda n: st.tuples(perms_of(n), perms_of(n)))


@given(pair_of_perms)
def test_bruhat_leq_matches_sorted_prefixes(pair):
    u, w = pair
    assert bruhat_leq(u, w) == bruhat_leq_by_sorted_prefixes(u, w)
    assert bruhat_leq(w, u) == bruhat_leq_by_sorted_prefixes(w, u)
    assert bruhat_leq(u, u) and bruhat_leq(identity(len(u)), u)
    assert bruhat_leq(u, longest(len(u)))
    for v, _ in bruhat_covers(u):
        assert bruhat_leq(u, v) and not bruhat_leq(v, u)


def rank_perms(n):
    """All of S_n up to n = 6, and 200 seeded random permutations of S_7..S_12."""
    if n <= 6:
        return list(all_perms(n))
    rng = random.Random(n)
    return [tuple(rng.sample(range(1, n + 1), n)) for _ in range(200)]


# the fields widen from 4 to 5 bits at n = 9
@pytest.mark.parametrize("n", range(1, 13))
def test_rank_fields_are_the_rank_counts(n):
    width = (n - 1).bit_length() + 1  # a count up to n - 1 and a guard bit above it
    for w in rank_perms(n):
        r = _ranks.__wrapped__(w)  # uncached: the test leaves the bounded cache as it was
        for k in range(1, n):
            for i in range(2, n + 1):
                field = r >> width * ((n - 1) * (n - 1 - k) + n - i) & ((1 << width) - 1)
                assert field == sum(1 for a in range(k) if w[a] >= i), (w, k, i)
        assert r >> width * (n - 1) ** 2 == 0, w


def covers_below_by_oracle(p, w):
    """Every swap p*(i,j) that adds one inversion and lies below w by sorted prefixes, by (i, j)."""
    out = []
    for i in range(1, len(p)):
        for j in range(i + 1, len(p) + 1):
            v = p[:i - 1] + (p[j - 1],) + p[i:j - 1] + (p[i - 1],) + p[j:]
            if (inversion_count(v) == inversion_count(p) + 1
                    and bruhat_leq_by_sorted_prefixes(v, w)):
                out.append((i, j, v))
    return out


def test_covers_below_match_the_oracle_on_s4():
    # every ordered pair, p not below w included
    for p in all_perms(4):
        for w in all_perms(4):
            assert _covers_below(p, w) == covers_below_by_oracle(p, w), (p, w)


@settings(deadline=None)
@given(st.data())
def test_covers_below_match_the_oracle(data):
    n = data.draw(st.integers(min_value=5, max_value=8))
    p = w = data.draw(perms_of(n))
    if data.draw(st.booleans()):
        w = data.draw(perms_of(n))
    else:  # a climb from p, so that w is above p and some covers are kept
        for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
            edges = labeled_covers_by_sort(w)
            if not edges:
                break
            w = data.draw(st.sampled_from(edges))[1]
    assert _covers_below(p, w) == covers_below_by_oracle(p, w)


def test_bruhat_leq_rejects_a_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        bruhat_leq((1, 2, 3), (1, 2, 3, 4))
    with pytest.raises(ValueError, match="size mismatch"):
        bruhat_leq((2, 1), (1,))


def test_embed():
    assert embed((1, 3, 2), 5) == (1, 3, 2, 4, 5)
    assert embed((1, 3, 2), 3) == (1, 3, 2)
    assert length(embed((3, 1, 2), 7)) == length((3, 1, 2))
    with pytest.raises(ValueError):
        embed((1, 3, 2), 2)


def test_as_perm_rejects_junk():
    with pytest.raises(ValueError):
        as_perm((1, 1, 2))
    with pytest.raises(ValueError):
        as_perm((0, 1, 2))


def test_embed_all_raises_on_every_call():
    # the verdict cache keeps no failure, so a bad input raises each time
    for _ in range(3):
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3: \(1, 1, 2\)"):
            embed_all([(1, 3, 2), (1, 1, 2)])
    with pytest.raises(ValueError, match="cannot embed size 3 into smaller size 2"):
        embed_all([(2, 1, 3)], 2)
    with pytest.raises(ValueError, match="not a permutation"):
        embed_all([([1],)])  # an unhashable entry is checked uncached
    with pytest.raises(ValueError, match="not a permutation"):
        embed_all([([1], 2)])  # unhashable and unordered
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.2: \(1, 'a'\)"):
        as_perm((1, "a"))


def test_embed_all_takes_lists():
    assert embed_all([[2, 1], [1, 3, 2]]) == ([(2, 1, 3), (1, 3, 2)], 3)
    assert embed_all(([1],), 2) == ([(1, 2)], 2)


@pytest.mark.parametrize("first, second", [((1.0, 2.0), (1, 2)), ((1, 2), (1.0, 2.0)),
                                           ((True, 2), (1, 2))])
def test_embed_all_returns_what_the_caller_passed(first, second):
    # equal tuples share one cache entry, and it holds the canonical int tuple,
    # so the result does not depend on which of them reached the cache first
    _perm.cache_clear()
    for w in (first, second, first):
        (out,), n = embed_all([w], 2)
        assert out == (1, 2) and n == 2
        assert list(map(type, out)) == [int, int]
    (out,), _ = embed_all([first], 3)
    assert out == (1, 2, 3) and list(map(type, out)) == [int, int, int]


@given(st.data())
def test_embed_all_embeds_each_validated_permutation(data):
    ws = data.draw(st.lists(st.integers(1, 8).flatmap(perms_of), min_size=1, max_size=4))
    ws = [data.draw(st.sampled_from([w, list(w)])) for w in ws]
    n = data.draw(st.none() | st.integers(max(map(len, ws)), 10))
    size = max(map(len, ws)) if n is None else n
    assert embed_all(ws, n) == ([embed(as_perm(w), size) for w in ws], size)


@given(small_perms)
def test_inverse_and_compose(w):
    assert compose(w, inverse(w)) == identity(len(w))
    assert compose(inverse(w), w) == identity(len(w))


def test_perm_strings():
    assert perm_to_str((2, 1, 5, 4, 6, 3)) == "215463"
    assert perm_from_str("215463") == (2, 1, 5, 4, 6, 3)
    assert perm_from_str("2,1,5,4,6,3") == (2, 1, 5, 4, 6, 3)
    big = tuple(range(10, 0, -1))
    assert perm_from_str(perm_to_str(big)) == big
    assert "," in perm_to_str(big)
    with pytest.raises(ValueError):
        perm_from_str("11")  # digit form must be a permutation of 1..2
    with pytest.raises(ValueError):
        perm_from_str("")
