import pytest
from hypothesis import given, settings, strategies as st

from tnnflag.perms import (
    Perm, Subexpression, Word, all_perms, bruhat_leq, bruhat_pairs, canonical_w0_word,
    gale_leq, identity, inverse, length, left_mult_s, longest_element,
    perm_from_str, perm_to_str,
    positive_distinguished_subexpression, right_mult_s,
)

from oracle_reference import is_positive_distinguished, perm_from_word

perms = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


@given(perms)
def test_inverse_involutive(w):
    assert inverse(inverse(w)) == w
    assert tuple(w[x - 1] for x in inverse(w)) == identity(len(w))


@given(perms)
def test_length_is_inversion_count(w):
    n = len(w)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    assert length(w) == inv


@given(perms, st.data())
def test_mult_s_changes_length_by_one(w, data):
    i = data.draw(st.integers(1, len(w) - 1))
    assert abs(length(right_mult_s(w, i)) - length(w)) == 1
    assert abs(length(left_mult_s(i, w)) - length(w)) == 1


def test_longest_element():
    assert longest_element(4) == (4, 3, 2, 1)
    assert length(longest_element(5)) == 10


def test_perm_str_roundtrip():
    assert perm_from_str("4213") == (4, 2, 1, 3)
    assert perm_from_str("4,2,1,3") == (4, 2, 1, 3)
    assert perm_to_str((4, 2, 1, 3)) == "4213"
    with pytest.raises(ValueError):
        perm_from_str("4211")


@given(perms)
def test_perm_str_parses_its_own_output(w):
    assert perm_from_str(perm_to_str(w)) == w


def test_bruhat_basics():
    n = 3
    e, w0 = identity(n), longest_element(n)
    for u in all_perms(n):
        assert bruhat_leq(e, u)
        assert bruhat_leq(u, w0)
    assert not bruhat_leq((2, 1, 3), (1, 3, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bruhat_pairs_lists_every_pair_in_order(n):
    ps = list(all_perms(n))
    assert bruhat_pairs(n) == [(v, w) for v in ps for w in ps
                               if bruhat_leq(v, w)]


@given(perms, perms)
def test_bruhat_implies_gale_on_prefixes(v, w):
    """v <= w forces every sorted prefix of v^-1 to be Gale-below w^-1's."""
    if len(v) != len(w) or not bruhat_leq(v, w):
        return
    vi, wi = inverse(v), inverse(w)
    for k in range(1, len(v)):
        assert gale_leq(tuple(sorted(vi[:k])), tuple(sorted(wi[:k])))


def test_canonical_word_runs():
    word = canonical_w0_word(4)
    assert word.letters == (1, 2, 3, 1, 2, 1)
    assert word.runs == (1, 1, 1, 2, 2, 3)
    assert perm_from_word(4, word.letters) == longest_element(4)


def test_pds_examples():
    word = canonical_w0_word(4)
    sub = positive_distinguished_subexpression((3, 2, 1, 4), word)
    assert sub.positions == (1, 2, 4)
    sub_w = positive_distinguished_subexpression((4, 2, 1, 3), word)
    assert sub_w.positions == (1, 3, 5, 6)
    assert sub_w.letters() == (1, 3, 2, 1)
    # v's subexpression lives inside w's word, not the canonical one
    w_word = Word(4, sub_w.letters(), sub_w.runs())
    sub_v = positive_distinguished_subexpression((1, 3, 2, 4), w_word)
    assert sub_v.positions == (3,)


def _pds_reference(target, parent):
    """``positive_distinguished_subexpression`` as it was, rebuilding the
    unmatched piece through ``left_mult_s`` at each chosen letter."""
    remaining = target
    positions = []
    for p, i in enumerate(parent.letters, start=1):
        if remaining.index(i) > remaining.index(i + 1):
            positions.append(p)
            remaining = left_mult_s(i, remaining)
    if remaining != identity(parent.n):
        raise ValueError("target is not below the parent word in Bruhat order")
    return Subexpression(parent, tuple(positions))


def test_pds_matches_reference_on_every_s3_to_s6_pair():
    """w in the canonical word, and v in w's word, for every v <= w."""
    for n in (3, 4, 5, 6):
        word = canonical_w0_word(n)
        w_words = {}
        for v, w in bruhat_pairs(n):
            if w not in w_words:
                w_sub = positive_distinguished_subexpression(w, word)
                assert w_sub == _pds_reference(w, word), w
                w_words[w] = Word(n, w_sub.letters(), w_sub.runs())
            assert positive_distinguished_subexpression(v, w_words[w]) == \
                _pds_reference(v, w_words[w]), (v, w)


def test_pds_keeps_its_error():
    word = canonical_w0_word(3)
    for target, parent in (((3, 2, 1), Word(3, (1, 2))),
                           ((1, 2, 3, 4), word)):
        with pytest.raises(ValueError, match="^target is not below the "
                           "parent word in Bruhat order$"):
            positive_distinguished_subexpression(target, parent)


@given(perms)
def test_pds_evaluates_to_target(w):
    sub = positive_distinguished_subexpression(w, canonical_w0_word(len(w)))
    assert perm_from_word(len(w), sub.letters()) == w
    assert len(sub.positions) == length(w)
    assert is_positive_distinguished(sub, w)


@settings(deadline=None)
@given(perms, perms)
def test_pds_nests_along_bruhat(v, w):
    if len(v) != len(w) or not bruhat_leq(v, w):
        return
    w_sub = positive_distinguished_subexpression(w, canonical_w0_word(len(w)))
    w_word = Word(len(w), w_sub.letters(), w_sub.runs())
    v_sub = positive_distinguished_subexpression(v, w_word)
    assert perm_from_word(len(v), v_sub.letters()) == v
    assert len(v_sub.positions) == length(v)


def test_word_replace_and_make_count_fields_not_letters():
    word = canonical_w0_word(4)
    assert len(word) == 6                   # letters, as callers expect
    bare = word._replace(runs=None)
    assert bare == Word(4, word.letters) and bare.runs is None
    assert len(bare) == 6
    assert Word._make((3, (1, 2), None)) == Word(3, (1, 2))
    with pytest.raises(TypeError, match="Expected 3 arguments, got 2"):
        Word._make((3, (1, 2)))
