import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfl.relations import (Correspondence, order_flags, preorder_quotient,
                           reflexive_transitive_closure)


def corr(dst, src, pairs):
    return Correspondence.from_pairs(dst, src, pairs)


def test_single_chain_composition():
    r = corr(1, 1, [(0, 0)])
    s = corr(1, 2, [(0, 0), (0, 1)])
    assert sorted((r @ s).pairs()) == [(0, 0), (0, 1)]


def test_identity_is_two_sided():
    s = corr(2, 3, [(0, 0), (1, 2), (0, 1)])
    assert Correspondence.identity(2) @ s == s
    assert s @ Correspondence.identity(3) == s


def test_reflexive_transitive_relations_are_idempotent():
    # brute-force over all relations on two points: exactly the preorders
    # satisfy RR = R together with reflexivity
    for rows in itertools.product(range(4), repeat=2):
        r = Correspondence(2, 2, rows)
        flags = order_flags(r)
        if flags.is_preorder:
            assert r @ r == r


def test_composition_shape_mismatch():
    with pytest.raises(ValueError):
        corr(2, 2, []).compose(corr(3, 2, []))


def test_opposite_examples():
    assert corr(2, 2, [(1, 0)]).opposite() == corr(2, 2, [(0, 1)])
    d = Correspondence.identity(3)
    assert d.opposite() == d
    r = corr(3, 2, [(0, 1), (2, 0)])
    assert r.opposite().opposite() == r


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_opposite_antihomomorphism(data):
    z, y, x = (data.draw(st.integers(1, 5)) for _ in range(3))
    r = Correspondence(z, y, [data.draw(st.integers(0, (1 << y) - 1)) for _ in range(z)])
    s = Correspondence(y, x, [data.draw(st.integers(0, (1 << x) - 1)) for _ in range(y)])
    assert (r @ s).opposite() == s.opposite() @ r.opposite()


def _same_as_validated(r):
    built = Correspondence(r.dst_size, r.src_size, r.rows)
    assert type(r.rows) is tuple
    assert r == built and hash(r) == hash(built)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derived_relations_equal_validated_ones(data):
    # compose, opposite, |, & and the closure build their results unchecked
    def draw(dst, src):
        return Correspondence(dst, src,
                              [data.draw(st.integers(0, (1 << src) - 1)) for _ in range(dst)])

    z, y, x = (data.draw(st.integers(0, 5)) for _ in range(3))
    r, r2, s = draw(z, y), draw(z, y), draw(y, x)
    for derived in (r @ s, r.opposite(), r | r2, r & r2,
                    reflexive_transitive_closure(draw(y, y))):
        _same_as_validated(derived)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_composition_associative(data):
    sizes = [data.draw(st.integers(1, 4)) for _ in range(4)]
    mats = []
    for dst, src in zip(sizes, sizes[1:]):
        mats.append(Correspondence(
            dst, src, [data.draw(st.integers(0, (1 << src) - 1)) for _ in range(dst)]))
    r, s, t = mats
    assert (r @ s) @ t == r @ (s @ t)


def test_order_flags_examples():
    assert order_flags(Correspondence.identity(2)).is_order
    full = Correspondence.full(2, 2)
    flags = order_flags(full)
    assert flags.reflexive and flags.transitive and not flags.antisymmetric
    with pytest.raises(ValueError):
        order_flags(Correspondence.empty(2, 3))


def test_order_flags_against_brute_force_scan():
    # all 512 relations on three points
    for rows in itertools.product(range(8), repeat=3):
        r = Correspondence(3, 3, rows)
        flags = order_flags(r)
        pairs = set(r.pairs())
        refl = all((a, a) in pairs for a in range(3))
        trans = all((a, c) in pairs for (a, b) in pairs for (b2, c) in pairs if b == b2)
        anti = not any(a != b and (b, a) in pairs for (a, b) in pairs)
        assert (flags.reflexive, flags.transitive, flags.antisymmetric) == \
            (refl, trans, anti)


def test_order_meets_opposite_in_diagonal():
    r = corr(3, 3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    assert order_flags(r).is_order
    assert r & r.opposite() == Correspondence.identity(3)
    assert r @ r == r


def test_preorder_quotient_full_relation():
    quo, proj = preorder_quotient(Correspondence.full(2, 2))
    assert quo == Correspondence.identity(1)
    assert proj == (0, 0)


def test_preorder_quotient_of_an_order_is_trivial():
    r = corr(3, 3, [(0, 0), (1, 1), (2, 2), (0, 1)])
    quo, proj = preorder_quotient(r)
    assert quo == r
    assert proj == (0, 1, 2)


def test_preorder_quotient_three_cycle():
    pre = reflexive_transitive_closure(corr(3, 3, [(0, 1), (1, 2), (2, 0)]))
    quo, proj = preorder_quotient(pre)
    assert quo.dst_size == 1
    assert proj == (0, 0, 0)


def test_preorder_quotient_rejects_non_preorder():
    with pytest.raises(ValueError):
        preorder_quotient(corr(2, 2, [(0, 1)]))


def test_quotient_projection_compatibility():
    pre = reflexive_transitive_closure(corr(4, 4, [(0, 1), (1, 0), (1, 2), (3, 3)]))
    quo, proj = preorder_quotient(pre)
    for x in range(4):
        for y in range(4):
            assert ((x, y) in pre) == ((proj[x], proj[y]) in quo)
