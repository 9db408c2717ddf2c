"""Ground-set core: stability predicate, enumeration, rotations and reflections, set text."""

import hashlib
import tracemalloc
from math import comb

import numpy as np
import pytest

from conftest import brute_force_stable
from schrijver import (
    CycleParams,
    ParameterError,
    SchrijverGraph,
    StableSet,
    enumerate_stable_sets,
    is_2_stable,
    parse_set_text,
    rotate,
    stable_count,
    stable_masks,
    stable_set,
)
from schrijver.cyclic import MAX_VERTICES, mask_of, members_of, reflect_mask, rol_mask, runs


def test_is_2_stable_examples():
    assert is_2_stable({1, 3, 5, 7}, CycleParams(10, 4))
    # n=8: the gap between 7 and 1 is still 2 on the cycle
    assert is_2_stable({1, 3, 5, 7}, CycleParams(8, 4))
    assert not is_2_stable({1, 2, 5, 7}, CycleParams(10, 4))
    assert not is_2_stable({1, 3, 5, 10}, CycleParams(10, 4))
    assert is_2_stable({2, 8, 10, 12, 15, 18, 20}, CycleParams(20, 7))


def test_is_2_stable_range_error():
    with pytest.raises(ParameterError):
        is_2_stable({0, 3}, CycleParams(10, 4))
    with pytest.raises(ParameterError):
        is_2_stable({1, 11}, CycleParams(10, 4))


def test_params_validation():
    with pytest.raises(ParameterError):
        CycleParams(65, 7)
    with pytest.raises(ParameterError):
        CycleParams(10, 0)
    with pytest.raises(ParameterError):
        CycleParams(1, 1)
    with pytest.raises(ParameterError):
        CycleParams(9, True)
    with pytest.raises(ParameterError):
        CycleParams(True, True)


def test_stable_set_validation():
    p = CycleParams(10, 4)
    with pytest.raises(ParameterError):
        stable_set([1, 3, 5], p)  # wrong size
    with pytest.raises(ParameterError):
        stable_set([1, 2, 5, 7], p)  # consecutive
    with pytest.raises(ParameterError):
        stable_set([1, 3, 5, 12], p)  # out of range
    with pytest.raises(ParameterError):
        stable_set([1, 1, 3, 5], p)  # duplicate
    s = stable_set([7, 1, 5, 3], p)
    assert s.members == (1, 3, 5, 7)


@pytest.mark.parametrize(
    "n,k,expected",
    [(7, 3, 7), (9, 4, 9), (10, 4, 25), (5, 3, 0), (8, 4, 2)],
)
def test_enumeration_counts(n, k, expected):
    vs = enumerate_stable_sets(CycleParams(n, k))
    assert len(vs) == expected
    assert [v.members for v in vs] == brute_force_stable(n, k)


def test_enumeration_is_lexicographic():
    vs = enumerate_stable_sets(CycleParams(12, 4))
    mems = [v.members for v in vs]
    assert mems == sorted(mems)
    assert len(set(mems)) == len(mems)


def test_stable_masks_match_brute_force():
    for n in range(2, 19):
        for k in range(1, n // 2 + 3):  # runs past n = 2k into empty graphs
            masks = stable_masks(CycleParams(n, k))
            assert masks.dtype == np.uint64
            expect = [mask_of(c) for c in sorted(brute_force_stable(n, k))]
            assert masks.tolist() == expect


def test_stable_masks_digest_past_brute_force():
    # n = 19..64, every cell up to 200 000 vertices (416 cells, one empty
    # cell past n = 2k each); the digest is that of the masks built by the
    # earlier memoised recursion over path segments
    digest = hashlib.sha256()
    for n in range(19, 65):
        for k in range(1, n // 2 + 2):
            params = CycleParams(n, k)
            if stable_count(params) > 200_000:
                continue
            masks = stable_masks(params)
            assert masks.dtype == np.uint64
            digest.update(f"{n},{k},{masks.size};".encode())
            digest.update(masks.astype("<u8").tobytes())
    assert digest.hexdigest() == "1c91e5b3386c0e8e401a03250628f6b7d2935201593731ebeb7064902356e7d5"


def test_stable_masks_count_to_word_cap():
    for k in range(1, 4):
        for n in range(2, 65):
            params = CycleParams(n, k)
            assert len(stable_masks(params)) == stable_count(params)


def test_vertex_count_cap_refuses_before_allocating():
    # SG(64,10) has 28 362 326 720 vertices: refused from its count alone
    assert stable_count(CycleParams(64, 5)) <= MAX_VERTICES < stable_count(CycleParams(64, 6))
    with pytest.raises(ParameterError, match="enumeration cap"):
        SchrijverGraph(CycleParams(64, 10))
    with pytest.raises(ParameterError, match="enumeration cap"):
        enumerate_stable_sets(CycleParams(64, 6))


@pytest.mark.parametrize("n,k", [(40, 6), (64, 3)])
def test_enumeration_peak_memory_stays_near_result(n, k):
    tracemalloc.start()
    try:
        masks = stable_masks(CycleParams(n, k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * masks.nbytes


@pytest.mark.parametrize("n,k", [(11, 4), (64, 2), (64, 31)])
def test_mask_arrays_rotate_and_reflect_like_ints(n, k):
    # n = 64 puts bit 63 in play on both sides of each shift
    masks = stable_masks(CycleParams(n, k))
    for image, scalar in [
        (reflect_mask(masks, n), lambda m: reflect_mask(m, n)),
        *((rol_mask(masks, shift, n), lambda m, s=shift: rol_mask(m, s, n)) for shift in (1, -1, 5)),
    ]:
        assert image.dtype == np.uint64
        assert image.tolist() == [scalar(m) for m in masks.tolist()]


def test_runs_and_reflect_mask_against_members():
    n = 11
    assert runs(0, n) == [] and runs((1 << n) - 1, n) == [(1, n)]
    for mask in stable_masks(CycleParams(n, 4)).tolist():
        members = members_of(mask)
        assert members_of(reflect_mask(mask, n)) == tuple(sorted((n - m + 1) % n + 1 for m in members))
        assert runs(mask, n) == [(m, 1) for m in members]
        gaps = runs(~mask & ((1 << n) - 1), n)
        assert [p for p, _ in gaps] == sorted(p for p, _ in gaps)
        assert all(mask >> (p - 2) % n & 1 for p, _ in gaps)  # maximal: preceded by a member
        covered = sorted((p + t - 1) % n + 1 for p, length in gaps for t in range(length))
        assert covered == sorted(set(range(1, n + 1)) - set(members))


def test_count_formula_against_brute_force():
    for k in range(1, 6):
        for n in range(2, 15):
            params = CycleParams(n, k)
            brute = len(brute_force_stable(n, k))
            assert stable_count(params) == brute
            assert len(enumerate_stable_sets(params)) == brute


def test_count_formula_closed_form():
    for k in range(2, 8):
        for n in range(2 * k, 27):
            assert stable_count(CycleParams(n, k)) == n * comb(n - k, k) // (n - k)


def test_rotate_examples():
    p = CycleParams(10, 4)
    s = stable_set([1, 3, 5, 7], p)
    assert rotate(s, 0).members == (1, 3, 5, 7)
    assert rotate(s, 1).members == (2, 4, 6, 8)
    assert rotate(s, 9).members == (2, 4, 6, 10)


def test_rotate_composition_and_invariance():
    p = CycleParams(11, 4)
    for s in enumerate_stable_sets(p):
        for a in (1, 3, 7):
            for b in (2, 5, 10):
                assert rotate(rotate(s, a), b) == rotate(s, (a + b) % p.n)
        # rotations and reflections preserve stability (constructor re-checks)
        StableSet(p, reflect_mask(rotate(s, 4).mask, p.n))


def test_set_text_parsing():
    assert parse_set_text("1,3,6,8") == (1, 3, 6, 8)
    assert str(stable_set([8, 1, 6, 3], CycleParams(10, 4))) == "1,3,6,8"
    with pytest.raises(ParameterError):
        parse_set_text("3,1,6")
    with pytest.raises(ParameterError):
        parse_set_text("1,3,3,8")
    with pytest.raises(ParameterError):
        parse_set_text("1,3,x")
    with pytest.raises(ParameterError):
        parse_set_text("")
    # text that int() would read: space, sign, underscore, non-ASCII digit
    for text in (" 1,3,5,7", "+1,3,5,7", "1,3,5,0_7", "\uff11,3,5,7", "1,3,5,7 "):
        with pytest.raises(ParameterError):
            parse_set_text(text)
    # ranges are checked once, by stable_set
    assert parse_set_text("1,3,12") == (1, 3, 12)
    with pytest.raises(ParameterError, match=r"^element 12 out of range 1\.\.10$"):
        stable_set(parse_set_text("1,3,12"), CycleParams(10, 3))
