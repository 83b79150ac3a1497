import pytest
from hypothesis import given, settings, strategies as st

from soficlab import groups

from oracles import bfs_ball_count, free_ball_closed_form, free_neighbors, zd_neighbors
from reference import grow_ball_by_letters

Z1, Z2, Z3 = groups.zd(1), groups.zd(2), groups.zd(3)
F2, F3 = groups.free(2), groups.free(3)


def test_identities():
    assert groups.identity(Z2) == (0, 0)
    assert groups.identity(F2) == ()
    assert groups.identity(Z1) == (0,)


def test_mul_basics():
    assert groups.mul(Z2, (1, 0), (0, 1)) == (1, 1)
    a, ainv = (1,), (-1,)
    assert groups.mul(F2, a, ainv) == ()
    # (ab)(b^-1 a) = aa
    assert groups.mul(F2, (1, 2), (-2, 1)) == (1, 1)


def test_word_lengths():
    assert groups.word_length(Z2, (2, -1)) == 3
    assert groups.word_length(F2, (1, 2, -1)) == 3
    assert groups.word_length(F2, groups.identity(F2)) == 0


@pytest.mark.parametrize("spec,neigh", [(Z1, zd_neighbors(1)), (Z2, zd_neighbors(2)),
                                        (Z3, zd_neighbors(3)), (F2, free_neighbors(2)),
                                        (F3, free_neighbors(3))])
def test_ball_sizes_against_bfs(spec, neigh):
    rmax = 6 if spec.kind == "free" else (8 if spec.rank < 3 else 5)
    if spec == F3:
        rmax = 4
    for r in range(rmax + 1):
        assert len(groups.ball(spec, r)) == bfs_ball_count(neigh, groups.identity(spec), r)


@pytest.mark.parametrize("k", [2, 3])
def test_free_ball_closed_form(k):
    spec = groups.free(k)
    for r in range(5):
        assert len(groups.ball(spec, r)) == free_ball_closed_form(k, r)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zd_ball_closed_form(d):
    from oracles import zd_ball_closed_form

    spec = groups.zd(d)
    rmax = 8 if d < 3 else 6
    for r in range(rmax + 1):
        assert len(groups.ball(spec, r)) == zd_ball_closed_form(d, r)


def test_specific_ball_sizes():
    assert len(groups.ball(Z2, 1)) == 5
    assert len(groups.ball(F2, 2)) == 17
    b = groups.ball(Z1, 3)
    assert len(b) == 7
    assert set(b.elements) == {(i,) for i in range(-3, 4)}


def test_exhaustion_nesting():
    for spec in (Z1, Z2, F2):
        for r in range(4):
            small = groups.ball(spec, r).elements
            assert groups.ball(spec, r + 1).elements[: len(small)] == small


def _element(spec, data):
    g = groups.identity(spec)
    for letter in data:
        g = groups.apply_letter(spec, letter, g)
    return g


letters_st = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8)


@settings(max_examples=200, deadline=None)
@given(letters_st, letters_st, letters_st)
def test_group_axioms_z2(a, b, c):
    ga, gb, gc = (_element(Z2, x) for x in (a, b, c))
    assert groups.mul(Z2, groups.mul(Z2, ga, gb), gc) == groups.mul(Z2, ga, groups.mul(Z2, gb, gc))
    assert groups.mul(Z2, ga, groups.inv(Z2, ga)) == groups.identity(Z2)
    assert groups.mul(Z2, ga, groups.identity(Z2)) == ga


@settings(max_examples=200, deadline=None)
@given(letters_st, letters_st, letters_st)
def test_group_axioms_f2(a, b, c):
    ga, gb, gc = (_element(F2, x) for x in (a, b, c))
    assert groups.mul(F2, groups.mul(F2, ga, gb), gc) == groups.mul(F2, ga, groups.mul(F2, gb, gc))
    assert groups.mul(F2, ga, groups.inv(F2, ga)) == groups.identity(F2)
    # reduced-word invariant: no adjacent cancelling letters
    w = groups.mul(F2, ga, gb)
    assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))


@settings(max_examples=100, deadline=None)
@given(letters_st, letters_st)
def test_triangle_inequality(a, b):
    for spec in (Z2, F2):
        ga, gb = _element(spec, a), _element(spec, b)
        ab = groups.mul(spec, ga, gb)
        assert groups.word_length(spec, ab) <= groups.word_length(spec, ga) + groups.word_length(spec, gb)


def _ball_from_scratch(spec, r):
    """(elements, index, edges, shell sizes) of B_r by a breadth-first search
    through `groups.mul`, each shell sorted, and every edge (i, s, j) with
    s.g_i = g_j in (i, s) order."""
    letters = [groups.generator(spec, s) for s in range(spec.rank)]
    letters += [groups.inv(spec, x) for x in letters]
    shells = [[groups.identity(spec)]]
    seen = set(shells[0])
    for _ in range(r):
        shell = {groups.mul(spec, x, g) for g in shells[-1] for x in letters} - seen
        seen |= shell
        shells.append(sorted(shell))
    elements = tuple(g for shell in shells for g in shell)
    index = {g: i for i, g in enumerate(elements)}
    edges = tuple((i, s, index[h]) for i, g in enumerate(elements) for s in range(spec.rank)
                  if (h := groups.mul(spec, letters[s], g)) in index)
    return elements, index, edges, tuple(len(shell) for shell in shells)


@pytest.mark.parametrize("spec,rmax", [(Z1, 6), (Z2, 6), (groups.free(1), 6), (F2, 5), (F3, 4)])
def test_ball_grown_by_shells_is_the_ball_built_from_scratch(spec, rmax, monkeypatch):
    """Each ball, whether grown one shell at a time, asked for cold or cut
    from a larger kept ball, has the elements, index, edges and shell sizes
    of a from-scratch build.  A cold ball keeps none of the balls it grew
    through, and a smaller ball asked for after it is cut, not regrown."""
    groups.ball.cache_clear()
    grown = [groups.ball(spec, r) for r in range(rmax + 1)]
    groups.ball.cache_clear()
    cold = groups.ball(spec, rmax)
    assert list(groups._BALLS) == [(spec, rmax)]
    monkeypatch.setattr(groups, "_next_ball", lambda *args: pytest.fail("a ball inside a kept ball was regrown"))
    cut = [groups.ball(spec, r) for r in range(rmax)]
    assert [b.radius for b in grown + cut] == [*range(rmax + 1), *range(rmax)]
    for b in grown + cut:
        assert (b.elements, b.index, b.edges, b.shell_sizes) == _ball_from_scratch(spec, b.radius)
    assert (cold.elements, cold.edges, cold.shell_sizes) == (grown[-1].elements, grown[-1].edges,
                                                              grown[-1].shell_sizes)


@pytest.mark.parametrize("spec, rmax", [(groups.free(k), 5) for k in (1, 2, 3)] + [(groups.zd(d), 4) for d in (1, 2, 3)])
def test_next_ball_is_the_ball_grown_by_letters(spec, rmax):
    """Each shell grown by `_next_ball` (from reduced words on F_k) gives
    the ball that the letter-by-letter growth gives: equal elements, index
    in the same order, edges and shell sizes."""
    e = groups.identity(spec)
    grown = expect = groups.CayleyBall(spec=spec, radius=0, elements=(e,), index={e: 0}, edges=(), shell_sizes=(1,))
    for r in range(1, rmax + 1):
        grown, expect = groups._next_ball(grown, groups.BALL_CAP), grow_ball_by_letters(expect, groups.BALL_CAP)
        assert grown.radius == expect.radius == r
        assert (grown.elements, list(grown.index.items()), grown.edges, grown.shell_sizes) == (
            expect.elements, list(expect.index.items()), expect.edges, expect.shell_sizes)


def test_ball_cap(monkeypatch):
    monkeypatch.setattr(groups, "BALL_CAP", 10)
    groups.ball.cache_clear()
    from soficlab.errors import CapExceededError

    with pytest.raises(CapExceededError):
        groups.ball(Z2, 3)
    monkeypatch.undo()
    groups.ball.cache_clear()
