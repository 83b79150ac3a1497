import numpy as np
import pytest

from soficlab import constraints, groups
from soficlab.constraints import (
    ConstraintStructure,
    Pattern,
    Verdict,
    check_tssm,
    checkerboard,
    core_symbols,
    detect_safe_symbol,
    full_shift,
    hardcore,
    is_globally_admissible,
    is_locally_admissible,
)

Z1, Z2 = groups.zd(1), groups.zd(2)
HC, HC_POT = hardcore(1, 1.0)
CB = checkerboard(1)


def test_safe_symbol_detection():
    assert detect_safe_symbol(HC) == 0
    assert detect_safe_symbol(CB) is None
    assert detect_safe_symbol(full_shift(3, 2)) == 0


def test_local_admissibility():
    assert not is_locally_admissible(HC, Z1, Pattern(((0,), (1,)), (1, 1)))
    assert is_locally_admissible(HC, Z1, Pattern(((0,), (2,)), (1, 1)))  # no edge
    assert is_locally_admissible(CB, Z1, Pattern(((0,), (1,), (2,)), (0, 1, 0)))


def test_global_admissibility_safe_symbol():
    assert is_globally_admissible(HC, Z1, Pattern(((0,), (1,)), (1, 0)), pad=0) == Verdict.YES
    assert is_globally_admissible(HC, Z1, Pattern(((0,), (1,)), (1, 1)), pad=0) == Verdict.NO


def test_global_admissibility_checkerboard():
    no = Pattern(((0,), (2,)), (0, 1))
    yes = Pattern(((0,), (2,)), (0, 0))
    assert is_globally_admissible(CB, Z1, no, pad=2) == Verdict.NO
    assert is_globally_admissible(CB, Z1, yes, pad=2) == Verdict.YES


def test_global_admissibility_unknown_on_plane():
    cb2 = checkerboard(2)
    pat = Pattern(((0, 0), (1, 1)), (0, 0))
    assert is_globally_admissible(cb2, Z2, pat, pad=1) == Verdict.UNKNOWN_AT_PAD


def test_core_symbols():
    assert core_symbols(HC) == (0, 1)
    assert core_symbols(CB) == (0, 1)
    # symbol 2 glued to nothing on the right becomes non-core
    allowed = np.ones((1, 3, 3), dtype=bool)
    allowed[0, 2, :] = False
    st = ConstraintStructure(3, allowed)
    assert core_symbols(st) == (0, 1)


def test_tssm_verdicts():
    assert check_tssm(HC, Z1).kind == "safe_symbol"
    assert check_tssm(full_shift(2, 2), Z2).kind == "safe_symbol"
    v = check_tssm(CB, Z1, m=1, radius=2, k_max=2)
    assert v.kind == "violated"
    # replay: windows admissible but the full witness is not
    w = v.witness
    assert is_globally_admissible(CB, Z1, w, pad=3) == Verdict.NO
    for g, val in zip(w.sites, w.values):
        assert is_globally_admissible(CB, Z1, Pattern((g,), (val,)), pad=3) == Verdict.YES


def test_tssm_budget_partial(monkeypatch):
    monkeypatch.setattr(constraints, "TSSM_MAX_ASSIGNMENTS", 1)
    v = check_tssm(CB, Z1, m=1, radius=2, k_max=2)
    assert v.kind == "holds_up_to" and not v.complete


def test_consistency_lemma_instance():
    """One-symbol extension consistency for a TSSM structure: wa admissible
    iff w and (w restricted near identity)a admissible."""
    rng = np.random.default_rng(4)
    st, _ = hardcore(2, 1.0)
    b2 = groups.ball(Z2, 2).elements
    mm = set(groups.ball(Z2, 2).elements)
    ident = groups.identity(Z2)
    for _ in range(200):
        sites = [g for g in b2 if g != ident and rng.random() < 0.4]
        if not sites:
            continue
        values = tuple(int(rng.integers(0, 2)) for _ in sites)
        a = int(rng.integers(0, 2))
        w = Pattern(tuple(sites), values)
        wa = Pattern(tuple(sites) + (ident,), values + (a,))
        near = [i for i, g in enumerate(sites) if g in mm]
        w_near_a = Pattern(
            tuple(sites[i] for i in near) + (ident,), tuple(values[i] for i in near) + (a,)
        )
        lhs = is_globally_admissible(st, Z2, wa, pad=0) == Verdict.YES
        rhs = (
            is_globally_admissible(st, Z2, w, pad=0) == Verdict.YES
            and is_globally_admissible(st, Z2, w_near_a, pad=0) == Verdict.YES
        )
        assert lhs == rhs


def test_empty_relation_rejected():
    allowed = np.zeros((1, 2, 2), dtype=bool)
    with pytest.raises(ValueError):
        ConstraintStructure(2, allowed)


def test_safe_symbol_soundness():
    """With a safe symbol, every locally admissible pattern is globally
    admissible at pad 0."""
    rng = np.random.default_rng(12)
    st, _ = hardcore(2, 1.0)
    b2 = groups.ball(Z2, 2).elements
    checked = 0
    while checked < 300:
        sites = tuple(g for g in b2 if rng.random() < 0.45)
        if not sites:
            continue
        values = tuple(int(rng.integers(0, 2)) for _ in sites)
        pat = Pattern(sites, values)
        if not is_locally_admissible(st, Z2, pat):
            continue
        checked += 1
        assert is_globally_admissible(st, Z2, pat, pad=0) == Verdict.YES
