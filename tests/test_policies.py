import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from replisim.core import ConfigError
from replisim.policies import (
    ALL,
    ONE,
    THREE,
    TWO,
    CountState,
    Policy,
    complies,
    each_quorum,
    enumerate_compliant_selections,
    is_appropriate,
    local_one,
    local_quorum,
    parse_policy,
    quorum,
    sufficient,
)
from test_core import make_cfg

HALF = Fraction(1, 2)


def counts_from(cfg, rid, per_dc):
    """CountState for a single-fragment relation, per_dc = {dc: responses}."""
    cs = CountState.zero(cfg, rid)
    for d, n in per_dc.items():
        cs = cs.add(d, (n,))
    return cs


# ---------------------------------------------------------------------------
# complies
# ---------------------------------------------------------------------------


def test_quorum_half_of_five():
    cfg = make_cfg(dcs=(1,), nodes=5, replication=5)
    c = cfg.candidates("x", 1)
    assert complies(c[:3], quorum(HALF), cfg, "x", 1)
    assert not complies(c[:2], quorum(HALF), cfg, "x", 1)


def test_all_means_every_candidate():
    cfg = make_cfg(nodes=2, replication=2)
    c = cfg.candidates("x", 1)
    assert complies(c, ALL, cfg, "x", 1)
    assert not complies(c[:-1], ALL, cfg, "x", 1)


def test_local_one_rejects_foreign_members():
    cfg = make_cfg(nodes=2, replication=2)
    assert complies([(1, 1)], local_one(1), cfg, "x", 1)
    assert not complies([(1, 1), (2, 1)], local_one(1), cfg, "x", 1)
    assert not complies([], local_one(1), cfg, "x", 1)


def test_selection_outside_candidates_rejected():
    cfg = make_cfg()
    with pytest.raises(ConfigError):
        complies([(1, 9)], ONE, cfg, "x", 1)


def test_unknown_policy_kind_refused():
    with pytest.raises(ConfigError, match="unknown policy kind"):
        Policy("MOST")


def test_quorum_fraction_bounds():
    with pytest.raises(ConfigError):
        Policy("QUORUM", q=Fraction(1))
    with pytest.raises(ConfigError):
        Policy("QUORUM", q=Fraction(0))


# ---------------------------------------------------------------------------
# sufficient
# ---------------------------------------------------------------------------


def test_sufficient_one_needs_a_response():
    cfg = make_cfg()
    assert not sufficient(counts_from(cfg, "x", {}), ONE, cfg, "x")
    assert sufficient(counts_from(cfg, "x", {1: 1}), ONE, cfg, "x")


def test_count_state_add_returns_the_successor():
    cfg = make_cfg(fragments=2, nodes=2, replication=2)
    zero = CountState.zero(cfg, "x")
    counts = zero.add(1, (2, 1))
    assert zero == CountState.zero(cfg, "x")
    assert counts.by_fragment_dc == {(1, 1): 2, (2, 1): 1, (1, 2): 0, (2, 2): 0}


def test_sufficient_all_needs_gamma_everywhere():
    cfg = make_cfg(fragments=2, nodes=2, replication=2)  # gamma = 4 per fragment
    cs = CountState.zero(cfg, "x").add(1, (2, 2)).add(2, (2, 2))
    assert sufficient(cs, ALL, cfg, "x")
    cs2 = CountState.zero(cfg, "x").add(1, (2, 2)).add(2, (2, 1))
    assert not sufficient(cs2, ALL, cfg, "x")


def test_sufficient_quorum_boundary_gamma_six():
    # gamma=6, q=1/2: brute enumeration of counts 0..6 says the threshold
    # sits between 3 and 4.
    cfg = make_cfg(dcs=(1,), nodes=6, replication=6)
    expected = {c: (6 * HALF < c) for c in range(7)}
    assert expected[3] is False and expected[4] is True
    for c, want in expected.items():
        assert sufficient(counts_from(cfg, "x", {1: c}), quorum(HALF), cfg, "x") == want


def test_sufficient_local_counts_only_named_dc():
    cfg = make_cfg(nodes=2, replication=2)  # delta = 2 per dc
    cs = counts_from(cfg, "x", {2: 2})
    assert sufficient(cs, local_quorum(HALF, 2), cfg, "x")
    assert not sufficient(cs, local_quorum(HALF, 1), cfg, "x")
    assert sufficient(cs, local_one(2), cfg, "x")
    assert not sufficient(cs, local_one(1), cfg, "x")


# ---------------------------------------------------------------------------
# appropriateness
# ---------------------------------------------------------------------------


def test_appropriate_combinations():
    assert is_appropriate(ONE, ALL)
    assert is_appropriate(ALL, ONE)
    assert is_appropriate(quorum(HALF), quorum(HALF))
    assert is_appropriate(each_quorum(HALF), quorum(HALF))
    assert is_appropriate(quorum(Fraction(2, 3)), each_quorum(Fraction(1, 3)))
    assert not is_appropriate(ONE, ONE)
    assert not is_appropriate(quorum(Fraction(1, 3)), quorum(HALF))
    assert not is_appropriate(TWO, quorum(HALF))


# ---------------------------------------------------------------------------
# selection enumeration
# ---------------------------------------------------------------------------


def test_three_with_two_candidates_is_unsatisfiable():
    cfg = make_cfg()
    assert enumerate_compliant_selections(cfg, "x", 1, THREE) == []


def test_one_enumerates_singletons_first():
    cfg = make_cfg(dcs=(1,), nodes=3, replication=3)
    sels = enumerate_compliant_selections(cfg, "x", 1, ONE)[:3]
    assert sels == [((1, 1),), ((1, 2),), ((1, 3),)]


def test_quorum_first_selection_is_minimal():
    cfg = make_cfg(dcs=(1,), nodes=5, replication=5)
    sels = enumerate_compliant_selections(cfg, "x", 1, quorum(HALF))[:1]
    assert len(sels) == 1 and len(sels[0]) == 3
    # cross-check against a brute-force subset filter
    candidates = cfg.candidates("x", 1)
    brute = [
        combo
        for size in range(1, 6)
        for combo in itertools.combinations(sorted(candidates), size)
        if complies(combo, quorum(HALF), cfg, "x", 1)
    ]
    assert sels[0] == brute[0]


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def _configs_up_to_six():
    layouts = [((1,), 1), ((1,), 2), ((1, 2), 1), ((1, 2), 2), ((1,), 5), ((1, 2), 3)]
    for dcs, repl in layouts:
        yield make_cfg(dcs=dcs, nodes=repl, replication=repl)


def _policies_for(cfg):
    yield ALL
    yield ONE
    yield TWO
    yield THREE
    yield quorum(HALF)
    yield quorum(Fraction(2, 3))
    yield each_quorum(HALF)
    for d in cfg.relation("x").data_centres:
        yield local_one(d)
        yield local_quorum(HALF, d)


def test_compliance_is_monotone_under_growth():
    for cfg in _configs_up_to_six():
        candidates = sorted(cfg.candidates("x", 1))
        subsets = [
            frozenset(c)
            for size in range(len(candidates) + 1)
            for c in itertools.combinations(candidates, size)
        ]
        for policy in _policies_for(cfg):
            local_dc = policy.dc if policy.kind.startswith("LOCAL") else None
            for g in subsets:
                if not complies(g, policy, cfg, "x", 1):
                    continue
                for g2 in subsets:
                    if not g <= g2:
                        continue
                    if local_dc is not None and any(d != local_dc for d, _ in g2):
                        continue
                    assert complies(g2, policy, cfg, "x", 1), (policy, g, g2)


def test_compliant_selection_counts_are_sufficient():
    # Feeding a compliant selection's cardinalities into the counters makes
    # the collection-time predicate true for the same policy.
    for cfg in _configs_up_to_six():
        for policy in _policies_for(cfg):
            for g in enumerate_compliant_selections(cfg, "x", 1, policy):
                cs = CountState.zero(cfg, "x")
                for d in cfg.relation("x").data_centres:
                    cs = cs.add(d, (sum(1 for (d2, _) in g if d2 == d),))
                assert sufficient(cs, policy, cfg, "x"), (policy, g)


def test_quorum_odd_candidates_need_strict_majority():
    for m in (1, 3, 5):
        cfg = make_cfg(dcs=(1,), nodes=max(m, 1), replication=m)
        candidates = sorted(cfg.candidates("x", 1))
        need = (m + 1 + 1) // 2  # ceil((m+1)/2)
        sizes = {
            len(g)
            for size in range(1, m + 1)
            for g in itertools.combinations(candidates, size)
            if complies(g, quorum(HALF), cfg, "x", 1)
        }
        assert min(sizes) == need


@given(st.integers(1, 6), st.integers(0, 6), st.fractions(min_value="1/6", max_value="5/6"))
def test_quorum_complies_matches_integer_arithmetic(total, chosen, q):
    chosen = min(chosen, total)
    cfg = make_cfg(dcs=(1,), nodes=max(total, 1), replication=total)
    g = sorted(cfg.candidates("x", 1))[:chosen]
    assert complies(g, quorum(q), cfg, "x", 1) == (q.numerator * total < q.denominator * chosen)


def test_parse_policy_spellings():
    assert parse_policy("ALL") == ALL
    assert parse_policy("one") == ONE
    assert parse_policy("QUORUM(1/2)") == quorum(HALF)
    assert parse_policy("EACH_QUORUM(2/3)") == each_quorum(Fraction(2, 3))
    assert parse_policy("LOCAL_ONE(2)") == local_one(2)
    assert parse_policy("LOCAL_QUORUM(1/2,1)") == local_quorum(HALF, 1)
    with pytest.raises(ConfigError):
        parse_policy("QUORUM(3/2)")
    with pytest.raises(ConfigError):
        parse_policy("SOME")


def test_policy_arguments_are_integers_in_ascii_digits():
    # a sign is a leading minus only, and spaces may stand around each argument
    assert parse_policy("LOCAL_QUORUM( 2/4 , 1 )") == local_quorum(HALF, 1)
    assert parse_policy("QUORUM(-1/-2)") == quorum(HALF)
    assert parse_policy("EACH_QUORUM(003/006)") == each_quorum(HALF)
    for text in ("LOCAL_ONE(\u0661)", "LOCAL_ONE(+1)", "QUORUM(\u0661/\u0662)", "QUORUM(1_0/2_0)",
                 "EACH_QUORUM(1/\uff12)", "LOCAL_QUORUM(1/2,1_0)", "QUORUM(0.5)", "QUORUM(1)",
                 "QUORUM(1/2/3)", "QUORUM(1 / 2)", "QUORUM(1/0)"):
        with pytest.raises(ConfigError, match="cannot parse policy"):
            parse_policy(text)
