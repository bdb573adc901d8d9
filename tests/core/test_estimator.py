"""Unit + property tests for the history estimators (paper formula)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.estimator import EstimatorRegistry, HistoryEstimator
from repro.errors import EstimateNotReadyError, QoSError
from repro.skeletons import (
    DivideAndConquer,
    Execute,
    For,
    Map,
    Merge,
    Seq,
    Split,
    While,
)


class TestHistoryEstimator:
    def test_not_ready_initially(self):
        est = HistoryEstimator()
        assert not est.ready
        with pytest.raises(EstimateNotReadyError):
            _ = est.value

    def test_first_observation_becomes_estimate(self):
        est = HistoryEstimator(rho=0.5)
        est.update(8.0)
        assert est.value == 8.0

    def test_paper_formula(self):
        est = HistoryEstimator(rho=0.5)
        est.update(10.0)
        est.update(20.0)
        # new = 0.5*20 + 0.5*10
        assert est.value == pytest.approx(15.0)

    def test_rho_one_tracks_last(self):
        est = HistoryEstimator(rho=1.0)
        for v in (3.0, 9.0, 1.0):
            est.update(v)
        assert est.value == 1.0

    def test_rho_zero_keeps_first(self):
        est = HistoryEstimator(rho=0.0)
        est.update(5.0)
        est.update(100.0)
        est.update(200.0)
        assert est.value == 5.0

    def test_initialize_warm_start(self):
        est = HistoryEstimator(rho=0.5)
        est.initialize(4.0)
        assert est.ready and est.initialized
        est.update(8.0)
        assert est.value == pytest.approx(6.0)  # blends with the init value

    def test_invalid_rho(self):
        with pytest.raises(QoSError):
            HistoryEstimator(rho=1.5)

    def test_peek(self):
        est = HistoryEstimator()
        assert est.peek() is None
        assert est.peek(default=7.0) == 7.0
        est.update(2.0)
        assert est.peek() == 2.0

    def test_observation_count(self):
        est = HistoryEstimator()
        est.update(1.0)
        est.update(2.0)
        assert est.observations == 2
        assert est.last_actual == 2.0

    @given(
        rho=st.floats(0.0, 1.0),
        values=st.lists(st.floats(0.1, 1000.0), min_size=1, max_size=30),
    )
    def test_property_convex_hull(self, rho, values):
        """The estimate always lies within [min, max] of the observations."""
        est = HistoryEstimator(rho=rho)
        for v in values:
            est.update(v)
        assert min(values) - 1e-9 <= est.value <= max(values) + 1e-9

    @given(values=st.lists(st.floats(0.1, 1000.0), min_size=2, max_size=30))
    def test_property_rho_one_equals_last(self, values):
        est = HistoryEstimator(rho=1.0)
        for v in values:
            est.update(v)
        assert est.value == pytest.approx(values[-1])

    @given(
        rho=st.floats(0.0, 1.0),
        constant=st.floats(0.1, 100.0),
        n=st.integers(1, 20),
    )
    def test_property_constant_input_fixed_point(self, rho, constant, n):
        """Feeding a constant keeps the estimate at that constant."""
        est = HistoryEstimator(rho=rho)
        for _ in range(n):
            est.update(constant)
        assert est.value == pytest.approx(constant)


class TestRegistry:
    def test_separate_estimators_per_muscle(self):
        reg = EstimatorRegistry()
        a = Execute(lambda v: v, name="a")
        b = Execute(lambda v: v, name="b")
        reg.observe_time(a, 1.0)
        reg.observe_time(b, 9.0)
        assert reg.t(a) == 1.0
        assert reg.t(b) == 9.0

    def test_card_estimators(self):
        reg = EstimatorRegistry()
        s = Split(lambda v: [v], name="s")
        reg.observe_card(s, 4)
        reg.observe_card(s, 8)
        assert reg.card(s) == pytest.approx(6.0)
        assert reg.card_int(s) == 6

    def test_card_int_ceils(self):
        reg = EstimatorRegistry(rho=0.5)
        s = Split(lambda v: [v], name="s")
        reg.observe_card(s, 2)
        reg.observe_card(s, 3)  # estimate 2.5
        assert reg.card_int(s) == 3

    def test_card_int_minimum_one(self):
        reg = EstimatorRegistry()
        s = Split(lambda v: [v], name="s")
        reg.observe_card(s, 0)
        assert reg.card_int(s) == 1
        assert reg.card_int_zero(s) == 0

    def test_negative_rejected(self):
        reg = EstimatorRegistry()
        m = Execute(lambda v: v)
        with pytest.raises(ValueError):
            reg.observe_time(m, -1.0)
        with pytest.raises(ValueError):
            reg.observe_card(Split(lambda v: [v]), -2)

    def test_invalid_rho(self):
        with pytest.raises(QoSError):
            EstimatorRegistry(rho=-0.1)


class TestReadiness:
    def make_map(self):
        fs = Split(lambda xs: [xs], name="fs")
        fe = Execute(lambda xs: xs, name="fe")
        fm = Merge(lambda rs: rs, name="fm")
        return Map(fs, Seq(fe), fm), fs, fe, fm

    def test_not_ready_until_all_observed(self):
        skel, fs, fe, fm = self.make_map()
        reg = EstimatorRegistry()
        assert not reg.ready_for(skel)
        reg.observe_time(fs, 1.0)
        reg.observe_card(fs, 2)
        reg.observe_time(fe, 1.0)
        assert not reg.ready_for(skel)  # fm missing
        reg.observe_time(fm, 1.0)
        assert reg.ready_for(skel)

    def test_split_needs_cardinality(self):
        skel, fs, fe, fm = self.make_map()
        reg = EstimatorRegistry()
        reg.observe_time(fs, 1.0)
        reg.observe_time(fe, 1.0)
        reg.observe_time(fm, 1.0)
        assert not reg.ready_for(skel)  # |fs| missing
        reg.observe_card(fs, 3)
        assert reg.ready_for(skel)

    def test_while_needs_condition_card(self):
        fc = lambda v: False
        skel = While(fc, Seq(lambda v: v))
        reg = EstimatorRegistry()
        reg.observe_time(skel.condition, 0.1)
        reg.observe_time(skel.subskel.execute, 0.1)
        assert not reg.ready_for(skel)
        reg.observe_card(skel.condition, 2)
        assert reg.ready_for(skel)

    def test_for_needs_no_cardinality(self):
        skel = For(3, Seq(Execute(lambda v: v, name="body")))
        reg = EstimatorRegistry()
        reg.observe_time(skel.subskel.execute, 0.5)
        assert reg.ready_for(skel)

    def test_dac_needs_both_cards(self):
        skel = DivideAndConquer(
            lambda v: False, lambda v: [v], Seq(lambda v: v), lambda rs: rs
        )
        reg = EstimatorRegistry()
        for m in skel.muscles():
            reg.observe_time(m, 0.1)
        assert not reg.ready_for(skel)
        reg.observe_card(skel.condition, 1)
        reg.observe_card(skel.split, 2)
        assert reg.ready_for(skel)

    def test_missing_for_lists_names(self):
        skel, fs, fe, fm = self.make_map()
        reg = EstimatorRegistry()
        missing = reg.missing_for(skel)
        assert any("fs" in m for m in missing)
        assert any(m.startswith("|") for m in missing) or len(missing) == 4

    def test_warm_initialization_makes_ready(self):
        skel, fs, fe, fm = self.make_map()
        reg = EstimatorRegistry()
        reg.time_estimator(fs).initialize(1.0)
        reg.card_estimator(fs).initialize(2.0)
        reg.time_estimator(fe).initialize(1.0)
        reg.time_estimator(fm).initialize(1.0)
        assert reg.ready_for(skel)

    def test_verdict_follows_direct_initialization_between_asks(self):
        # Estimators handed out by time_estimator()/card_estimator() can
        # be warmed directly, without a version bump; the remembered
        # verdict must still turn true as soon as the last one is warm.
        skel, fs, fe, fm = self.make_map()
        reg = EstimatorRegistry()
        version = reg.version
        steps = [
            lambda: reg.time_estimator(fm).initialize(1.0),
            lambda: reg.time_estimator(fs).initialize(1.0),
            lambda: reg.card_estimator(fs).initialize(2.0),
            lambda: reg.time_estimator(fe).initialize(1.0),
        ]
        for step in steps:
            assert not reg.ready_for(skel)
            step()
        assert reg.version == version
        assert reg.ready_for(skel)
        assert reg.ready_for(skel)
        assert reg.missing_for(skel) == []

    def test_verdicts_are_per_skeleton(self):
        skel, fs, fe, fm = self.make_map()
        leaf = Seq(fe)
        reg = EstimatorRegistry()
        reg.observe_time(fe, 1.0)
        assert reg.ready_for(leaf)
        assert not reg.ready_for(skel)
        assert EstimatorRegistry().ready_for(leaf) is False


class TestStructureMemo:
    def test_muscles_are_walked_once_and_handed_out_as_copies(self):
        fs = Split(lambda xs: [xs], name="fs")
        fe = Execute(lambda xs: xs, name="fe")
        fm = Merge(lambda rs: rs, name="fm")
        skel = Map(fs, Seq(fe), fm)
        first = skel.muscles()
        assert [m.name for m in first] == ["fs", "fm", "fe"]
        first.clear()
        assert [m.name for m in skel.muscles()] == ["fs", "fm", "fe"]
        assert skel._muscle_memo is not None

    def test_required_cards_memoized_per_node(self):
        fs = Split(lambda xs: [xs], name="fs")
        inner = Map(
            Split(lambda xs: [xs], name="is"),
            Seq(Execute(lambda xs: xs, name="fe")),
            Merge(lambda rs: rs, name="im"),
        )
        skel = Map(fs, inner, Merge(lambda rs: rs, name="fm"))
        cards = EstimatorRegistry.required_cards(skel)
        assert [m.name for m in cards] == ["fs", "is"]
        assert EstimatorRegistry.required_cards(skel) is cards
        assert [m.name for m in EstimatorRegistry.required_cards(inner)] == ["is"]
