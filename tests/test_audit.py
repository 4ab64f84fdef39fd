import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplingkit import (
    Alphabet,
    DistributionError,
    EpsilonAuditInput,
    Pmf,
    TransportProblem,
    certify,
    coupling_independent,
    coupling_maximal,
    epsilon_audit,
    example4_report,
    lp_min_mismatch,
    mismatch_certificate,
    mismatch_prob,
    vdist_halfsum,
)
from couplingkit.cli import main
from couplingkit.transport import certify_mismatch_coupling

from . import fraction_reference as reference
from .conftest import pmf_batch, random_pmf

F = Fraction


class TestUniformKeyReport:
    @pytest.mark.parametrize("n,expected", [(2, F(1, 2)), (3, F(2, 3)), (4, F(3, 4))])
    def test_small_sizes(self, n, expected):
        report = example4_report(n)
        assert report.v == F(0)
        assert report.independent_mismatch == expected
        assert report.maximal_mismatch == F(0)
        assert report.oracle_min_mismatch == F(0)

    def test_large_size_closed_form_vs_matrix(self):
        n = 256
        report = example4_report(n)
        assert report.independent_mismatch == 1 - F(1, n)
        # recompute through the full product matrix as a second route
        u = Pmf.uniform(Alphabet.of_size(n))
        assert mismatch_prob(coupling_independent(u, u)) == 1 - F(1, n)

    def test_flags(self):
        report = example4_report(4)
        assert report.interior_hypothesis
        assert report.strict_gap_holds
        assert report.fact_maximal_requires_correlation
        assert report.fact_lower_bound_over_all_couplings
        assert report.fact_independent_strict_gap
        assert not report.degenerate_key
        assert report.epsilon is None and report.epsilon_consistent is None

    def test_too_small(self):
        with pytest.raises(DistributionError):
            example4_report(1)


class TestEpsilonAudit:
    def test_worked_pair_with_epsilon(self, ramp):
        report = epsilon_audit(EpsilonAuditInput(pk=ramp, epsilon=F(1, 4)))
        assert report.v == F(1, 5)
        assert report.independent_mismatch == F(3, 4)
        assert report.maximal_mismatch == F(1, 5)
        assert report.oracle_min_mismatch == F(1, 5)
        assert report.strict_gap_holds
        assert report.epsilon_consistent is True

    def test_uniform_key_reduces_to_closed_form(self):
        pk = Pmf.uniform(Alphabet.of_size(6))
        report = epsilon_audit(EpsilonAuditInput(pk=pk))
        assert report.v == F(0)
        assert report.independent_mismatch == F(5, 6)

    def test_point_mass_key_is_degenerate(self):
        pk = Pmf.point_mass(Alphabet.of_size(4), "1")
        report = epsilon_audit(EpsilonAuditInput(pk=pk))
        assert report.degenerate_key
        assert not report.interior_hypothesis
        assert not report.strict_gap_holds
        # independence attains the bound here, so no correlation is needed
        assert report.v == report.independent_mismatch == F(3, 4)
        assert not report.fact_maximal_requires_correlation
        assert not report.fact_independent_strict_gap
        assert report.fact_lower_bound_over_all_couplings
        assert any("cannot serve as a secret key" in note for note in report.notes)

    def test_epsilon_below_v_is_flagged(self, ramp):
        report = epsilon_audit(EpsilonAuditInput(pk=ramp, epsilon=F(1, 10)))
        assert report.epsilon_consistent is False
        assert any("inconsistent" in note for note in report.notes)

    def test_epsilon_out_of_range(self, ramp):
        with pytest.raises(DistributionError):
            EpsilonAuditInput(pk=ramp, epsilon=F(3, 2))

    def test_single_symbol_alphabet(self):
        pk = Pmf(Alphabet(["k"]), (F(1),))
        report = epsilon_audit(EpsilonAuditInput(pk=pk))
        assert report.v == F(0)
        assert report.independent_mismatch == F(0)
        assert not report.interior_hypothesis
        assert not report.fact_maximal_requires_correlation

    def test_invariant_chain_on_random_keys(self):
        rng = random.Random(2718)
        for _ in range(50):
            pk = random_pmf(rng, rng.randint(1, 6))
            report = epsilon_audit(EpsilonAuditInput(pk=pk))
            assert (
                report.v
                == report.maximal_mismatch
                == report.oracle_min_mismatch
                <= report.independent_mismatch
            )
            if report.interior_hypothesis:
                assert report.v < report.independent_mismatch

    def test_never_equates_epsilon_with_mismatch(self, ramp):
        report = epsilon_audit(EpsilonAuditInput(pk=ramp, epsilon=F(1, 4)))
        assert any("lower" in note or "minimum" in note for note in report.notes)


class TestReportSerialization:
    def test_json_dict_shape(self, ramp):
        report = epsilon_audit(EpsilonAuditInput(pk=ramp, epsilon=F(1, 4)))
        obj = report.to_json_dict()
        assert obj["v"] == "1/5"
        assert obj["independentMismatch"] == "3/4"
        assert obj["maximalMismatch"] == "1/5"
        assert obj["oracleMinMismatch"] == "1/5"
        assert obj["strictGapHolds"] is True
        assert obj["verdictFacts"] == {
            "maximalRequiresCorrelation": True,
            "lowerBoundOverAllCouplings": True,
            "independentStrictGap": True,
        }
        assert obj["epsilon"] == "1/4"
        assert obj["epsilonConsistent"] is True

    def test_json_dict_without_epsilon(self):
        obj = example4_report(2).to_json_dict()
        assert obj["epsilon"] is None and obj["epsilonConsistent"] is None

    def test_render_table_contains_quantities(self, ramp):
        text = epsilon_audit(EpsilonAuditInput(pk=ramp, epsilon=F(1, 4))).render_table()
        assert "1/5 (0.20000)" in text
        assert "3/4 (0.75000)" in text
        assert "consistent (v <= epsilon): True" in text


def _pmf(weights) -> Pmf:
    total = sum(weights)
    return Pmf(Alphabet.of_size(len(weights)), tuple(F(w, total) for w in weights))


class TestAgainstDenseRoute:
    """The O(N) audit against N x N couplings, the simplex and dense certify."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            pmf_batch(1, min_n=1, max_n=64, max_weight=6),
            pmf_batch(1, min_n=1, max_n=64, max_weight=2000),
        ).map(lambda batch: batch[0])
    )
    @example(_pmf([1]))
    @example(_pmf([0, 0, 1, 0, 0]))
    @example(_pmf([1] * 64))
    @example(_pmf([0, 3, 0, 1] * 16))
    def test_every_field_matches_dense(self, pk):
        report = epsilon_audit(EpsilonAuditInput(pk=pk))
        pu = Pmf.uniform(pk.alphabet)
        tp = TransportProblem.mismatch(pk, pu)
        maximal = coupling_maximal(pk, pu)
        optimal, lp_cert = lp_min_mismatch(pk, pu)
        v = vdist_halfsum(pk, pu)

        assert report.v == v
        assert report.independent_mismatch == mismatch_prob(coupling_independent(pk, pu))
        assert report.maximal_mismatch == mismatch_prob(maximal)
        assert report.oracle_min_mismatch == lp_cert.objective
        assert report.fact_lower_bound_over_all_couplings == (
            certify(optimal, lp_cert, tp) and lp_cert.objective == v
        )
        assert report.fact_lower_bound_over_all_couplings

        closed_form = mismatch_certificate(pk, pu)
        assert certify(maximal, closed_form, tp)
        assert certify_mismatch_coupling(maximal, closed_form)
        assert reference.certify_mismatch(maximal.diagonal(), closed_form, pk, pu)
        # and the O(N) check accepts the simplex's own optimum and potentials
        assert certify_mismatch_coupling(optimal, lp_cert)
        assert reference.certify_mismatch(optimal.diagonal(), lp_cert, pk, pu)


def test_cli_audit_of_a_65536_symbol_key(tmp_path, capsys):
    """The O(N) audit through ``cli.main``, parsing included, on a 2^16-symbol key.

    v is recomputed here from the integer weights alone:
    v = sum |N w_a - T| / (2 N T) for weights w summing to T.
    """
    n = 2**16
    rng = random.Random(65536)
    weights = [rng.randint(300, 340) for _ in range(n)]
    total = sum(weights)
    path = tmp_path / "pk.json"
    path.write_text(
        json.dumps({"alphabet": [f"k{i}" for i in range(n)], "p": [f"{w}/{total}" for w in weights]}),
        encoding="utf-8",
    )
    assert main(["audit", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    v = F(sum(abs(n * w - total) for w in weights), 2 * n * total)
    assert 0 < v < F(1, 10)
    assert F(report["v"]) == F(report["maximalMismatch"]) == F(report["oracleMinMismatch"]) == v
    assert F(report["independentMismatch"]) == 1 - F(1, n)
