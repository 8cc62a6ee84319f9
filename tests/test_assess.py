"""Risk metrics, the selection rule, and the Welch comparison."""

import json
import math
import os
import statistics
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import stdtr

from conftest import REPO_ROOT, TANKS_SCN
from riskplan.assess import (InsufficientSamples, MetricConfig, RiskMetrics,
                             build_report, compare_means, compute_metrics,
                             select, t_two_sided_p)

SRC_ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def metrics_row(mean, variance, entropy):
    """Fixture RiskMetrics with only the selector-relevant fields set."""
    return RiskMetrics(count=10, mean=mean, variance=variance,
                       entropy_bits=entropy, var_alpha=0.0, es_alpha=0.0,
                       bounded_prob=0.0, bin_width=5.0, alpha=0.9,
                       time_bound=600.0)


class TestMetrics:
    def test_constant_samples(self):
        m = compute_metrics([42.0] * 8)
        assert m.variance == 0.0
        assert m.entropy_bits == 0.0

    def test_one_bin_entropy_is_positive_zero(self):
        # negating a sum of 0.0 gives -0.0, which == 0.0 cannot tell apart
        entropy = compute_metrics([37.0] * 10).entropy_bits
        assert math.copysign(1.0, entropy) == 1.0

    def test_four_bin_uniform_entropy(self):
        # one sample per 5 s bin: 4 equally likely bins => 2 bits
        m = compute_metrics([1.0, 6.0, 11.0, 16.0])
        assert m.entropy_bits == pytest.approx(2.0)

    def test_var_es_convention(self):
        m = compute_metrics([float(i) for i in range(1, 11)])
        assert m.var_alpha == 9.0
        assert m.es_alpha == 10.0

    def test_variance_is_unbiased(self):
        samples = [3.0, 7.0, 8.0, 12.0, 9.0]
        m = compute_metrics(samples)
        assert m.variance == pytest.approx(statistics.variance(samples))

    def test_bounded_probability(self):
        m = compute_metrics([500.0, 590.0, 700.0, 650.0],
                            MetricConfig(time_bound=600.0))
        assert m.bounded_prob == 0.5

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamples):
            compute_metrics([1.0])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=2,
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_var_never_exceeds_es(self, samples):
        m = compute_metrics(samples)
        assert m.var_alpha <= m.es_alpha
        assert m.entropy_bits >= 0.0
        assert m.var_alpha in samples


TABLE_I = [
    ("P1", metrics_row(293.0, 1.92, 1.6)),
    ("P2", metrics_row(297.0, 1.8, 1.6)),
    ("P3", metrics_row(322.0, 0.17, 1.6)),
    ("P4", metrics_row(294.0, 0.02, 0.2)),
    ("P5", metrics_row(305.0, 0.1, 1.6)),
]


class TestSelect:
    def test_reference_table_picks_p4(self):
        result = select(TABLE_I)
        assert result.selected == "P4"

    def test_reference_table_justifies_p3(self):
        result = select(TABLE_I)
        p3 = next(e for e in result.eliminated if e.plan_id == "P3")
        assert "cutoff" in p3.reason
        assert all(e.plan_id != "P4" for e in result.eliminated)

    def test_mean_filter_cutoff(self):
        # the cutoff is (1 + alpha_mean) times the best mean
        rows = [("A", metrics_row(100.0, 5.0, 1.0)),
                ("B", metrics_row(105.1, 0.0, 1.0))]
        assert select(rows, alpha_mean=0.05).selected == "A"
        assert select(rows, alpha_mean=0.06).selected == "B"

    def test_entropy_breaks_variance_ties(self):
        rows = [("A", metrics_row(10.0, 1.0, 2.0)),
                ("B", metrics_row(10.0, 1.0, 1.0))]
        assert select(rows).selected == "B"

    def test_id_breaks_total_ties(self):
        rows = [("B", metrics_row(10.0, 1.0, 1.0)),
                ("A", metrics_row(10.0, 1.0, 1.0))]
        result = select(rows)
        assert result.selected == "A"
        assert result.eliminated[0].reason == "identical metrics, larger plan id"

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            select([])

    @pytest.mark.parametrize("alpha_mean", [math.nan, math.inf, -0.5])
    def test_bad_alpha_mean_rejected(self, alpha_mean):
        with pytest.raises(ValueError, match="alpha_mean must be finite and >= 0"):
            select(TABLE_I, alpha_mean=alpha_mean)


class TestWelch:
    def test_matches_scipy(self):
        a = [10.0, 12.0, 11.0, 13.0, 9.0]
        b = [14.0, 16.0, 15.0, 13.0, 17.0]
        t, p = compare_means(a, b)
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue)

    def test_p_is_the_t_distribution_tail(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = list(rng.normal(100, rng.uniform(1, 9), rng.integers(2, 40)))
            b = list(rng.normal(101, rng.uniform(1, 9), rng.integers(2, 40)))
            t, p = compare_means(a, b)
            va, vb = np.var(a, ddof=1) / len(a), np.var(b, ddof=1) / len(b)
            df = (va + vb) ** 2 / (va ** 2 / (len(a) - 1) + vb ** 2 / (len(b) - 1))
            assert p == pytest.approx(2 * scipy_stats.t.sf(abs(t), df), rel=1e-12)

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # importing scipy.stats costs ~0.4 s; the p-value needs scipy.special
        code = "import sys, riskplan.cli; print('scipy.stats' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"

    def test_cli_import_loads_no_scipy_module(self):
        code = ("import sys, riskplan.cli; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"

    def test_pipeline_runs_where_scipy_cannot_be_imported(self, tmp_path):
        code = textwrap.dedent('''
            import sys

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name == "scipy" or name.startswith("scipy."):
                        raise ImportError(f"{name} is not installed")

            sys.meta_path.insert(0, NoScipy())
            from riskplan.cli import main
            sys.exit(main(sys.argv[1:]))
        ''')
        out = tmp_path / "out"
        run = subprocess.run([sys.executable, "-c", code, "pipeline", str(TANKS_SCN),
                              "--episodes", "5", "--seed", "7", "--out-dir", str(out)],
                             env=SRC_ENV, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        welch = json.loads((out / "report.json").read_text())["welch_vs_selected"]
        assert welch and all(0.0 <= w["p"] <= 1.0 for w in welch.values())

    def test_identical_constants(self):
        assert compare_means([5.0, 5.0], [5.0, 5.0]) == (0.0, 1.0)

    def test_distinct_constants(self):
        t, p = compare_means([5.0, 5.0], [6.0, 6.0])
        assert t == -math.inf
        assert p == 0.0

    def test_same_distribution_rarely_significant(self):
        rng = np.random.default_rng(12)
        a = list(rng.normal(100, 5, 30))
        b = list(rng.normal(100, 5, 30))
        _, p = compare_means(a, b)
        assert p > 0.01

    def test_needs_two_samples_each(self):
        with pytest.raises(InsufficientSamples):
            compare_means([1.0], [2.0, 3.0])


def assert_matches_stdtr(t, df, rel):
    if df == 1.0:  # Cauchy: stdtr's own df = 1 path is off by 6e-10 at t = 1e-9
        ref = 2.0 / math.pi * math.atan2(1.0, abs(t))
    else:
        ref = 2.0 * float(stdtr(df, -abs(t)))
    p = t_two_sided_p(t, df)
    if ref < sys.float_info.min:  # subnormal: scipy's own digits run out
        assert p < 1e-300
    else:
        assert p == pytest.approx(ref, rel=rel)


T_VALUES = st.floats(-200.0, 200.0)


class TestStudentTail:
    """The two-sided t tail against scipy's stdtr, a test-only import."""

    @given(st.floats(1.0, 1e3), T_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_matches_stdtr_up_to_df_1e3(self, df, t):
        assert_matches_stdtr(t, df, rel=1e-11)

    @given(st.floats(1.0, 1e4), T_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_matches_stdtr_up_to_df_1e4(self, df, t):
        assert_matches_stdtr(t, df, rel=1e-10)

    @pytest.mark.parametrize("df", [1.0, 1.5, 49.9, 50.0, 50.1, 198.0, 9999.0])
    @pytest.mark.parametrize("t", [1e-12, 0.3, 1.7, 1.9, 4.0, 30.0])
    def test_matches_stdtr_at_branch_edges(self, df, t):
        # df 50 is where the log-gamma ratio changes method; t near 1.7
        # is where the continued fraction changes sides at large df
        assert_matches_stdtr(t, df, rel=1e-11)

    @given(st.floats(1.0, 1e6))
    def test_zero_t_is_exactly_one(self, df):
        assert t_two_sided_p(0.0, df) == 1.0
        assert t_two_sided_p(-0.0, df) == 1.0

    @given(st.floats(allow_nan=False), st.floats(1.0, 1e6))
    def test_symmetric_and_a_probability(self, t, df):
        p = t_two_sided_p(t, df)
        assert p == t_two_sided_p(-t, df)
        assert 0.0 <= p <= 1.0

    @given(st.floats(1.0, 1e4), st.sampled_from([1e6, -1e6]))
    def test_huge_t_is_near_zero(self, df, t):
        assert t_two_sided_p(t, df) == pytest.approx(0.0, abs=1e-6)


class TestReport:
    def test_structure_and_welch_block(self):
        samples = {"P1": [10.0, 11.0, 10.5], "P2": [20.0, 21.0, 19.0]}
        report = build_report(samples)
        assert report["format_version"] == 2
        assert report["selection"]["selected"] == "P1"
        assert set(report["metrics"]) == {"P1", "P2"}
        assert set(report["welch_vs_selected"]) == {"P2"}
        assert report["welch_vs_selected"]["P2"]["p"] < 0.05
