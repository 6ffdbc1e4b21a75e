"""Tests for the invalid-mapping-rate validation harness."""

import pytest

from repro.analysis import MapperOutcome, survey_table, validity_survey
from repro.arch import conventional
from repro.workloads import conv2d


@pytest.fixture(scope="module")
def small_corpus():
    return [
        conv2d(N=1, K=16, C=16, P=14, Q=14, R=3, S=3, name="light"),
        conv2d(N=4, K=64, C=64, P=28, Q=28, R=3, S=3, name="mid"),
    ]


class TestValiditySurvey:
    def test_counts_consistent(self, small_corpus):
        outcomes = validity_survey(small_corpus, conventional(),
                                   mappers=("sunstone", "cosa-like"))
        for outcome in outcomes.values():
            assert outcome.attempted == len(small_corpus)
            assert outcome.valid <= outcome.returned <= outcome.attempted
            assert 0.0 <= outcome.invalid_rate <= 1.0

    def test_sunstone_always_valid(self, small_corpus):
        outcomes = validity_survey(small_corpus, conventional(),
                                   mappers=("sunstone",))
        assert outcomes["sunstone"].invalid_rate == 0.0

    def test_unknown_mapper_rejected(self, small_corpus):
        with pytest.raises(ValueError, match="unknown mapper 'magic'"):
            validity_survey(small_corpus, conventional(),
                            mappers=("magic",))

    def test_table_rendering(self):
        outcomes = {
            "x": MapperOutcome("x", attempted=4, returned=4, valid=2,
                               best=1),
        }
        lines = survey_table(outcomes)
        assert len(lines) == 2
        assert "50%" in lines[1]
