"""Tests for the normalised descriptions (Sec. III-C)."""

import pytest

from repro.core import SECTIONS, describe, describe_all, load_suite


@pytest.fixture(scope="module")
def suite():
    return load_suite()


class TestDescriptions:
    def test_every_benchmark_has_all_sections(self, suite):
        """The paper's normalisation: identical structure everywhere."""
        docs = describe_all(suite)
        assert len(docs) == 23
        for name, text in docs.items():
            for section in SECTIONS:
                assert f"## {section}" in text, (name, section)

    def test_sections_in_fixed_order(self, suite):
        text = describe(suite, "nekRS")
        positions = [text.index(f"## {s}") for s in SECTIONS]
        assert positions == sorted(positions)

    def test_juqcs_description_content(self, suite):
        text = describe(suite, "JUQCS")
        assert "powers of two" in text
        assert "exact (bit-for-bit" in text
        assert "S,L" in text

    def test_chroma_rules_present(self, suite):
        text = describe(suite, "Chroma-QCD")
        assert "excludes the first HMC update" in text
        assert "1e-10" in text

    def test_sample_result_attached(self, suite):
        result = suite.run("nekRS")
        text = describe(suite, "nekRS", sample=result)
        assert f"{result.fom_seconds:.3f}" in text

    def test_rate_fom_commitment_language(self, suite):
        text = describe(suite, "Megatron-LM")
        assert "dividing the fixed work" in text
        assert "2e+07" in text

    def test_unused_marker(self, suite):
        assert "not used" in describe(suite, "Amber")
        assert "not used" not in describe(suite, "Arbor")
