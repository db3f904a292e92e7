"""Every row of the paper's claims table holds, and EXPERIMENTS.md
shows exactly what the table measures (``tests/claims.py``)."""

import pytest

from tests import claims


@pytest.fixture(scope="session")
def artefacts():
    """Fig. 2, the Fig. 3 sweep and the other shared runs, once."""
    return claims.Artefacts()


def test_claim_ids_are_unique_and_every_row_has_a_block():
    ids = [claim.id for claim in claims.CLAIMS]
    assert len(ids) == len(set(ids))
    assert {claim.block for claim in claims.CLAIMS} == set(claims.BLOCKS)


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda c: c.id)
def test_claim_holds(claim, artefacts):
    failure = claim.failure(artefacts)
    assert failure is None, failure


def test_a_failing_row_names_id_paper_value_measurement_and_tolerance():
    row = claims.Claim("demo.arbor_8", "fig2", "Fig. 2",
                       "Arbor: 498 s on 8 nodes", lambda art: 600.0,
                       claims.near(498.0, rel=0.10), "reproduced")
    assert row.failure(None) == (
        "claim demo.arbor_8 (Fig. 2) fails: paper 'Arbor: 498 s on 8 "
        "nodes'; measured 600; tolerance within 10 % of 498")


def test_experiments_md_shows_the_table_as_measured(artefacts):
    """``python tests/regen_goldens.py claims`` leaves EXPERIMENTS.md
    byte-identical."""
    text = claims.EXPERIMENTS.read_text(encoding="utf-8")
    assert claims.render_experiments(text, artefacts) == text
