"""Golden regression fixture for the canonical seed-2004 study.

``tests/golden/controlled_study_seed2004.sha256`` pins the SHA-256 of
the canonical study's serialized records (the exact bytes ``ResultStore``
would hold).  Any engine, model, or serialization edit that shifts even
one byte of paper-calibrated output fails here loudly instead of
silently drifting the reproduced figures.

If a change is *meant* to alter study output, regenerate the pin::

    PYTHONPATH=src:tests python -c "
    from shardcheck import study_digest
    from repro.study import ControlledStudyConfig, run_controlled_study
    print(study_digest(run_controlled_study(ControlledStudyConfig())))"

and say so in the commit message.
"""

from pathlib import Path

import pytest
from shardcheck import study_digest

from repro.study import ControlledStudyConfig, run_controlled_study
from repro.study.controlled import ENGINES

GOLDEN = Path(__file__).parent / "golden" / "controlled_study_seed2004.sha256"


def test_canonical_study_matches_golden(controlled_study):
    expected = GOLDEN.read_text().split()[0]
    assert study_digest(controlled_study) == expected, (
        "canonical seed-2004 study output drifted from the golden pin; "
        "if intentional, regenerate tests/golden/ (see module docstring)"
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_every_registered_engine_matches_golden(engine):
    """One pin, every engine: byte-identity is the engines' contract, so
    any engine named in ENGINES must reproduce the exact golden bytes —
    a new engine cannot land without passing through here."""
    result = run_controlled_study(ControlledStudyConfig(engine=engine))
    expected = GOLDEN.read_text().split()[0]
    assert study_digest(result) == expected, (
        f"engine {engine!r} diverged from the golden seed-2004 pin"
    )


def test_golden_pin_well_formed():
    digest, *annotation = GOLDEN.read_text().split()
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert "seed=2004" in " ".join(annotation)
