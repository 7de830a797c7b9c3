"""The randomized soundness survey of scripts/random_survey.py, seeded and
small: random non-abelian pairs in C and C^2, each closure claim scored
against an epsilon-grid orbit sample and an exact one (the integer-row
kernel on random groups)."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "random_survey.py"


def load_survey():
    spec = importlib.util.spec_from_file_location("random_survey", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("dim", [1, 2])
def test_random_pairs_are_sound(dim):
    survey = load_survey()
    census = survey.survey(survey.SurveyConfig(trials=10, dim=dim))
    assert sum(census.kinds.values()) == 10
    assert sum(census.points.values()) > 0
    assert census.max_violation <= 1e-6, dict(census.worst)
