import pytest

from reachkin import synth


@pytest.fixture(scope="session")
def default_cohort():
    """Full-size synthetic cohort (20 per bin), generated once per session."""
    cohort, truth = synth.generate_cohort(20, seed=0)
    return cohort, truth


@pytest.fixture(scope="session")
def small_cohort_dir(tmp_path_factory):
    """3 participants per bin written to disk, for CLI and pipeline tests."""
    root = tmp_path_factory.mktemp("cohort")
    cohort, truth = synth.generate_cohort(3, seed=5)
    synth.write_cohort(cohort, truth, str(root))
    return root


@pytest.fixture(scope="session")
def cohort_windows(default_cohort):
    """Normalized training windows cut from the full-size cohort."""
    from reachkin import agenet, pipeline
    cohort, _ = default_cohort
    records = pipeline.cohort_metrics(cohort.sessions, ("train",),
                                      pipeline.PipelineConfig(), None)
    windows, skipped = agenet.windows_from_cohort(records)
    assert not skipped
    return windows


@pytest.fixture(scope="session")
def sample_session():
    params = synth.age_mean_params(12)
    return synth.generate_session(params, 12, seed=11,
                                  participant_id="p011", duration=20.0)
