import hashlib

import numpy as np
import pytest

from reachkin import kinematics, synth
from reachkin.model_io import load_cohort, validate_session
from reachkin.synth import (
    HIT_FRAMES,
    HIT_RADIUS,
    PX_PER_UNIT,
    StrategyParams,
    age_mean_params,
    generate_cohort,
    generate_reach,
    generate_session,
    minimum_jerk,
    norm_to_sim,
    sim_to_px,
)


def test_strategy_params_validation():
    with pytest.raises(ValueError):
        StrategyParams(peak_speed_scale=0.0)
    with pytest.raises(ValueError):
        StrategyParams(detour_amplitude=-0.1)
    with pytest.raises(ValueError):
        StrategyParams(anticipation=1.5)
    with pytest.raises(ValueError):
        StrategyParams(submovement_count=-1)


def test_minimum_jerk_shape():
    assert minimum_jerk(0.0) == 0.0
    assert minimum_jerk(1.0) == 1.0
    assert minimum_jerk(0.5) == pytest.approx(0.5)
    u = np.linspace(0, 1, 101)
    y = minimum_jerk(u)
    assert np.all(np.diff(y) >= 0)
    # clipped outside [0, 1]
    assert minimum_jerk(-0.5) == 0.0 and minimum_jerk(1.5) == 1.0


def test_generate_reach_straight_when_no_detour():
    params = StrategyParams(detour_amplitude=0.0, submovement_count=0,
                            noise_sigma=0.0)
    path, _ = generate_reach(params, (0.0, 0.0), (1.5, 0.5), dt=1.0 / 30.0)
    assert kinematics.directness(path) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(path[0], (0.0, 0.0))
    assert np.allclose(path[-1], (1.5, 0.5), atol=1e-9)


def test_generate_reach_duration_override_peak_speed():
    # a single straight burst over a fixed duration is a minimum-jerk reach;
    # its sampled peak speed sits within 2% of 1.875 * distance / duration
    params = StrategyParams(detour_amplitude=0.0, submovement_count=0,
                            anticipation=0.0, noise_sigma=0.0)
    dt = 1.0 / 30.0
    path, total = generate_reach(params, (0.0, 0.0), (2.0, 0.0), dt,
                                 duration=1.0)
    vmax = kinematics.max_speed(path, dt)
    assert vmax == pytest.approx(1.875 * 2.0 / 1.0, rel=0.02)
    assert total == pytest.approx(1.0)


def test_generate_reach_detour_lowers_directness():
    scores = []
    for amp in (0.0, 0.2, 0.4):
        params = StrategyParams(detour_amplitude=amp, submovement_count=0,
                                noise_sigma=0.0)
        path, _ = generate_reach(params, (0.0, 0.0), (2.0, 0.0), 1.0 / 30.0)
        scores.append(kinematics.directness(path))
    assert scores[0] > scores[1] > scores[2]


def test_generate_reach_deterministic():
    params = StrategyParams(noise_sigma=0.02)
    a, _ = generate_reach(params, (0, 0), (1, 1), 1.0 / 30.0,
                          rng=np.random.default_rng(9))
    b, _ = generate_reach(params, (0, 0), (1, 1), 1.0 / 30.0,
                          rng=np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_generate_reach_coincident_endpoints():
    with pytest.raises(ValueError):
        generate_reach(StrategyParams(), (1.0, 1.0), (1.0, 1.0), 1.0 / 30.0)


def test_generate_session_deterministic(sample_session):
    params = synth.age_mean_params(12)
    again = generate_session(params, 12, seed=11, participant_id="p011",
                             duration=20.0)
    assert again.targets.events == sample_session.targets.events
    assert again.skeletons[0].samples == sample_session.skeletons[0].samples


def test_generate_session_hit_rule(sample_session):
    # at every recorded hit the wrist has overlapped the target for the
    # required number of consecutive frames
    seq = sample_session.skeleton()
    rate = seq.sample_rate
    for ev in sample_session.targets.events:
        if not ev.collected:
            continue
        joint = "left_wrist" if ev.side == "left" else "right_wrist"
        _, times, pos, _ = seq.joint_arrays(joint)
        i_hit = int(round(ev.t_hit * rate))
        target_px = sim_to_px(norm_to_sim(ev.position))
        window = pos[i_hit - HIT_FRAMES + 1:i_hit + 1]
        dists = np.linalg.norm(window - target_px, axis=1)
        assert np.all(dists < HIT_RADIUS * PX_PER_UNIT)
        assert ev.t_hit >= ev.t_appear


def test_generate_session_score_and_validation(sample_session):
    assert sample_session.score == sample_session.targets.score
    assert sample_session.score >= 1
    assert validate_session(sample_session).ok


def test_age_mean_params_monotone():
    young, mid, old = age_mean_params(6), age_mean_params(11), age_mean_params(17)
    assert young.peak_speed_scale > mid.peak_speed_scale > old.peak_speed_scale
    assert young.detour_amplitude > mid.detour_amplitude > old.detour_amplitude
    assert young.anticipation < mid.anticipation < old.anticipation
    assert young.reaction_delay > old.reaction_delay
    assert young.submovement_count >= mid.submovement_count >= old.submovement_count
    assert young.noise_sigma > old.noise_sigma


def test_generate_cohort_counts_and_ages():
    cohort, truth = generate_cohort(2, seed=1, duration=10.0)
    assert len(cohort.sessions) == 8
    assert len(truth) == 8
    for session, row in zip(cohort.sessions, truth):
        assert session.participant_id == row["participant_id"]
        assert session.age == row["age"]
        cohort.bin_of(session.age)


def test_generate_cohort_deterministic():
    a, ta = generate_cohort(1, seed=2, duration=10.0)
    b, tb = generate_cohort(1, seed=2, duration=10.0)
    assert ta == tb
    for sa, sb in zip(a.sessions, b.sessions):
        assert sa.targets.events == sb.targets.events
        assert sa.skeletons[0].samples == sb.skeletons[0].samples


def test_cohort_scores_rise_with_age(default_cohort):
    cohort, _ = default_cohort
    by_bin = {}
    for s in cohort.sessions:
        by_bin.setdefault(cohort.bin_of(s.age), []).append(s.score)
    means = [np.mean(by_bin[i]) for i in sorted(by_bin)]
    assert means[0] < means[-1]
    assert all(a < b for a, b in zip(means, means[1:]))


def test_write_cohort_round_trip(small_cohort_dir):
    cohort = load_cohort(small_cohort_dir, synth.DEFAULT_BINS)
    regen, _ = generate_cohort(3, seed=5)
    assert len(cohort.sessions) == len(regen.sessions)
    for disk, mem in zip(cohort.sessions, regen.sessions):
        assert disk.participant_id == mem.participant_id
        assert disk.age == mem.age
        assert disk.score == mem.score
        assert disk.targets.events == mem.targets.events
        assert disk.skeletons[0].samples == mem.skeletons[0].samples
    assert (small_cohort_dir / "ground_truth.csv").is_file()


# sha256 of every file written for generate_cohort(1, seed=0, duration=10.0),
# recorded from the per-row JointSample implementation of the generator and
# writer; pins the RNG draw order and the number formatting byte for byte.
PINNED_COHORT_SHA256 = {
    "ground_truth.csv":
        "2535a530a7619d104655446ce58294353ef0ca834d94e4733a289079e808e849",
    "p000/joints.csv":
        "a88603d196709d25dbcc02091391726b1782c3923b32bcdc346598d2085325d5",
    "p000/manifest.json":
        "b514a169512d70252252b49fe5880615f037c1c496246550c0f7e2322e3e4f4a",
    "p000/targets.csv":
        "d13e7cf9571b4e01854559f3c3f9fe75cd04d11b2d71c79c5afee1b95a0c37bd",
    "p001/joints.csv":
        "02a31aa43573ba87b7395872562fb0dfddeb4d4ed34d0d8d3a3efc1f8e7ba440",
    "p001/manifest.json":
        "68936351ad088771239cba81366abc42b93a05aa750a73b582ca29ea94225823",
    "p001/targets.csv":
        "29b96d713b34a3688919f62b01b514d6649597fe2ebfd2fb120ec88addaafed7",
    "p002/joints.csv":
        "d5257550ecd5f7ce58307f1b5942274ac08eaccd4998ab6d5e9c25265446f8f3",
    "p002/manifest.json":
        "cbcaf15114b41bebdae308512e33576d841e6a6ed434adf3e23e4ff082cbebc1",
    "p002/targets.csv":
        "942c2b8c3a2caeb1c238ca9b42333754f29f5a0499599b09c8627b5f0886d76c",
    "p003/joints.csv":
        "617b77a0ef80db7ea98c60cb1dbd0dfa8f22e8c85dbb0f29feb934cc419d52ba",
    "p003/manifest.json":
        "e5b80baa4835776d057e70bcbd2964343aac2a86e29985ddefa68c2b26c614b6",
    "p003/targets.csv":
        "4206ea7dcd7f11c20174eb785c0e615ad3fa55d1025f7701a4daf5af34547a28",
}


def test_write_cohort_bytes_pinned(tmp_path):
    synth.write_cohort(*generate_cohort(1, seed=0, duration=10.0), str(tmp_path))
    got = {p.relative_to(tmp_path).as_posix():
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert got == PINNED_COHORT_SHA256
