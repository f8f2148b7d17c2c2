"""Synthetic bilateral reaching sessions with age-parameterized motor
strategies.

The generator plays the same game the analysis pipeline expects: alternating
asymmetric target pairs, a 50-second clock, and a target counted as hit only
after the hand overlaps it for five consecutive frames. Hand motion is built
from minimum-jerk bursts along a bowed path, with corrective submovements,
reaction delays, an anticipation-scaled homing glide, and measurement
noise. All
parameters are planted monotonically in age, so the generated cohorts act as
ground-truth oracles for the analysis code.

Simulation coordinates are shoulder-width units with the origin at the
shoulder midpoint; conversion to screen pixels is isotropic.

The written cohort bytes are pinned, so the order of a session's draws is
part of the contract. Per target pair: the target spawns (left, then right;
x, y, redrawn until a real reach away), then per hand the delay factor and
the reach noise (a pair of normals per path frame), then the per-frame hand
noise (a pair per hand and frame from the hand's onset until the pair is
hit, in (frame, left, right) order). After the last pair: the shoulder sway
(frame, shoulder, xy), and last the confidences, frame-major over the
joints (a value and a test draw per cell, and a replacement value when the
test draw is below 0.01).
"""

from __future__ import annotations

import csv
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .model_io import (
    AGE_BINS,
    Cohort,
    JointStream,
    ParticipantSession,
    SessionManifest,
    SkeletonSequence,
    TargetEvent,
    TargetLog,
    write_session,
)

# Geometry of the simulated play area (shoulder-width units and pixels).
PLAY_W_UNITS = 4.4
PLAY_H_UNITS = 3.2
PLAY_ORIGIN = np.array([-2.2, -0.6])      # top-left corner in sim units
PX_PER_UNIT = 225.0
PLAY_AREA_PX = (int(PLAY_W_UNITS * PX_PER_UNIT), int(PLAY_H_UNITS * PX_PER_UNIT))

SHOULDERS = {"left_shoulder": np.array([-0.5, 0.0]),
             "right_shoulder": np.array([0.5, 0.0])}
HAND_REST = {"left": np.array([-0.9, 1.6]), "right": np.array([0.9, 1.6])}

FPS = 30.0                 # camera frame rate
HIT_RADIUS = 0.30          # sim units
HIT_FRAMES = 5             # consecutive overlap frames required
PAUSE_S = 0.22             # dwell between corrective submovement bursts
_ARC_SAMPLES = np.linspace(0.0, 1.0, 512)  # path parameters summed for arc


@dataclass(frozen=True)
class StrategyParams:
    peak_speed_scale: float = 4.0     # shoulder-widths/s at burst peak
    detour_amplitude: float = 0.15    # lateral bow, fraction of reach distance
    submovement_count: int = 0        # corrective stutters per reach
    reaction_delay: float = 0.25      # seconds before movement onset
    anticipation: float = 0.5         # in [0,1]; front-loads goal progress
    noise_sigma: float = 0.01         # positional noise, shoulder-width units

    def __post_init__(self):
        if self.peak_speed_scale <= 0:
            raise ValueError("peak_speed_scale must be positive")
        if self.detour_amplitude < 0 or self.reaction_delay < 0 \
                or self.noise_sigma < 0 or self.submovement_count < 0:
            raise ValueError("strategy parameters must be non-negative")
        if not 0.0 <= self.anticipation <= 1.0:
            raise ValueError("anticipation must be in [0, 1]")


def minimum_jerk(u):
    """Minimum-jerk position fraction 10u^3 - 15u^4 + 6u^5 on [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    # Python's float power is libm's pow, as numpy's scalar power is; the
    # array power can round the cube differently in the last bit
    cube = np.reshape([x ** 3 for x in np.ravel(u).tolist()], np.shape(u))
    return cube * (10.0 - 15.0 * u + 6.0 * u * u)


def _bowed_path(start, target, amplitude):
    """Return p(u) evaluating the bowed geometric path and its arc length."""
    start = np.asarray(start, dtype=float)
    target = np.asarray(target, dtype=float)
    delta = target - start
    length = np.linalg.norm(delta)
    normal = np.array([-delta[1], delta[0]]) / length

    def path(u):
        u = np.asarray(u, dtype=float)
        bow = amplitude * length * np.sin(np.pi * u)
        return start + u[:, None] * delta + bow[:, None] * normal

    pts = path(_ARC_SAMPLES)
    arc = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())
    return path, arc


def generate_reach(params: StrategyParams, start, target, dt, rng=None,
                   duration=None):
    """Simulate one reach; returns (positions (N, 2), total_duration_s).

    The geometric path is a half-sine bow; timing is a chain of minimum-jerk
    bursts: one dominant burst, ``submovement_count`` corrective stutters
    separated by short pauses, then a homing glide whose length and slowness
    grow with the anticipation parameter. ``duration`` overrides the
    speed-derived movement time, split across bursts in proportion to arc.
    Deterministic for a fixed rng state; rng=None means noise-free.
    """
    start = np.asarray(start, dtype=float)
    target = np.asarray(target, dtype=float)
    if np.allclose(start, target):
        raise ValueError("start and target coincide")

    path, arc = _bowed_path(start, target, params.detour_amplitude)
    n_sub = params.submovement_count
    a = params.anticipation
    # One dominant burst covers the early path, corrective submovements
    # stutter through the middle stretch, and an anticipation-scaled homing
    # glide crawls the last piece of arc at reduced speed. The glide length
    # is set in shoulder-width units (not arc fraction) so short and long
    # reaches get comparable final-approach phases; it is what shapes
    # end-phase velocity: more anticipation means a longer, slower approach.
    sub_span = 0.12
    home_units = 0.35 + 0.55 * a
    home_span = min(0.5, home_units / arc)
    home_speed = params.peak_speed_scale * (1.0 - 0.60 * a)
    spans = [1.0 - sub_span * n_sub - home_span] + [sub_span] * n_sub \
        + [home_span]
    if duration is not None:
        burst_T = [duration * s for s in spans]
        pauses = [0.0] * n_sub
    else:
        burst_T = [1.875 * (arc * s) / params.peak_speed_scale
                   for s in spans[:-1]]
        burst_T.append(1.875 * (arc * home_span) / home_speed)
        pauses = [PAUSE_S] * n_sub

    # timeline of (t_start, t_end, u_start, u_end); pauses hold position
    episodes = []
    t = 0.0
    u0 = 0.0
    for m, span in enumerate(spans):
        u1 = u0 + span
        episodes.append((t, t + burst_T[m], u0, u1))
        t += burst_T[m]
        if 1 <= m <= n_sub:
            episodes.append((t, t + pauses[m - 1], u1, u1))
            t += pauses[m - 1]
        u0 = u1
    total = t

    n = max(2, int(np.ceil(total / dt)) + 1)
    times = np.minimum(np.arange(n) * dt, total)
    # each frame falls in the first episode ending at or after it; only the
    # first burst can have a negative length, so the ends are sorted
    t0, t1, u0, u1 = np.array(episodes).T
    k = np.minimum(np.searchsorted(t1, times, side="left"), len(episodes) - 1)
    t0, t1, u0, u1 = t0[k], t1[k], u0[k], u1[k]
    u = u1.copy()
    moving = t1 != t0
    u[moving] = u0[moving] + (u1[moving] - u0[moving]) * minimum_jerk(
        (times[moving] - t0[moving]) / (t1[moving] - t0[moving]))
    positions = path(u)
    if rng is not None and params.noise_sigma > 0:
        positions = positions + rng.normal(0.0, params.noise_sigma,
                                           positions.shape)
    return positions, total


def _spawn_target(side, rng):
    """Normalized-screen target position on the given side of the midline."""
    if side == "left":
        x = rng.uniform(0.08, 0.42)
    else:
        x = rng.uniform(0.58, 0.92)
    y = rng.uniform(0.20, 0.75)
    return (float(x), float(y))


def norm_to_sim(pos_norm):
    """Normalized screen coordinates -> simulation (shoulder-width) units."""
    return PLAY_ORIGIN + np.asarray(pos_norm, dtype=float) * \
        np.array([PLAY_W_UNITS, PLAY_H_UNITS])


def sim_to_px(pos):
    return (np.asarray(pos, dtype=float) - PLAY_ORIGIN) * PX_PER_UNIT


def _inside(offsets):
    """Whether each (N, 2) offset lies within HIT_RADIUS, as np.linalg.norm
    of the one 2-vector decides it: the batched norm rounds the last bit
    differently for a few percent of vectors, so near ones are redone."""
    dist = np.linalg.norm(offsets, axis=1)
    near = np.abs(dist - HIT_RADIUS) < 1e-12
    dist[near] = [np.linalg.norm(d) for d in offsets[near]]
    return dist < HIT_RADIUS


def _first_hit(inside):
    """Index ending the first run of HIT_FRAMES True values, or None."""
    done = np.flatnonzero(np.convolve(inside, np.ones(HIT_FRAMES), "valid")
                          == HIT_FRAMES)
    return int(done[0]) + HIT_FRAMES - 1 if done.size else None


def _confidences(rng, cells):
    """Per cell, a uniform(0.80, 1.00) value and a test draw; a test below
    0.01 brings a replacement uniform(0.10, 0.70). Nothing is drawn after,
    so 3 doubles per cell are drawn at once; each rare cell shifts the
    draws of every later cell by one."""
    draws = rng.random(3 * cells)
    rare = []
    for j in np.flatnonzero(draws < 0.01).tolist():
        cell, odd = divmod(j - len(rare) - 1, 2)
        if not odd and (rare[-1] if rare else -1) < cell < cells:
            rare.append(cell)
    first = 2 * np.arange(cells) + np.searchsorted(rare, np.arange(cells))
    conf = 0.80 + (1.00 - 0.80) * draws[first]
    conf[rare] = 0.10 + (0.70 - 0.10) * draws[first[rare] + 2]
    return conf


def generate_session(params: StrategyParams, age: int, seed,
                     participant_id="p000",
                     duration: float = 50.0) -> ParticipantSession:
    """Simulate one full game session; pure function of (params, age, seed)."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / FPS
    n_frames = int(round(duration * FPS))
    times = np.arange(n_frames) * dt
    sides = ("left", "right")
    sigma = params.noise_sigma

    hand_pos = np.empty((n_frames, 2, 2))       # frame, hand, xy
    current = np.array([HAND_REST[s] for s in sides])
    events = []

    frame = 0
    target_id = 0
    while frame < n_frames:
        t_appear = float(times[frame])
        tpos_norm, tpos_sim = [], []
        for s, here in zip(sides, current):
            # respawn until the target is a real reach away from the hand
            for _ in range(50):
                cand = _spawn_target(s, rng)
                cand_sim = norm_to_sim(cand)
                if np.linalg.norm(cand_sim - here) >= 0.8:
                    break
            tpos_norm.append(cand)
            tpos_sim.append(cand_sim)

        # each hand rests until its onset, follows its path one frame per
        # dt, then stays on the target (the track's last row)
        onsets, tracks = [], []
        for here, target in zip(current, tpos_sim):
            delay = params.reaction_delay * float(rng.uniform(0.85, 1.15))
            path, _ = generate_reach(params, here, target, dt, rng=rng)
            onsets.append(t_appear + delay)
            tracks.append(np.vstack([path, target]))

        # The pair ends on the frame both hands are hit, which depends on
        # the noise drawn for the frames before it. Draw for a window that
        # should cover it, widen the window until it does (or reaches the
        # session's end), then draw again from the saved state only the
        # noise of the frames the pair used.
        state = rng.bit_generator.state
        window = max(len(tr) for tr in tracks) + \
            int((max(onsets) - t_appear) / dt) + 2 * HIT_FRAMES
        while True:
            t = times[frame:frame + window]
            moved = t[:, None] >= np.array(onsets)
            pos = np.empty((len(t), 2, 2))
            for h, (here, track) in enumerate(zip(current, tracks)):
                idx = np.rint((t - onsets[h]) / dt).clip(0, len(track) - 1)
                pos[:, h] = np.where(moved[:, h, None],
                                     track[idx.astype(np.intp)], here)
            if sigma > 0:
                pos[moved] += rng.normal(0.0, sigma, (moved.sum(), 2))
            hits = [_first_hit(_inside(pos[:, h] - tpos_sim[h]))
                    for h in range(2)]
            if None not in hits or frame + len(t) == n_frames:
                break
            window *= 2
            rng.bit_generator.state = state
        used = max(hits) + 1 if None not in hits else len(t)
        if sigma > 0:
            rng.bit_generator.state = state
            rng.normal(0.0, sigma, (moved[:used].sum(), 2))

        hand_pos[frame:frame + used] = pos[:used]
        current = pos[used - 1]
        for h, s in enumerate(sides):
            t_hit = None if hits[h] is None else float(t[hits[h]])
            events.append(TargetEvent(target_id=target_id, side=s,
                                      position=tpos_norm[h],
                                      t_appear=t_appear, t_hit=t_hit))
        frame += used
        target_id += 1

    targets = TargetLog(tuple(sorted(events,
                                     key=lambda e: (e.t_appear, e.target_id,
                                                    e.side))))
    score = targets.score

    sway = rng.normal(0.0, 0.01, (n_frames, 2, 2))
    positions = {
        "left_wrist": hand_pos[:, 0],
        "right_wrist": hand_pos[:, 1],
        "left_shoulder": SHOULDERS["left_shoulder"] + sway[:, 0],
        "right_shoulder": SHOULDERS["right_shoulder"] + sway[:, 1],
    }
    conf = _confidences(rng, n_frames * len(positions)).reshape(n_frames, -1)
    conf = np.round(conf, 6)
    skeleton = SkeletonSequence(participant_id, "webcam", FPS, {
        joint: JointStream(np.arange(n_frames), times, sim_to_px(pos), conf[:, k])
        for k, (joint, pos) in enumerate(positions.items())})

    manifest = SessionManifest(
        participant_id=participant_id,
        age_years=age,
        play_area_px=PLAY_AREA_PX,
        native_fps=FPS,
        camera_ids=("webcam",),
        score=score,
    )
    return ParticipantSession((skeleton,), targets, manifest)


# --- age profile -----------------------------------------------------------

def age_mean_params(age: int) -> StrategyParams:
    """Planted monotone strategy means: older children reach more directly,
    with lower peak speed, fewer corrections, and more anticipation."""
    u = (age - 6) / 11.0
    return StrategyParams(
        peak_speed_scale=5.0 - 2.2 * u,
        detour_amplitude=0.42 - 0.36 * u,
        submovement_count=int(round(4.0 - 4.0 * u)),
        reaction_delay=0.45 - 0.41 * u,
        anticipation=0.10 + 0.80 * u,
        noise_sigma=0.045 - 0.042 * u,
    )


def sample_params(age: int, rng) -> StrategyParams:
    """Draw one participant's strategy around the age means (4% jitter)."""
    mean = age_mean_params(age)
    j = lambda v: float(v * rng.uniform(0.96, 1.04))   # noqa: E731
    return replace(
        mean,
        peak_speed_scale=j(mean.peak_speed_scale),
        detour_amplitude=j(mean.detour_amplitude),
        reaction_delay=j(mean.reaction_delay),
        anticipation=min(1.0, j(mean.anticipation)),
        noise_sigma=j(mean.noise_sigma),
    )


def generate_cohort(n_per_bin: int, seed: int = 0,
                    duration: float = 50.0) -> tuple:
    """Generate a deterministic cohort; returns (Cohort, ground_truth rows).

    Ground-truth rows record every planted parameter per participant.
    """
    root_ss = np.random.SeedSequence(seed)
    sessions = []
    truth = []
    idx = 0
    for lo, hi in AGE_BINS:
        for _ in range(n_per_bin):
            child_ss = root_ss.spawn(1)[0]
            rng = np.random.default_rng(child_ss)
            age = int(rng.integers(lo, hi + 1))
            params = sample_params(age, rng)
            pid = f"p{idx:03d}"
            session = generate_session(params, age, child_ss.spawn(1)[0],
                                       participant_id=pid, duration=duration)
            sessions.append(session)
            truth.append({"participant_id": pid, "age": age,
                          "score": session.score, **asdict(params)})
            idx += 1
    return Cohort(tuple(sessions)), truth


def write_cohort(cohort: Cohort, truth, directory):
    os.makedirs(directory, exist_ok=True)
    for session in cohort.sessions:
        write_session(session, os.path.join(directory, session.participant_id))
    with open(os.path.join(directory, "ground_truth.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(truth[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(truth)
