"""The per-frame synthetic session generator, kept as the oracle that the
array code in ``reachkin.synth`` must match bit for bit.

``generate_reach`` walks the burst-and-pause timeline one frame at a time,
and ``generate_session`` steps both hands frame by frame, drawing each
frame's noise and confidences one call at a time, so the draw order is
plain to read here.
"""

import numpy as np

from reachkin.model_io import (
    JointStream,
    ParticipantSession,
    SessionManifest,
    SkeletonSequence,
    TargetEvent,
    TargetLog,
)
from reachkin.synth import (
    HAND_REST,
    HIT_FRAMES,
    HIT_RADIUS,
    PAUSE_S,
    PLAY_AREA_PX,
    SHOULDERS,
    StrategyParams,
    _bowed_path,
    _spawn_target,
    norm_to_sim,
    sim_to_px,
)


def minimum_jerk(u):
    """Minimum-jerk position fraction 10u^3 - 15u^4 + 6u^5 on [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)


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
    times = np.arange(n) * dt
    u = np.empty(n)
    for i, ti in enumerate(times):
        ti = min(ti, total)
        for (t0, t1, u0, u1) in episodes:
            if ti <= t1 or (t0, t1, u0, u1) == episodes[-1]:
                if t1 == t0:
                    u[i] = u1
                else:
                    frac = np.clip((ti - t0) / (t1 - t0), 0.0, 1.0)
                    u[i] = u0 + (u1 - u0) * minimum_jerk(frac)
                break
    positions = path(u)
    if rng is not None and params.noise_sigma > 0:
        positions = positions + rng.normal(0.0, params.noise_sigma,
                                           positions.shape)
    return positions, total


class _HandPlan:
    """Scheduled reach of one hand: delay, then a precomputed path, then dwell."""

    def __init__(self, start, target, t_start, path):
        self.start = np.asarray(start, dtype=float)
        self.target = np.asarray(target, dtype=float)
        self.t_start = t_start
        self.path = path

    def position(self, t, dt):
        if t < self.t_start:
            return self.start
        idx = int(round((t - self.t_start) / dt))
        if idx < len(self.path):
            return self.path[idx]
        return self.target


def generate_session(params: StrategyParams, age: int, seed,
                     participant_id="p000", duration: float = 50.0,
                     fps: float = 30.0) -> ParticipantSession:
    """Simulate one full game session; pure function of (params, age, seed)."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / fps
    n_frames = int(round(duration * fps))
    times = np.arange(n_frames) * dt

    hand_pos = {s: np.empty((n_frames, 2)) for s in ("left", "right")}
    current = {s: HAND_REST[s].copy() for s in ("left", "right")}
    events = []

    frame = 0
    target_id = 0
    while frame < n_frames:
        t_appear = float(times[frame])
        tpos_norm, tpos_sim = {}, {}
        for s in ("left", "right"):
            # respawn until the target is a real reach away from the hand
            for _ in range(50):
                cand = _spawn_target(s, rng)
                cand_sim = norm_to_sim(cand)
                if np.linalg.norm(cand_sim - current[s]) >= 0.8:
                    break
            tpos_norm[s], tpos_sim[s] = cand, cand_sim

        plans = {}
        for s in ("left", "right"):
            delay = params.reaction_delay * float(rng.uniform(0.85, 1.15))
            path, _ = generate_reach(params, current[s], tpos_sim[s], dt,
                                     rng=rng)
            plans[s] = _HandPlan(current[s], tpos_sim[s],
                                 t_appear + delay, path)

        overlap = {"left": 0, "right": 0}
        t_hit = {"left": None, "right": None}
        while frame < n_frames:
            t = float(times[frame])
            for s in ("left", "right"):
                p = plans[s].position(t, dt)
                if params.noise_sigma > 0 and t >= plans[s].t_start:
                    p = p + rng.normal(0.0, params.noise_sigma, 2)
                current[s] = p
                hand_pos[s][frame] = p
                if t_hit[s] is None:
                    if np.linalg.norm(p - tpos_sim[s]) < HIT_RADIUS:
                        overlap[s] += 1
                    else:
                        overlap[s] = 0
                    if overlap[s] >= HIT_FRAMES:
                        t_hit[s] = t
            frame += 1
            if t_hit["left"] is not None and t_hit["right"] is not None:
                break

        for s in ("left", "right"):
            events.append(TargetEvent(target_id=target_id, side=s,
                                      position=tpos_norm[s],
                                      t_appear=t_appear, t_hit=t_hit[s]))
        target_id += 1

    targets = TargetLog(tuple(sorted(events,
                                     key=lambda e: (e.t_appear, e.target_id,
                                                    e.side))))
    score = targets.score

    sway = rng.normal(0.0, 0.01, (n_frames, 2, 2))
    positions = {
        "left_wrist": hand_pos["left"],
        "right_wrist": hand_pos["right"],
        "left_shoulder": SHOULDERS["left_shoulder"] + sway[:, 0],
        "right_shoulder": SHOULDERS["right_shoulder"] + sway[:, 1],
    }
    # draw order (frame-major, joints as above) is pinned by the synth tests
    conf = np.empty((n_frames, len(positions)))
    for i in range(n_frames):
        for k in range(len(positions)):
            conf[i, k] = rng.uniform(0.80, 1.00)
            if rng.uniform() < 0.01:
                conf[i, k] = rng.uniform(0.10, 0.70)
    conf = np.round(conf, 6)
    skeleton = SkeletonSequence(participant_id, "webcam", fps, {
        joint: JointStream(np.arange(n_frames), times, sim_to_px(pos), conf[:, k])
        for k, (joint, pos) in enumerate(positions.items())})

    manifest = SessionManifest(
        participant_id=participant_id,
        age_years=age,
        play_area_px=PLAY_AREA_PX,
        native_fps=fps,
        camera_ids=("webcam",),
        score=score,
    )
    return ParticipantSession(
        participant_id=participant_id,
        age=age,
        skeletons=(skeleton,),
        targets=targets,
        score=score,
        manifest=manifest,
    )
