"""Walk through the analysis of one synthetic game session.

Generates a 20-second session for a 12-year-old, runs the cleaning and
segmentation stages, and prints what each reach looks like.
"""

import numpy as np

from reachkin import pipeline, synth

params = synth.age_mean_params(12)
session = synth.generate_session(params, age=12, seed=11,
                                 participant_id="demo", duration=20.0)
print(f"session: {session.participant_id}, age {session.age}, "
      f"score {session.score}")
print(f"targets logged: {len(session.targets.events)}")

config = pipeline.PipelineConfig()
frames = pipeline.session_frames(session, config)   # gated and decimated
print(f"frames at the working rate: {len(frames.streams['left_wrist'].frames)} "
      f"per joint, {frames.sample_rate:.0f} Hz")
clean = pipeline.preprocess_session(frames, config)  # low-pass filtered
summary, segments = pipeline.analyze_session(session, clean)

print(f"\nreaches extracted: {len(segments)} (shoulder-width units)")
for seg in segments:
    from reachkin import kinematics
    d = kinematics.segment_directness(seg)
    v = kinematics.max_speed(seg.path, seg.dt)
    dist = np.linalg.norm(seg.path[-1] - seg.path[0])
    print(f"  {seg.hand:>5} hand, target {seg.target.target_id}: "
          f"{seg.n_frames} frames, reach {dist:.2f} units, "
          f"directness {d:.3f}, peak speed {v:.2f} units/s")

print(f"\nparticipant medians: directness {summary.median_directness:.3f}, "
      f"max speed {summary.median_max_speed:.2f} units/s "
      f"(group {summary.group})")
