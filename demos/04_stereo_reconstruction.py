"""Two-view triangulation with a known camera rig, with and without pixel
noise.

Both poses are given, as ``reachkin reconstruct`` reads them from its
``--calibration`` file. The demo triangulates one point at a time with
``triangulate``; ``triangulate_sequences`` runs the same solver batched over
every frame of a joint, as ``reconstruct`` does.
"""

import numpy as np

from reachkin import reconstruct3d as r3d

intr = r3d.Intrinsics(fx=800.0, fy=800.0, cx=320.0, cy=240.0)

# ground-truth rig: second camera 1 unit to the right, toed in by 0.3 rad
angle = -0.3
R = np.array([[np.cos(angle), 0.0, np.sin(angle)],
              [0.0, 1.0, 0.0],
              [-np.sin(angle), 0.0, np.cos(angle)]])
t = -R @ np.array([1.0, 0.0, 0.0])
cam1 = r3d.make_camera("cam1", intr)
cam2 = r3d.make_camera("cam2", intr, R, t)

rng = np.random.default_rng(0)
points = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50),
                          rng.uniform(3, 6, 50)])
px1, px2 = cam1.project(points), cam2.project(points)

errs = []
for X, a, b in zip(points, px1, px2):
    Xh, rms = r3d.triangulate(a, b, cam1, cam2)
    errs.append(np.linalg.norm(Xh - X))
print(f"noiseless triangulation: max error {max(errs):.2e} units")

for sigma in (0.5, 1.0, 2.0):
    errs = []
    for X in points:
        a = cam1.project(X) + rng.normal(0, sigma, 2)
        b = cam2.project(X) + rng.normal(0, sigma, 2)
        Xh, _ = r3d.triangulate(a, b, cam1, cam2)
        errs.append(np.linalg.norm(Xh - X))
    print(f"pixel noise sigma {sigma:.1f}: median 3D error "
          f"{np.median(errs):.4f} units")
