"""reachkin: kinematic analysis of bilateral reaching game sessions.

Submodules:
    model_io         domain types and session file formats
    preprocess       confidence gating, decimation, zero-phase filtering,
                     outlier repair
    reconstruct3d    two-view pose recovery and triangulation
    kinematics       reach segmentation, directness, velocity metrics
    progress_spline  progress-to-goal Bezier characterization
    stats            one-way ANOVA and Tukey HSD post-hoc tests
    agenet           temporal convolutional age regressor
    synth            synthetic cohort generator (ground-truth oracle)
    pipeline         end-to-end orchestration and artifact files
    cli              command-line interface
"""

__version__ = "0.1.0"
