"""capsloc: capsule-robot localization by multi-rate LSTM sensor fusion.

Submodules:
    geometry   SE(3) pose algebra, trajectories, error metrics
    simkit     seeded simulator for motion and sensor streams
    magloc     5-DoF magnetic localization (dipole-model inversion)
    evoalign   windowed sparse feature-correspondence alignment
    neuralcore from-scratch LSTM / BPTT / Adam building blocks
    fusenet    fusion network, training loop, checkpoints
    evalbench  RMSE-vs-path-length evaluation
    cli        command-line pipelines
"""

__version__ = "0.1.0"
