"""Markov-model congestion control toolkit.

Converts delay-based congestion-control behavior into a discrete-time
Markov model over composite (delay-change, window-change) states, runs
the trained model as a controller via a guided random walk, and analyzes
its convergence, all over a trace-driven bottleneck-link emulator.
"""

__version__ = "0.1.0"
