"""Non-intersecting directed polymers in random environments.

Partition functions (the anti-diagonal scan, geometric RSK, the k-path
transfer, brute force), exact Bareiss determinants for path counts and
Toeplitz minors, seeded random environments with quantile coupling,
stochastic interfaces and their Gibbs samplers, Szego/Toeplitz asymptotics,
random matrix sampling oracles, and the limit-shape / surface-tension
formulas.
"""

__version__ = "0.1.0"
