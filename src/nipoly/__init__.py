"""Non-intersecting directed polymers in random environments.

Partition functions from three engines, one module each: the anti-diagonal
scan (scan), geometric RSK (rsk) and the k-path transfer (kpath), drawn and
driven by polymer, which also keeps brute force as their oracle.  Exact
Bareiss determinants for path counts and Toeplitz minors, seeded random
environments with quantile coupling, stochastic interfaces sampled exactly
through geometric RSK, Szego/Toeplitz asymptotics, random matrix sampling
oracles, and the limit-shape / surface-tension formulas.
"""

__version__ = "0.1.0"
