"""fbmlab: a numerical laboratory for the H = 1/6 fractional Brownian motion.

Exact path samplers, discrete variation functionals, exact finite-n
moments, and a Monte Carlo harness that checks the limit theorems,
constants, and moment bounds at desk scale.  No command samples the limit
law; fbmlab.oracle, which does, stays for the benchmark's tracer.  Each name
is imported from the module that defines it, e.g. fbmlab.sampler.sample_fbm.
"""

__version__ = "0.1.0"
