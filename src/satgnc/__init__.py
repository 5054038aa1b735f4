"""satgnc: satellite attitude guidance, navigation and control toolkit.

Rigid-body quaternion dynamics, sensor simulation, an optimized
quaternion-feedback PID, Takagi-Sugeno neuro-fuzzy control and estimation
trained from PID data, PWPF thruster modulation, and a Monte Carlo
robustness harness.  The package root exports nothing: callers import the
modules (satgnc.dynamics, satgnc.harness, ...), so importing one loads only
what it needs.
"""
