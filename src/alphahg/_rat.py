"""Name of the exact-arithmetic backend, for records of a run's environment.

Public APIs speak :class:`fractions.Fraction`; the LP tableau and the
brute-force subset kernels clear denominators once and then run on
plain Python ints.  There is no other backend.
"""

BACKEND = "fractions"
