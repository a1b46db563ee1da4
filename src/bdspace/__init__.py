"""Exact-arithmetic toolkit for Bourgain-Delbaen-type space constructions.

Materializes finite stages of the index set Gamma, computes the
triangular dual basis and its biorthogonal vectors exactly, evaluates
mixed Tsirelson norms by dynamic programming, and runs the witness
constructions (lower estimates, exact pairs, dependent sequences, the
basic inequality) as machine-checkable certificates.
"""

__version__ = "0.1.0"

from .funcs import Func, frac_str, parse_frac
from .schedule import (ParameterSchedule, geometric_toy_schedule,
                       slow_toy_schedule, validate_schedule)
from .registry import ElementRecord, Registry
from .engine import Engine, Point
from .norms import NormInterval, sup_norm_interval
from .mtnorm import MTParams, mt_norm, mt_norm_exhaustive
from .certificates import Certificate, Check, Ledger, judge, make_certificate
from .errors import BDSpaceError
