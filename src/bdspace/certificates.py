"""Checks, machine-checkable certificates and the run ledger.

Every exact check returns one Check: a verdict, the exact values it
computed, and a detail mapping of explanations.  `judge` turns the
outcome of a check into its verdict.  A Certificate binds a Check to a
named claim and to the exact inputs it was checked against (as a content
digest).  Serialization is canonical -- sorted keys, rationals as "p/q",
no timestamps -- so re-running a suite with identical inputs reproduces
every certificate byte for byte.

Verdicts:

  verified  -- the claim's prerequisites hold under the echoed schedule
               and the exact check passed;
  reported  -- the value was computed but the claim is not decidable at
               this scale (stage truncation, toy schedule, or missing
               growth prerequisites), so it carries no pass/fail weight;
  violated  -- an exact check failed.

Exit-code discipline: a run fails iff it emitted at least one violated
certificate; reported rows never affect the exit code.
"""

import hashlib
import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional

from .funcs import frac_str

VERIFIED = "verified"
REPORTED = "reported"
VIOLATED = "violated"

_VERDICTS = (VERIFIED, REPORTED, VIOLATED)


def judge(ok, decidable=True):
    """The verdict of a check: reported when the claim is not decidable
    at this scale, otherwise verified or violated as ok says."""
    if not decidable:
        return REPORTED
    return VERIFIED if ok else VIOLATED


@dataclass(frozen=True)
class Check:
    """The outcome of one exact check; values keep exact Fractions."""
    verdict: str
    values: dict
    detail: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == VERIFIED


def _canon(obj):
    """Recursively canonicalize: Fractions to "p/q", tuples to lists."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if type(obj) in (list, tuple):  # not a tuple subclass: a record
        return [_canon(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        raise TypeError("floats are not certifiable; use Fraction")
    if hasattr(obj, "to_json"):
        return _canon(obj.to_json())
    raise TypeError("cannot canonicalize %r" % (obj,))


def canonical_json(obj):
    """Deterministic JSON bytes: sorted keys, no whitespace variance."""
    return json.dumps(_canon(obj), sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def inputs_digest(inputs):
    """sha256 hex digest of the canonical JSON of the inputs mapping."""
    return hashlib.sha256(canonical_json(inputs)).hexdigest()


@dataclass(frozen=True)
class Certificate:
    claim_id: str
    claim: str
    schedule: dict
    inputs_digest: str
    values: dict
    verdict: str
    stage: Optional[int] = None
    net_policy: Optional[str] = None
    odd_guard: Optional[str] = None
    seed: Optional[int] = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError("verdict %r not in %r" % (self.verdict, _VERDICTS))

    def to_json(self):
        return {f.name: _canon(getattr(self, f.name)) for f in fields(self)}

    def to_bytes(self):
        return canonical_json(self.to_json())


def make_certificate(claim_id, claim, schedule, inputs, check, **kw):
    """Certify a Check: digest the inputs mapping, keep its verdict,
    values and detail."""
    sched = schedule.to_json() if hasattr(schedule, "to_json") else dict(schedule)
    return Certificate(claim_id=claim_id, claim=claim, schedule=sched,
                       inputs_digest=inputs_digest(inputs),
                       values=_canon(check.values), verdict=check.verdict,
                       detail=check.detail, **kw)


def emit_certificate(cert, sink):
    """Append one canonical JSON line to a writable text sink."""
    sink.write(cert.to_bytes().decode("ascii"))
    sink.write("\n")


class Ledger:
    """Collects certificates; optionally mirrors them to a JSON-lines file,
    one line per certificate.  The file holds one run: the ledger
    empties it when it opens it, so an unwritable path fails before any
    certificate is made."""

    def __init__(self, path=None):
        self.path = path
        self.certificates = []
        if path is not None:
            open(path, "w").close()

    def add(self, cert):
        self.certificates.append(cert)
        if self.path is not None:
            with open(self.path, "a") as fh:
                emit_certificate(cert, fh)
        return cert

    def counts(self):
        out = {v: 0 for v in _VERDICTS}
        for c in self.certificates:
            out[c.verdict] += 1
        return out

    @property
    def violated(self):
        return [c for c in self.certificates if c.verdict == VIOLATED]

    def exit_code(self):
        return 1 if self.violated else 0
