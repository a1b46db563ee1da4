"""Certificate canonicalization, digests, and the ledger."""

import json
from fractions import Fraction

import pytest

from bdspace.certificates import (Certificate, Check, Ledger, canonical_json,
                                  emit_certificate, inputs_digest, judge,
                                  make_certificate)
from bdspace.schedule import validate_schedule

SCHED = validate_schedule((4, 16), (6, 1))


def cert(verdict="verified", seed=7):
    return make_certificate(
        "demo", "a demonstration claim", SCHED,
        {"stage": 6, "x": Fraction(1, 3)},
        Check(verdict, {"value": Fraction(-2, 5), "count": 3}),
        stage=6, net_policy="units", odd_guard="waive", seed=seed)


def test_canonical_json_sorts_and_renders_fractions():
    b = canonical_json({"b": Fraction(2, 4), "a": [Fraction(-1), 2, None]})
    assert b == b'{"a":["-1/1",2,null],"b":"1/2"}'


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        canonical_json({"x": 0.5})


def test_digest_is_input_sensitive():
    d1 = inputs_digest({"stage": 6})
    d2 = inputs_digest({"stage": 7})
    assert d1 != d2 and len(d1) == 64


def test_byte_identical_reruns():
    assert cert().to_bytes() == cert().to_bytes()
    assert cert(seed=8).to_bytes() != cert(seed=7).to_bytes()


def test_no_timestamps_in_serialization():
    data = json.loads(cert().to_bytes())
    assert "time" not in " ".join(data).lower()
    assert set(data) == {"claim_id", "claim", "schedule", "inputs_digest",
                         "values", "verdict", "stage", "net_policy",
                         "odd_guard", "seed", "detail"}


def test_invalid_verdict():
    with pytest.raises(ValueError):
        cert(verdict="maybe")


def test_judge_and_passed():
    assert judge(True) == "verified" and judge(False) == "violated"
    assert judge(True, decidable=False) == "reported"
    assert Check(judge(True), {}).passed
    assert not Check(judge(True, decidable=False), {}).passed
    assert not Check(judge(False), {}).passed


def test_certificate_keeps_the_check():
    data = json.loads(cert().to_bytes())
    assert data["verdict"] == "verified" and data["detail"] == {}
    c = make_certificate("demo", "claim", SCHED, {}, Check(
        "violated", {"x": Fraction(1, 2)}, {"why": [(1, Fraction(2))]}))
    data = json.loads(c.to_bytes())
    assert data["values"] == {"x": "1/2"}
    assert data["detail"] == {"why": [[1, "2/1"]]}


def test_ledger_exit_codes(tmp_path):
    path = tmp_path / "ledger.jsonl"
    led = Ledger(path=str(path))
    led.add(cert("verified"))
    led.add(cert("reported"))
    assert led.exit_code() == 0           # reported rows never fail a run
    led.add(cert("violated"))
    assert led.exit_code() == 1
    assert led.counts() == {"verified": 1, "reported": 1, "violated": 1}
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 3
    assert rows[0]["verdict"] == "verified"


def test_emit_appends_one_line_per_certificate(tmp_path):
    path = tmp_path / "out.jsonl"
    with open(path, "w") as fh:
        emit_certificate(cert(), fh)
        emit_certificate(cert("reported"), fh)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[0])["claim_id"] == "demo"


def test_values_render_as_exact_rationals():
    data = json.loads(cert().to_bytes())
    assert data["values"]["value"] == "-2/5"
    assert data["values"]["count"] == 3
