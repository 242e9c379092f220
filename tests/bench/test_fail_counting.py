"""The benchmark counts failures: a wrong output can never pass as
correct."""

import repro.experiments
from bench import workloads
from bench.workloads import merge_points, run_fuzz, run_report_workload


def test_fuzz_with_a_broken_model_fails_every_iteration_from_the_first_failure():
    # Seed 2 fails at its fifth iteration without the release fence.
    out = run_fuzz(2, smoke=True, inject="bc-no-release-fence")
    (point,) = out.points
    assert point["attempted"] == workloads.SMOKE_FUZZ_ITERS
    assert point["failed"] == point["attempted"] - out.items
    assert 0 < point["failed"] / point["attempted"] < 1


def test_clean_fuzz_fails_nothing():
    (point,) = run_fuzz(2, smoke=True).points
    assert point["failed"] == 0


REPORT = "# Reproduction report\n\nGate verdict: **ok** — 3 row(s), 0 mismatch(es).\n"


def test_report_against_a_perturbed_expected_text_fails(monkeypatch):
    monkeypatch.setattr(repro.experiments, "run_report", lambda out, **kw: out.write(REPORT))
    monkeypatch.setattr(workloads, "expected_report", lambda smoke: REPORT)
    ok = run_report_workload(0, smoke=False)
    assert [p["failed"] for p in ok.points] == [0]
    assert ok.counts["axiom.rows"] == 3

    monkeypatch.setattr(workloads, "expected_report", lambda smoke: REPORT.replace("ok", "OK"))
    bad = run_report_workload(0, smoke=False)
    assert [(p["attempted"], p["failed"]) for p in bad.points] == [(1, 1)]


def test_a_raising_report_fails(monkeypatch):
    def boom(out, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(repro.experiments, "run_report", boom)
    (point,) = run_report_workload(0, smoke=False).points
    assert point["failed"] == 1 and "boom" in point["error"]


def _point(key, attempted, failed=0, digest="d"):
    return {"key": key, "attempted": attempted, "failed": failed, "digest": digest}


def test_a_digest_mismatch_fails_the_whole_point():
    a = [_point("primitives+cbl@1", 100), _point("wbi+tts@1", 50)]
    b = [_point("primitives+cbl@1", 100), _point("wbi+tts@1", 50, digest="other")]
    assert merge_points([a, a]) == {"attempted": 150, "failed": 0}
    assert merge_points([a, b]) == {"attempted": 150, "failed": 50}


def test_unserved_requests_and_raising_points_fail():
    served_short = [_point("p", 100, failed=7)]
    raised = [{**_point("p", 1, failed=1, digest=None), "error": "Traceback ..."}]
    assert merge_points([served_short]) == {"attempted": 100, "failed": 7}
    assert merge_points([served_short, raised]) == {"attempted": 100, "failed": 100}
