import json

import pytest

from lrwkit.verify import CheckResult, VerifyReport, run_verify_suite


@pytest.fixture(scope="module")
def full_report():
    return run_verify_suite("full")


class TestQuick:
    def test_all_pass(self):
        report = run_verify_suite("quick")
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == []
        assert report.ok

    def test_report_counts_match_checks(self):
        report = run_verify_suite("quick")
        payload = report.to_jsonable()
        assert payload["summary"]["total"] == len(payload["checks"])
        assert payload["summary"]["passed"] + payload["summary"]["failed"] == len(
            payload["checks"]
        )

    def test_deterministic_json(self):
        assert run_verify_suite("quick").to_json() == run_verify_suite("quick").to_json()

    def test_bad_level(self):
        with pytest.raises(ValueError):
            run_verify_suite("medium")


class TestFull:
    def test_all_pass(self, full_report):
        failing = [c.name for c in full_report.checks if not c.passed]
        assert failing == []

    def test_full_extends_quick(self, full_report):
        quick = {c.name for c in run_verify_suite("quick").checks}
        full = {c.name for c in full_report.checks}
        assert quick < full

    def test_json_round_trips(self):
        report = run_verify_suite("quick")
        parsed = json.loads(report.to_json())
        assert parsed["level"] == "quick"
        assert all(c["status"] == "pass" for c in parsed["checks"])


class TestReportShape:
    def test_check_result_serialization(self):
        check = CheckResult("demo", False, "1", "2")
        assert check.to_jsonable() == {
            "name": "demo",
            "status": "fail",
            "expected": "1",
            "actual": "2",
        }

    def test_failed_check_fails_report(self):
        report = VerifyReport("quick", (CheckResult("demo", False, "1", "2"),))
        assert not report.ok
        assert report.failed == 1
