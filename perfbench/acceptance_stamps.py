"""pytest plugin: record each acceptance criterion's elapsed time.

`tests/test_acceptance.py` reports a criterion through `_stamp(num, started,
budget, detail)`, which prints the elapsed time to one decimal.  This plugin
wraps that module global for the session and writes the full-precision
elapsed time and the outcome of every criterion to the JSON file named by
$PERFBENCH_STAMPS.  A criterion whose test fails before its stamp falls back
to the test call's duration.  The test file itself is never changed.
"""

import json
import os
import time

_RECORDED: dict[str, float] = {}
_FALLBACK: dict[str, float] = {}
_OUTCOME: dict[str, str] = {}


def pytest_collection_modifyitems(session, config, items):
    for item in items:
        module = getattr(item, "module", None)
        stamp = getattr(module, "_stamp", None)
        if stamp is None or getattr(stamp, "_perfbench", False):
            continue

        def recording_stamp(num, started, budget, detail, _orig=stamp):
            _RECORDED[str(num)] = time.monotonic() - started
            return _orig(num, started, budget, detail)

        recording_stamp._perfbench = True
        module._stamp = recording_stamp


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_criterion_" in report.nodeid:
        num = report.nodeid.split("test_criterion_")[1].split("_")[0]
        _FALLBACK[num] = report.duration
        _OUTCOME[num] = report.outcome


def pytest_sessionfinish(session, exitstatus):
    path = os.environ.get("PERFBENCH_STAMPS")
    if path:
        with open(path, "w") as fh:
            json.dump({"elapsed": {**_FALLBACK, **_RECORDED}, "outcome": _OUTCOME}, fh)
