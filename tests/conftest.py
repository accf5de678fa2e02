import re

import hypothesis

# one profile for every property test: the same examples on every run, no
# per-example deadline on a shared machine, a bounded example count and no
# example database, so that the suite stays deterministic
hypothesis.settings.register_profile(
    "sidshrink", derandomize=True, deadline=None, max_examples=60, database=None)
hypothesis.settings.load_profile("sidshrink")

# criterion number -> short label for the summary block
_CRITERIA = {
    "1": "identity-weight risk table",
    "2": "cva/n4sid directional reproduction",
    "3": "noiseless recovery and shrinker no-op",
    "4": "SURE unbiasedness oracle",
    "5": "optimal-shrinker dominance",
    "6": "Gibbs correctness suite",
    "7": "pipeline algebra suite",
    "8": "determinism",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion."""
    status = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            m = _PATTERN.search(report.nodeid)
            if not m:
                continue
            key = m.group(1)
            ok = outcome == "passed"
            status[key] = status.get(key, True) and ok
    if not status:
        return
    tw = terminalreporter
    tw.write_sep("=", "acceptance criteria")
    for key in sorted(_CRITERIA):
        if key not in status:
            continue
        verdict = "PASS" if status[key] else "FAIL"
        tw.write_line(f"criterion {key} ({_CRITERIA[key]}): {verdict}")
