"""The CLI property suite must pass wholesale on the shipped defaults."""

from hermite_needlets import verification


def test_all_suites_pass(catalogue):
    failures = [f"{r.suite}/{r.name}: {r.detail}" for r in catalogue.results if not r.passed]
    assert not failures, "\n".join(failures)


def test_every_suite_has_checks(catalogue):
    for name in verification.SUITES:
        assert sum(r.suite == name for r in catalogue.results) >= 3, name
