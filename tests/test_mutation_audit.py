"""The mutation audit's tables of rounding and decision sites against the tree.
The audit itself, one test run per mutant, is ``tests/mutation_audit.py``."""

import shutil

import mutation_audit


def test_every_site_is_found_exactly_once():
    # the rounding sites and the decision sites alike
    sites = mutation_audit.mutants()
    assert len(sites) == len(mutation_audit.SITES) + len(mutation_audit.DECISION_SITES)
    assert mutation_audit.missing_sites(mutation_audit.ROOT) == []


def test_every_equivalent_mutant_is_found_exactly_once_and_not_run():
    for path, text, replacement, reason in mutation_audit.EQUIVALENT_MUTANTS:
        assert (mutation_audit.ROOT / path).read_text(encoding="utf-8").count(text) == 1, text
        assert reason and replacement != text
    run = {(path, replacement) for path, _, replacement, _ in mutation_audit.mutants()}
    assert not run & {(path, r) for path, _, r, _ in mutation_audit.EQUIVALENT_MUTANTS}


def test_every_decision_site_names_one_test_file():
    for *_, tests in mutation_audit.DECISION_SITES:
        assert (mutation_audit.ROOT / tests).is_file(), tests


def test_a_decision_site_whose_text_is_missing_is_reported(tmp_path):
    shutil.copytree(mutation_audit.ROOT / "src", tmp_path / "src")
    path, text, replacement, _ = mutation_audit.DECISION_SITES[-1]
    target = tmp_path / path
    target.write_text(target.read_text(encoding="utf-8").replace(text, replacement), encoding="utf-8")
    assert mutation_audit.missing_sites(tmp_path) == [f"{path}: {text!r} found 0 times"]


def test_a_site_whose_text_is_missing_fails_the_audit(tmp_path, monkeypatch, capsys):
    shutil.copytree(mutation_audit.ROOT / "src", tmp_path / "src")
    path, text, replacement = mutation_audit.SITES[-1]
    target = tmp_path / path
    target.write_text(target.read_text(encoding="utf-8").replace(text, replacement), encoding="utf-8")
    (missing,) = mutation_audit.missing_sites(tmp_path)
    assert missing == f"{path}: {text!r} found 0 times"
    # the table is checked before any mutant runs
    monkeypatch.setattr(mutation_audit, "run_subset", None)
    monkeypatch.setattr(mutation_audit, "ROOT", tmp_path)
    assert mutation_audit.main() == 1
    assert missing in capsys.readouterr().out
