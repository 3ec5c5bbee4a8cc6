"""The mutation audit's table of directed-rounding sites against the tree.
The audit itself, one test run per mutant, is ``tests/mutation_audit.py``."""

import shutil

import mutation_audit


def test_every_site_is_found_exactly_once():
    assert mutation_audit.missing_sites(mutation_audit.ROOT) == []


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
