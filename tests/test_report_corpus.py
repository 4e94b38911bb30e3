"""The committed report corpus: every configuration of
make_report_corpus.CONFIGS, run in-process through cli.run, gives the
report bytes recorded in report_corpus.json, apart from runtime_ms.  A
failure names each configuration and field that moved."""

import dataclasses
import json

from hlp_sharp import constants, morrey

import make_report_corpus as corpus

EXPECTED = json.loads(corpus.CORPUS.read_text())


def _differences(out_dir, prefixes=("",)):
    """The differences of every configuration whose name starts with one of
    prefixes."""
    return [
        line
        for entry in EXPECTED["configs"]
        if entry["name"].startswith(prefixes)
        for line in corpus.differences(
            entry, corpus.run_config(entry["argv"], entry["thin_grid"], out_dir)
        )
    ]


def test_corpus_holds_every_configuration():
    assert len(corpus.CONFIGS) >= 40
    assert [e["name"] for e in EXPECTED["configs"]] == [
        corpus.config_name(*c) for c in corpus.CONFIGS
    ]


def test_reports_match_the_corpus(tmp_path):
    assert corpus.versions() == EXPECTED["versions"], (
        f"the corpus was made with {EXPECTED['versions']}, this run has "
        f"{corpus.versions()}: the bits depend on them"
    )
    diffs = _differences(tmp_path)
    assert not diffs, "\n".join(diffs)


def test_corpus_catches_a_relative_change_to_every_ball_rule_weight(tmp_path, monkeypatch):
    rule_of = morrey.ball_rule

    def perturbed(*args):
        rule = rule_of(*args)
        return dataclasses.replace(rule, weights=rule.weights * (1.0 + 1e-12))

    monkeypatch.setattr(morrey, "ball_rule", perturbed)
    diffs = _differences(tmp_path, ("--command morrey-norm", "--command verify-dilation --n 1"))
    # a record reports only its argmax cell, and morrey-norm's is an exact
    # origin cell; verify-dilation's worst ratio moves with every cell
    assert any(d.startswith("--command verify-dilation --n 1:") and ") oracle: " in d
               for d in diffs), diffs


def test_corpus_catches_a_relative_change_to_the_hlp_oracle(tmp_path, monkeypatch):
    closed_form, oracle = constants.KINDS["hlp"]
    monkeypatch.setitem(
        constants.KINDS, "hlp", (closed_form, lambda *args: oracle(*args) * (1.0 + 1e-12))
    )
    diffs = _differences(tmp_path, ("--command constant", "--command oracle-compare"))
    assert any(
        d.startswith("--command oracle-compare --n 1: record 0 (hlp-constant m=1 n=1) oracle: ")
        for d in diffs
    ), diffs
