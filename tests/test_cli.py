"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_programs_command(capsys):
    assert main(["programs"]) == 0
    out = capsys.readouterr().out
    assert "telecom_gsm" in out and "519.lbm_r" in out


def test_passes_command(capsys):
    assert main(["passes"]) == 0
    out = capsys.readouterr().out.split()
    assert "mem2reg" in out and "slp-vectorizer" in out


def test_motivate_command(capsys):
    assert main(["motivate"]) == 0
    out = capsys.readouterr().out
    assert "mem2reg slp-vectorizer" in out
    assert "x" in out  # speedup column


def test_tune_command_small_budget(capsys):
    rc = main([
        "tune", "security_sha", "--budget", "6", "--seed", "1",
        "--seq-length", "12", "--show-sequences",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "speedup/-O3" in out
    assert "[sha_transform]" in out


def test_tune_unknown_program():
    with pytest.raises(SystemExit):
        main(["tune", "not_a_program", "--budget", "2"])


def test_compare_command(capsys):
    rc = main([
        "compare", "security_sha", "--tuners", "random,ga", "--budget", "5",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "random" in out and "ga" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_diff_rejects_two_json_files(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        p.write_text('{"schema": "bench_surrogate"}')
    with pytest.raises(SystemExit) as exc:
        main(["diff", str(a), str(b)])
    message = str(exc.value.code)
    assert str(a) in message and "not a run directory" in message
