"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "model.json")
    assert main(["train", "--out", path, "--probes", "8"]) == 0
    return path


def test_train_writes_valid_model(model_path):
    with open(model_path) as handle:
        data = json.load(handle)
    assert data["format_version"] == 2
    assert data["trained_on"].startswith("de0-cv")


def test_simulate_program(model_path, tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("li t0, 3\nmul t1, t0, t0\nebreak\n")
    csv_path = tmp_path / "out.csv"
    assert main(["simulate", "--model", model_path, str(source),
                 "--csv", str(csv_path)]) == 0
    output = capsys.readouterr().out
    assert "instructions" in output
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "cycle,execute_stage,amplitude"
    assert len(lines) > 5


def test_profile_prints_spans_and_leaves_recording_off(model_path, tmp_path,
                                                      capsys):
    from repro.observability import get_metrics, get_tracer
    source = tmp_path / "profiled.s"
    # a program no other test simulates, so sim.trace misses the cache
    source.write_text("li t0, 7\naddi t1, t0, 5\nxor t2, t1, t0\nebreak\n")
    assert main(["--profile", "simulate", "--model", model_path,
                 str(source)]) == 0
    output = capsys.readouterr().out
    assert "| `sim.trace` | 1 |" in output
    assert not get_tracer().enabled and get_tracer().spans == []
    assert not get_metrics().enabled and get_metrics().counters == {}


def test_savat_command(model_path, capsys):
    assert main(["savat", "--model", model_path,
                 "--pairs", "ADD/NOP,NOP/NOP"]) == 0
    output = capsys.readouterr().out
    assert "SAVAT ADD/NOP" in output
    assert "SAVAT NOP/NOP" in output


def test_balance_command(tmp_path, capsys):
    source = tmp_path / "leaky.s"
    source.write_text("""
    li t0, 5
    li t1, 3
    beqz t1, skip
    mul t2, t0, t1
skip:
    ebreak
""")
    out = tmp_path / "balanced.s"
    assert main(["balance", str(source), "--out", str(out)]) == 0
    text = out.read_text()
    assert "mul zero" in text  # the dummy clone
    # the balanced file is itself valid assembly
    from repro.isa import assemble
    assemble(text)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_bad_board_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["train", "--out", str(tmp_path / "m.json"),
              "--board", "nexys"])


def test_corrupt_model_exit_code(tmp_path, capsys):
    """A corrupt model file exits with the ModelFormatError code (14)
    and a one-line message, not a traceback."""
    from repro.robustness import ModelFormatError
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    assert main(["savat", "--model", str(bad)]) == \
        ModelFormatError("x", path="y").exit_code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(bad) in err


def test_tampered_model_exit_code(model_path, tmp_path, capsys):
    data = json.loads(open(model_path).read())
    data["intercept"] = float(data["intercept"]) + 0.5
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    assert main(["savat", "--model", str(tampered)]) == 14
    assert "checksum" in capsys.readouterr().err


def test_non_numeric_workers_exit_code(tmp_path, capsys):
    """``--workers fast`` exits with the ConfigurationError code (16)
    and names the offending value — not argparse's usage error (2)."""
    from repro.robustness import ConfigurationError
    assert main(["train", "--out", str(tmp_path / "m.json"),
                 "--workers", "fast"]) == ConfigurationError("x").exit_code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "'fast'" in err


def test_non_numeric_workers_all_commands(model_path, tmp_path, capsys):
    """Every --workers-bearing subcommand validates through
    resolve_workers (exit 16), before doing any campaign work."""
    commands = [
        ["train", "--out", str(tmp_path / "m.json"), "--workers", "soon"],
        ["accuracy", "--model", model_path, "--workers", "many"],
        ["savat", "--model", model_path, "--workers", "½"],
    ]
    for argv in commands:
        assert main(argv) == 16, argv
        assert "worker count" in capsys.readouterr().err


def test_workers_auto_accepted(model_path, capsys):
    """``--workers auto`` still resolves (satellite regression guard)."""
    assert main(["savat", "--model", model_path,
                 "--pairs", "NOP/NOP", "--workers", "auto"]) == 0
    assert "SAVAT NOP/NOP" in capsys.readouterr().out


def test_train_checkpoint_resume_identical_model(tmp_path):
    """CLI train with --checkpoint-dir then --resume yields the same
    model bytes as a plain run."""
    plain = tmp_path / "plain.json"
    assert main(["train", "--out", str(plain), "--probes", "4"]) == 0
    ckpt_dir = str(tmp_path / "ckpt")
    first = tmp_path / "first.json"
    assert main(["train", "--out", str(first), "--probes", "4",
                 "--checkpoint-dir", ckpt_dir]) == 0
    resumed = tmp_path / "resumed.json"
    assert main(["train", "--out", str(resumed), "--probes", "4",
                 "--checkpoint-dir", ckpt_dir, "--resume"]) == 0
    assert first.read_text() == resumed.read_text()
