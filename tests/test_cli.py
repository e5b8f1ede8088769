import json

import pytest

from fsmforge.cli import main
from fsmforge.dsl import emit_dsl, parse_dsl
from fsmforge.jsonio import emit_json


@pytest.fixture()
def auction_path(corpus_dir):
    return str(corpus_dir / "blind_auction.fsm")


def test_check_ok(auction_path, capsys):
    assert main(["check", auction_path]) == 0
    assert capsys.readouterr().err == ""


def test_check_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("contract M { states { A; } }\n")  # no initial state
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "E_NO_INITIAL" in err


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("contract {\n")
    assert main(["check", str(bad)]) == 1
    assert "E_SYNTAX" in capsys.readouterr().err


def test_gen_to_stdout(auction_path, capsys):
    assert main(["gen", auction_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("contract BlindAuction{")
    assert "locking" in out and "transitionCounting" in out


def test_gen_plugin_override(auction_path, capsys):
    assert main(["gen", auction_path, "--plugins", ""]) == 0
    out = capsys.readouterr().out
    assert "locking" not in out and "transitionCounter" not in out

    assert main(["gen", auction_path, "--plugins", "locking,counter,timed,access,events"]) == 0
    out = capsys.readouterr().out
    assert "timedTransitions" in out and "onlyAdmin" in out


def test_gen_bad_plugin_is_usage_error(auction_path, capsys):
    assert main(["gen", auction_path, "--plugins", "bogus"]) == 2
    assert "unknown plugin" in capsys.readouterr().err


def test_gen_refuses_invalid_model(tmp_path, capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("""
contract M {
    states { initial A; }
    transition t from A to Nowhere { }
}
""")
    assert main(["gen", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "E_UNKNOWN_STATE" in captured.err


def test_gen_to_file(auction_path, tmp_path, capsys):
    out_path = tmp_path / "out.sol"
    assert main(["gen", auction_path, "-o", str(out_path)]) == 0
    assert out_path.read_text().startswith("contract BlindAuction{")
    assert capsys.readouterr().out == ""


def test_gen_accepts_json_input(auction_path, tmp_path, capsys):
    model = parse_dsl(open(auction_path).read())
    json_path = tmp_path / "auction.json"
    json_path.write_text(emit_json(model))
    assert main(["gen", str(json_path)]) == 0
    dsl_out = capsys.readouterr()
    assert main(["gen", auction_path]) == 0
    assert capsys.readouterr().out == dsl_out.out


def test_unknown_extension(tmp_path, capsys):
    path = tmp_path / "model.yaml"
    path.write_text("whatever")
    assert main(["check", str(path)]) == 2
    assert "extension" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["check", "/no/such/file.fsm"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unknown_command_and_no_args():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_sim_runs_scenario(auction_path, corpus_dir, capsys):
    scn = str(corpus_dir / "blind_auction_happy.scn")
    assert main(["sim", auction_path, "--scenario", scn]) == 0
    out = capsys.readouterr().out
    assert "final:" in out and "'state': 'F'" in out


def test_sim_failed_expectation(auction_path, tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("call close as alice n=0 expect ok\n")
    assert main(["sim", auction_path, "--scenario", str(scn)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_sim_bad_scenario_syntax(auction_path, tmp_path, capsys):
    scn = tmp_path / "broken.scn"
    scn.write_text("frobnicate\n")
    assert main(["sim", auction_path, "--scenario", str(scn)]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_fmt_prints_canonical_form(auction_path, capsys):
    assert main(["fmt", auction_path]) == 0
    out = capsys.readouterr().out
    model = parse_dsl(open(auction_path).read())
    assert out == emit_dsl(model)


def test_fmt_write_is_idempotent(auction_path, tmp_path, capsys):
    work = tmp_path / "copy.fsm"
    work.write_text(open(auction_path).read())
    assert main(["fmt", str(work), "--write"]) == 0
    first = work.read_text()
    assert main(["fmt", str(work), "--write"]) == 0
    assert work.read_text() == first
    assert parse_dsl(first) == parse_dsl(open(auction_path).read())


def test_fmt_json(tmp_path, auction_path, capsys):
    model = parse_dsl(open(auction_path).read())
    path = tmp_path / "m.json"
    path.write_text(emit_json(model))
    assert main(["fmt", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "BlindAuction"


def test_examples_lists_corpus(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "blind_auction.fsm" in out
    assert "voting.fsm" in out
    assert "rock_paper_scissors.fsm" in out
    assert "blind_auction_happy.scn" in out


def test_repl(auction_path, capsys, monkeypatch):
    lines = iter(["call bid as alice n=0 expect ok", "assert state=ABB", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert main(["repl", auction_path]) == 0
    out = capsys.readouterr().out
    assert "Executed" in out and "state=ABB" in out


def test_repl_handles_eof_and_errors(auction_path, capsys, monkeypatch):
    lines = iter(["frobnicate"])

    def fake_input(prompt=""):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)
    assert main(["repl", auction_path]) == 0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("model, lines, initial, message", [
    ("voting.fsm", ["time 300000", "call cast as alice g0=true expect ok"], "Setup",
     "line 2: guard variable 'votesCast' is not bound in env"),
    ("blind_auction.fsm", ["call bid as alice expect ok"], "ABB",
     "line 1: counter plugin is enabled; call to 'bid' needs a transition number"),
    ("blind_auction.fsm", ["call bid as alice n=0 g7=true expect ok"], "ABB",
     "line 1: call to 'bid' overrides g7, but it has 0 guard(s)"),
    ("rock_paper_scissors.fsm", ["admin add bob by deployer expect ok"], "Play",
     "line 1: access_control plugin is not enabled"),
], ids=["unbound-variable", "call-without-n", "override-past-the-guards",
        "admin-without-access-control"])
def test_step_the_simulator_refuses_is_a_usage_error(corpus_dir, tmp_path, capsys, monkeypatch,
                                                     model, lines, initial, message):
    path = str(corpus_dir / model)
    scn = tmp_path / "refused.scn"
    scn.write_text("\n".join(lines) + "\n")
    assert main(["sim", path, "--scenario", str(scn)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"scenario error: {message}\n"

    feed = iter(lines + [f"assert state={initial}", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    assert main(["repl", path]) == 0
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert f"ok: assert state={initial}" in captured.out  # the session kept running
