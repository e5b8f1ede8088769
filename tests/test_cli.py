import json
from pathlib import Path

import pytest

from fsmforge.cli import main
from fsmforge.dsl import emit_dsl, parse_dsl
from fsmforge.jsonio import emit_json
from test_guards import DEEP_GUARDS


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


def test_check_a_timed_action_may_assign_a_variable_named_like_an_input(tmp_path, capsys):
    # Inside `timedTransitions` the name is the state variable, so the
    # generated code compiles.
    path = tmp_path / "shared.fsm"
    path.write_text("""contract R {
    states { initial A; B; }
    plugins { timed; }
    var public uint amount;
    transition go from A to B { input (uint amount); }
    timed tt from A to B at 60 seconds { action { amount = 0; } }
}
""")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr() == ("", "")


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("contract {\n")
    for command in ("check", "fmt"):
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr() == (
            "", f"error E_SYNTAX at {bad}:1:10: expected contract name\n")


def test_check_points_at_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "name": "M",\n  "states": [1 2]\n}\n')
    assert main(["check", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error E_SYNTAX at {bad}:3:16: invalid JSON: ")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)  # deeper than the recursion limit: no span
    assert main(["check", str(deep)]) == 1
    assert capsys.readouterr().err.startswith("error E_SYNTAX: invalid JSON: ")


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


def test_sim_and_repl_refuse_an_invalid_model_before_the_scenario(tmp_path, capsys,
                                                                 monkeypatch):
    bad = tmp_path / "bad.fsm"
    bad.write_text("contract M { states { A; } }\n")  # no initial state
    monkeypatch.setattr("builtins.input", lambda prompt="": pytest.fail("repl read a step"))
    for argv in (["sim", str(bad), "--scenario", str(tmp_path / "missing.scn")],
                 ["repl", str(bad)]):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == (
            "", "error E_NO_INITIAL (initial): no initial state is declared\n")


def test_unknown_extension(tmp_path, capsys):
    path = tmp_path / "model.yaml"
    path.write_text("whatever")
    assert main(["check", str(path)]) == 2
    assert "extension" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["check", "/no/such/file.fsm"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unreadable_and_unwritable_files_are_usage_errors(auction_path, tmp_path, capsys,
                                                         monkeypatch):
    binary = tmp_path / "binary.fsm"
    binary.write_bytes(b"\xff\xfe\x00bad")
    for argv in (["check", str(binary)], ["gen", str(binary)], ["fmt", str(binary)],
                 ["sim", auction_path, "--scenario", str(binary)]):
        assert main(argv) == 2, argv
        assert f"error: cannot read {binary}: " in capsys.readouterr().err
    missing_dir = tmp_path / "nodir" / "x.sol"
    assert main(["gen", auction_path, "-o", str(missing_dir)]) == 2
    assert f"error: cannot write {missing_dir}: " in capsys.readouterr().err

    def refuse(path, *args, **kwargs):  # a file mode would not stop a superuser
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(Path, "write_text", refuse)
    assert main(["fmt", "-w", auction_path]) == 2
    assert capsys.readouterr().err == f"error: cannot write {auction_path}: Permission denied\n"


def test_sim_on_a_guard_literal_past_the_digit_limit(tmp_path, capsys):
    model = tmp_path / "big.fsm"
    model.write_text("contract B { states { initial S; } "
                     "transition go from S to S { guard { 1" + "0" * 5000 + " > 0 } } }")
    scn = tmp_path / "go.scn"
    scn.write_text("call go as alice expect ok\n")
    assert main(["check", str(model)]) == 0
    assert main(["sim", str(model), "--scenario", str(scn)]) == 1  # opaque: needs g0=
    assert "Reverted(MissingOverride)" in capsys.readouterr().out
    scn.write_text("call go as alice g0=true expect ok\n")
    assert main(["sim", str(model), "--scenario", str(scn)]) == 0


def test_sim_on_guards_past_the_depth_bound(tmp_path, capsys):
    scn = tmp_path / "go.scn"
    scn.write_text("call go as alice expect ok\n")
    model = tmp_path / "deep.fsm"
    for guard in DEEP_GUARDS.values():
        model.write_text("contract D { states { initial S; } "
                         f"transition go from S to S {{ guard {{ {guard(1500)} > 0 }} }} }}")
        assert main(["check", str(model)]) == 0
        assert main(["sim", str(model), "--scenario", str(scn)]) == 1  # opaque: needs g0=
        out, err = capsys.readouterr()
        assert "Reverted(MissingOverride)" in out and "Traceback" not in err


def test_sim_reads_a_time_unit_after_a_newline_or_comment(tmp_path, capsys):
    scn = tmp_path / "go.scn"
    scn.write_text("call go as alice expect revert:GuardFailed\n"
                   "time 432001\ncall go as alice expect ok\nassert state=T\n")
    model = tmp_path / "unit.fsm"
    for guard in ("now > creationTime + 5\n  days", "now > 5 /* five */ days"):
        model.write_text("contract U { states { initial S; T; } "
                         f"transition go from S to T {{ guard {{ {guard} }} }} }}")
        assert main(["check", str(model)]) == 0
        assert main(["sim", str(model), "--scenario", str(scn)]) == 0, guard
        assert "MissingOverride" not in capsys.readouterr().out


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


def test_sim_timed_guard_override(tmp_path, capsys):
    # Once an opaque timed guard is due, only a timed: override lets calls run.
    model = tmp_path / "tick.fsm"
    model.write_text("contract T { states { initial A; B; } plugins { timed; } "
                     "transition stay from A to A { } "
                     "timed tick from A to B at 1 days { guard { votes[msg.sender] > 0 } } }")
    scn = tmp_path / "tick.scn"
    scn.write_text("time 100000\ncall stay as alice expect ok\n")
    assert main(["sim", str(model), "--scenario", str(scn)]) == 1
    scn.write_text("time 100000\ncall stay as alice timed:tick=false expect ok\n")
    assert main(["sim", str(model), "--scenario", str(scn)]) == 0
    assert "Reverted(MissingOverride)" in capsys.readouterr().out


def test_sim_bad_scenario_syntax(auction_path, tmp_path, capsys):
    scn = tmp_path / "broken.scn"
    scn.write_text("frobnicate\n")
    assert main(["sim", auction_path, "--scenario", str(scn)]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_sim_prints_each_repeated_line_with_its_own_number(auction_path, tmp_path, capsys):
    close = "call close as alice n=0 expect revert:GuardFailed"
    scn = tmp_path / "repeat.scn"
    scn.write_text(f"{close}\nassert state=ABB\n\n{close}\n  assert state=ABB # again\n{close}\n")
    assert main(["sim", auction_path, "--scenario", str(scn)]) == 0
    assert capsys.readouterr().out == "".join(
        f"{line_no:>4} ok: {text}\n" for line_no, text in [
            (1, f"{close} -> Reverted(GuardFailed)"), (2, "assert state=ABB -> state=ABB"),
            (4, f"{close} -> Reverted(GuardFailed)"), (5, "assert state=ABB -> state=ABB"),
            (6, f"{close} -> Reverted(GuardFailed)")]
    ) + "final: {'state': 'ABB', 'counter': 0, 'admins': [], 'now': 0}\n"


HAPPY_STDOUT = """\
   3 ok: call bid as alice n=0 expect ok -> Executed
   4 ok: assert state=ABB -> state=ABB
   5 ok: call close as alice n=1 expect revert:GuardFailed -> Reverted(GuardFailed)
   6 ok: time 432000 -> now=432000
   7 ok: call close as alice n=1 expect ok -> Executed
   8 ok: assert state=RB -> state=RB
   9 ok: call reveal as alice n=2 g0=true expect ok -> Executed
  10 ok: time 864000 -> now=864000
  11 ok: call finish as bob n=3 expect ok -> Executed
  12 ok: assert state=F -> state=F
  13 ok: call withdraw as alice n=4 expect ok -> Executed
  14 ok: assert state=F -> state=F
  15 ok: assert counter=5 -> counter=5
final: {'state': 'F', 'counter': 5, 'admins': [], 'now': 864000}
"""

KINDS_FSM = """contract Kinds {
    states { initial A; B; }
    plugins { locking; timed; access; events; }
    var private uint k;
    transition go from A to B tags (event) { guard { k > 1 } }
    transition back from B to A tags (admin) { }
    transition stay from B to B { }
    transition idle from A to A { }
    timed late from B to A at 1 days { }
}
"""

KINDS_SCN = """# every step kind
env k=2 j=-1
call go as alice reenter=go expect ok
assert state=B
call back as alice expect ok        # alice is no admin yet
admin add alice by deployer expect ok
admin add bob by mallory expect revert
assert admin(alice)=true
call back as alice expect ok
call back as bob expect revert:Locked
assert counter=0
env k=0
call go as bob expect revert:GuardFailed
env k=5
call go as bob expect ok
time 100000
call stay as bob expect ok
call idle as bob expect ok
assert state=A
time 50
admin remove alice by alice expect ok
assert admin(bob)=true
"""

KINDS_STDOUT = """\
   2 ok: env k=2 j=-1 -> env updated
   3 ok: call go as alice reenter=go expect ok -> Executed events=['Eventgo'] probe=Reverted(Locked)
   4 ok: assert state=B -> state=B
   5 FAIL: call back as alice expect ok -> Reverted(NotAdmin)
   6 ok: admin add alice by deployer expect ok -> Executed
   7 ok: admin add bob by mallory expect revert -> Reverted(NotAdmin)
   8 ok: assert admin(alice)=true -> admin(alice)=true
   9 ok: call back as alice expect ok -> Executed
  10 FAIL: call back as bob expect revert:Locked -> Reverted(NotAdmin)
  11 ok: assert counter=0 -> counter=0
  12 ok: env k=0 -> env updated
  13 ok: call go as bob expect revert:GuardFailed -> Reverted(GuardFailed)
  14 ok: env k=5 -> env updated
  15 ok: call go as bob expect ok -> Executed events=['Eventgo']
  16 ok: time 100000 -> now=100000
  17 FAIL: call stay as bob expect ok -> Reverted(WrongState)
  18 ok: call idle as bob expect ok -> Executed fired_timed=['late']
  19 ok: assert state=A -> state=A
  20 FAIL: time 50 -> time 50 is before now=100000
  21 ok: admin remove alice by alice expect ok -> Executed
  22 FAIL: assert admin(bob)=true -> admin(bob)=false
final: {'state': 'A', 'counter': 0, 'admins': ['deployer'], 'now': 100000}
"""


def test_sim_stdout_is_pinned(auction_path, corpus_dir, tmp_path, capsys):
    # Every step kind, a reverted reentry probe, wrong expectations and a
    # time step that goes backwards, byte for byte.
    assert main(["sim", auction_path, "--scenario",
                 str(corpus_dir / "blind_auction_happy.scn")]) == 0
    assert capsys.readouterr() == (HAPPY_STDOUT, "")
    model, scn = tmp_path / "kinds.fsm", tmp_path / "kinds.scn"
    model.write_text(KINDS_FSM)
    scn.write_text(KINDS_SCN)
    assert main(["sim", str(model), "--scenario", str(scn)]) == 1
    assert capsys.readouterr() == (KINDS_STDOUT, "")


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
    ("voting.fsm", ["time 300000", "call cast as alice g0=true timed:open=true expect ok"], "Setup",
     "line 2: timed:open names no timed transition with a guard"),
    ("rock_paper_scissors.fsm", ["admin add bob by deployer expect ok"], "Play",
     "line 1: access_control plugin is not enabled"),
    ("voting.fsm", ["env votesCast=-5"], "Setup",
     "line 1: votesCast=-5 is outside the range of its type uint"),
], ids=["unbound-variable", "call-without-n", "override-past-the-guards",
        "timed-override-without-a-guard", "admin-without-access-control", "env-out-of-range"])
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
