"""Every subcommand end to end through ``main(argv)``, including exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import infovalue
import infovalue.cli as cli
from infovalue.cli import main
from infovalue.problemfile import load_problem, loads, save_problem
from infovalue.properties import PROPERTY_NAMES, PropertyFailure, PropertyReport
from infovalue.scenarios import GAMBLERS, RACE, build_scenario
from infovalue.voi import evaluate


@pytest.fixture()
def race_file(tmp_path):
    scenario = build_scenario(RACE)
    path = str(tmp_path / "race.json")
    save_problem(path, scenario.problem, scenario.policy)
    return path


@pytest.fixture()
def gamblers_file(tmp_path):
    scenario = build_scenario(GAMBLERS, epsilon=Fraction(1, 10))
    path = str(tmp_path / "gamblers.json")
    save_problem(path, scenario.problem, scenario.policy)
    return path


RACE_REPORT = """\
baseline (best acting on the prior): 0
val_good (conditionalizer's value of learning): 1/4
val_general (this policy's value of learning): 1/4

cell {rain-a, rain-b}: p=1/2, best conditional EU=1/4
    chooses bet-a: p=1, conditional EU=1/4
cell {shine-a, shine-b}: p=1/2, best conditional EU=1/4
    chooses bet-b: p=1, conditional EU=1/4

chosen by state:
    rain-a: bet-a
    rain-b: bet-a
    shine-a: bet-b
    shine-b: bet-b
"""


class TestScenarioCommand:
    def test_race_report_in_full(self, capsys):
        assert main(["scenario", "race"]) == 0
        assert capsys.readouterr().out == RACE_REPORT

    def test_gamblers_with_epsilon(self, capsys):
        assert main(["scenario", "gamblers", "--epsilon", "1/10"]) == 0
        out = capsys.readouterr().out
        assert "val_good (conditionalizer's value of learning): 0" in out
        assert "val_general (this policy's value of learning): -1/20" in out

    def test_unknown_bias_confidence_override(self, capsys):
        """A milder fallacy never switches bets, so learning keeps full value."""
        code = main(
            ["scenario", "unknown-bias", "--epsilon", "1/2", "--confidence", "8/10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "val_good (conditionalizer's value of learning): 1/3" in out
        assert "val_general (this policy's value of learning): 1/3" in out

    def test_out_flag_writes_a_loadable_problem_file(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        code = main(["scenario", "gamblers", "--epsilon", "1/10", "--out", path])
        assert code == 0
        assert f"problem file written to {path}" in capsys.readouterr().out
        problem, _, policy = load_problem(path)
        assert evaluate(problem, policy).val_general == Fraction(-1, 20)

    def test_out_prints_the_report_then_where_it_wrote(self, tmp_path, capsys):
        path = tmp_path / "race.json"
        assert main(["scenario", "race", "--out", str(path)]) == 0
        assert capsys.readouterr().out == (
            RACE_REPORT + f"\nproblem file written to {path}\n"
        )

    def test_race_takes_no_epsilon(self, capsys):
        assert main(["scenario", "race", "--epsilon", "1/2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no epsilon parameter" in err

    def test_decimal_epsilon_is_refused(self, capsys):
        assert main(["scenario", "gamblers", "--epsilon", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "exact rational" in captured.err

    def test_an_epsilon_past_the_int_digit_limit_is_refused(self, capsys):
        epsilon = "1/" + "7" * 4400
        assert main(["scenario", "gamblers", "--epsilon", epsilon]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a 4400-digit numeral is longer than the "
            f"{sys.get_int_max_str_digits()} digits Python reads into an int\n"
        )

    def test_unknown_scenario_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "nope"])


class TestEvalCommand:
    def test_policy_comes_from_the_file(self, gamblers_file, capsys):
        assert main(["eval", "--problem", gamblers_file]) == 0
        out = capsys.readouterr().out
        assert "val_general (this policy's value of learning): -1/20" in out

    def test_conditionalization_override_restores_full_value(
        self, gamblers_file, capsys
    ):
        code = main(
            ["eval", "--problem", gamblers_file, "--policy", "conditionalization"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "val_general (this policy's value of learning): 0" in out

    def test_policy_file_override(self, race_file, capsys):
        assert main(["eval", "--problem", race_file]) == 0
        plain = capsys.readouterr().out
        assert main(["eval", "--problem", race_file, "--policy", race_file]) == 0
        assert capsys.readouterr().out == plain

    def test_policy_over_other_space_is_rejected(
        self, race_file, gamblers_file, capsys
    ):
        assert main(["eval", "--problem", gamblers_file, "--policy", race_file]) == 1
        assert "different state space" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert main(["eval", "--problem", str(tmp_path / "nope.json")]) == 3
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]", encoding="utf-8")
        assert main(["eval", "--problem", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: line 1")


    def test_a_numeral_past_the_int_digit_limit_is_located(
        self, race_file, tmp_path, capsys
    ):
        with open(race_file, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["outcomes"][0]["utility"] = "1" + "0" * 5000
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eval", "--problem", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: outcomes[0].utility: a 5001-digit numeral is longer than the "
            f"{sys.get_int_max_str_digits()} digits Python reads into an int\n"
        )


HOSTILE_FILES = {
    "bad byte": (b"{\xff}", "error: byte 2: not UTF-8: invalid start byte\n"),
    "deep nesting": (b"[" * 100_000, "error: document: JSON nested too deeply\n"),
    "long integer": (
        b"9" * (sys.get_int_max_str_digits() + 1),
        "error: document: a JSON integer is longer than the "
        f"{sys.get_int_max_str_digits()} digits Python reads into an int\n",
    ),
    "lone surrogate": (
        json.dumps(
            {
                "states": [{"id": "\ud800", "prob": "1/2"}, {"id": "b", "prob": "1/2"}],
                "outcomes": [{"id": "nil", "utility": "0"}],
                "actions": [{"id": "idle", "map": {"\ud800": "nil", "b": "nil"}}],
                "partition": [["\ud800", "b"]],
                "policy": "conditionalization",
            }
        ).encode(),
        "error: states[0].id: '\\ud800' holds a lone surrogate, which is not text\n",
    ),
}


@pytest.mark.parametrize("command", ["eval", "adversary"])
@pytest.mark.parametrize("flag", ["--problem", "--policy"])
@pytest.mark.parametrize("hostile", sorted(HOSTILE_FILES))
def test_a_hostile_file_is_one_located_error(
    command, flag, hostile, gamblers_file, tmp_path, capsys
):
    """Undecodable bytes, nesting too deep for the JSON parser, an over-long
    integer and an id that cannot be printed each exit 1 with one ``error:``
    line, through either file flag."""
    data, expected = HOSTILE_FILES[hostile]
    path = tmp_path / "hostile.json"
    path.write_bytes(data)
    if flag == "--problem":
        argv = [command, "--problem", str(path)]
    else:
        argv = [command, "--problem", gamblers_file, "--policy", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected)


class TestSweepCommand:
    def test_table(self, capsys):
        assert main(["sweep", "gamblers", "--epsilons", "0,1/10,1/2"]) == 0
        assert capsys.readouterr().out == (
            "epsilon  val_good  val_general  decision\n"
            "-------  --------  -----------  --------\n"
            "0        0         0            learn\n"
            "1/10     0         -1/20        decline\n"
            "1/2      0         -1/4         decline\n"
        )

    def test_csv(self, capsys):
        code = main(["sweep", "gamblers", "--epsilons", "1/10", "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out == (
            "epsilon,val_good,val_general,decision\n1/10,0,-1/20,decline\n"
        )

    def test_break_even_counts_as_learn(self, capsys):
        assert main(["sweep", "unknown-bias", "--epsilons", "1/7"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.split() == ["1/7", "1/3", "0", "learn"]

    def test_race_cannot_be_swept(self, capsys):
        assert main(["sweep", "race", "--epsilons", "0,1/10"]) == 1
        assert "no epsilon parameter" in capsys.readouterr().err

    def test_blank_epsilon_list_is_rejected(self, capsys):
        # the library's order: the preset's name first, then each entry
        assert main(["sweep", "race", "--epsilons", " , "]) == 1
        assert "no epsilon parameter" in capsys.readouterr().err
        assert main(["sweep", "gamblers", "--epsilons", " , "]) == 1
        assert capsys.readouterr().err == (
            "error: expected an exact rational string like '3/4' or '-2', got ' '\n"
        )

    def test_entries_follow_the_rational_grammar_as_written(self, capsys):
        # the same rule as ``scenario --epsilon``: no spaces, no empty entries
        for grid, entry in (("0, 1/2", "' 1/2'"), ("0,,1/2", "''")):
            assert main(["sweep", "gamblers", "--epsilons", grid]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: expected an exact rational string like '3/4' or '-2', "
                f"got {entry}\n"
            )


class TestAdversaryCommand:
    def test_certificate_for_the_gamblers_policy(self, gamblers_file, capsys):
        assert main(["adversary", "--problem", gamblers_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"] == {
            "cell": ["hh·bayes", "hh·fallacy", "ht·bayes", "ht·fallacy"],
            "state": "hh·fallacy",
            "event": ["hh·bayes", "hh·fallacy"],
            "q": "1/10",
            "r": "1/2",
            "bet_wins_on": ["ht·bayes", "ht·fallacy"],
            "bet_win": "3/10",
            "bet_loss": "7/10",
            "val_general": "-1/100",
        }

    def test_embedded_problem_is_itself_a_valid_problem_file(
        self, gamblers_file, capsys
    ):
        main(["adversary", "--problem", gamblers_file])
        doc = json.loads(capsys.readouterr().out)
        text = json.dumps(doc["problem"], sort_keys=True, indent=2) + "\n"
        problem, _, _ = loads(text)
        assert problem.choices.ids() == ("safe", "risky")

    def test_out_flag(self, gamblers_file, tmp_path, capsys):
        path = str(tmp_path / "certificate.json")
        assert main(["adversary", "--problem", gamblers_file, "--out", path]) == 0
        out = capsys.readouterr().out
        assert (
            f"learning is worth -1/100 under this policy; "
            f"certificate written to {path}" in out
        )
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["certificate"]["val_general"] == "-1/100"

    def test_conditionalizer_yields_no_certificate(self, race_file, capsys):
        assert main(["adversary", "--problem", race_file]) == 1
        assert "conditionalizes" in capsys.readouterr().err

    def test_a_policy_file_conditioning_another_prior_is_embedded_as_tables(
        self, tmp_path, capsys
    ):
        """B's policy conditions B's prior, not A's: the embedded problem must
        spell it out, or reading it back would condition A's prior instead."""
        paths = {}
        for name, masses in (("A", ("1/2", "1/4", "1/4")), ("B", ("1/8", "5/8", "1/4"))):
            doc = {
                "states": [{"id": s, "prob": m} for s, m in zip("abc", masses)],
                "outcomes": [{"id": "nil", "utility": "0"}],
                "actions": [{"id": "idle", "map": {s: "nil" for s in "abc"}}],
                "partition": [["a", "b"], ["c"]],
                "policy": "conditionalization",
            }
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        cert = tmp_path / "cert.json"
        argv = ["adversary", "--problem", str(paths["A"]), "--policy", str(paths["B"])]
        assert main(argv + ["--out", str(cert)]) == 0
        assert "learning is worth -3/16" in capsys.readouterr().out
        embedded = json.loads(cert.read_text(encoding="utf-8"))["problem"]
        assert embedded["policy"][0] == {"posterior": {"a": "1/6", "b": "5/6"}, "state": "a"}
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(embedded), encoding="utf-8")
        assert main(["eval", "--problem", str(replay)]) == 0
        assert (
            "val_general (this policy's value of learning): -3/16"
            in capsys.readouterr().out
        )

    def test_a_conditionalizer_is_still_written_as_the_keyword(self, tmp_path, capsys):
        path = tmp_path / "race.json"
        assert main(["scenario", "race", "--out", str(path)]) == 0
        assert json.loads(path.read_text(encoding="utf-8"))["policy"] == "conditionalization"


def out_command(command, gamblers_file):
    """(argv without --out, the line that names the file written) for ``command``."""
    if command == "scenario":
        return ["scenario", "gamblers", "--epsilon", "1/10"], "problem file written to {}"
    return (
        ["adversary", "--problem", gamblers_file],
        "learning is worth -1/100 under this policy; certificate written to {}",
    )


@pytest.mark.parametrize("command", ["scenario", "adversary"])
class TestOutFiles:
    def test_a_longer_file_is_rewritten_to_exactly_a_fresh_write(
        self, command, gamblers_file, tmp_path, capsys
    ):
        argv, _ = out_command(command, gamblers_file)
        fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
        assert main(argv + ["--out", str(fresh)]) == 0
        reused.write_bytes(b"\xff" * (2 * fresh.stat().st_size))
        assert main(argv + ["--out", str(reused)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()
        assert "hh\\u00b7fallacy" in fresh.read_text(encoding="utf-8")

    def test_dev_null_exits_0_with_the_usual_message(
        self, command, gamblers_file, capsys
    ):
        argv, written = out_command(command, gamblers_file)
        assert main(argv + ["--out", os.devnull]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith(written.format(os.devnull) + "\n")
        assert captured.err == ""

    def test_an_unwritable_out_exits_3_with_nothing_on_stdout(
        self, command, gamblers_file, tmp_path, capsys
    ):
        argv, _ = out_command(command, gamblers_file)
        path = tmp_path / "missing" / "out.json"
        assert main(argv + ["--out", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert str(path) in captured.err


class TestCheckCommand:
    def test_clean_run_exits_0(self, capsys):
        assert main(["check", "--trials", "8", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["property", "checked", "failed"]
        assert lines[-1] == "8 trials from seed 7: all properties held"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "1_2", "--seed", "0"], "expected an exact rational string "
             "like '3/4' or '-2', got '1_2'"),
            (["--trials", " 12 "], "expected an exact rational string "
             "like '3/4' or '-2', got ' 12 '"),
            (["--trials", "١٢"], "expected an exact rational string "
             "like '3/4' or '-2', got '١٢'"),
            (["--trials", "abc"], "expected an exact rational string "
             "like '3/4' or '-2', got 'abc'"),
            (["--trials", "1/2"], "trials must be an integer, got 1/2"),
            (["--trials", "0"], "trials must be at least 1, got 0"),
            (["--trials", "2", "--seed", "3/2"], "seed must be an integer, got 3/2"),
        ],
    )
    def test_malformed_counts_are_errors_not_counterexamples(self, flags, message, capsys):
        assert main(["check", *flags]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_counterexamples_exit_2(self, monkeypatch, capsys):
        failure = PropertyFailure(
            trial=3,
            kind="mixture",
            property_name="general-le-classical",
            detail="val_general=1 exceeds val_good=0",
            document={"states": []},
        )
        report = PropertyReport(
            seed=0,
            trials=4,
            checked={n: 4 for n in PROPERTY_NAMES},
            failures=(failure,),
        )
        monkeypatch.setattr(cli, "property_suite", lambda seed, trials: report)
        assert main(["check", "--trials", "4", "--seed", "0"]) == 2
        out = capsys.readouterr().out
        assert "COUNTEREXAMPLES FOUND" in out
        assert (
            "counterexample (trial 3, mixture, general-le-classical): "
            "val_general=1 exceeds val_good=0" in out
        )
        assert '"states": []' in out


def cli_env(columns):
    """The environment of a fresh ``infovalue`` process: this checkout's
    package, UTF-8 streams and a terminal ``columns`` wide."""
    src = os.path.dirname(os.path.dirname(infovalue.__file__))
    return dict(os.environ, PYTHONPATH=src, COLUMNS=columns, PYTHONIOENCODING="utf-8")


def first_call(argv, columns):
    """``main(argv)`` as the first call of a fresh process: (code, out, err)."""
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from infovalue.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv,
        ],
        capture_output=True,
        env=cli_env(columns),
    )
    return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")


class TestReusedParser:
    def test_calls_in_one_process_match_first_calls(
        self, gamblers_file, monkeypatch, capsys
    ):
        """One parser serves every call, and no call leaves state in it: an
        argparse error, a help page and a repeated eval each print what they
        print as the first call of a process."""
        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ["scenario", "nope"],
            ["eval", "--help"],
            ["eval", "--problem", gamblers_file],
            ["eval", "--problem", gamblers_file],
        ]
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        assert [code for code, _, _ in seen] == [2, 0, 0, 0]
        assert cli.build_parser() is cli.build_parser()
        for argv, result in zip(calls, seen):
            assert result == first_call(argv, "80"), argv
