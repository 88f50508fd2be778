import dataclasses
import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import leeperfect
from leeperfect import cli, nt, oracle, radius2, radius3, selftest, survey
from leeperfect.geometry import group_order_r2, group_order_r3
from leeperfect.outcomes import Caps, CriterionOutcome, InternalInconsistencyError, Status, Tier
from leeperfect.survey import R2_CRITERIA, Verdict, check, counts, emit, parse_report, scan


def test_check_examples():
    v = check(57, 2)
    assert v.excluded
    assert {"kim", "small_v"} <= set(v.fired())
    assert v.tier is Tier.UNCONDITIONAL

    v = check(16, 2)
    assert v.overall == "open" and not v.fired()

    v = check(20, 2)
    assert v.excluded and v.fired() == ["lambda"]


def test_check_n2_is_open():
    v = check(2, 2)
    assert v.overall == "open"
    survey.assert_oracle_coupling(v, oracle_exists=True)


def test_coupling_violation_raises():
    v = check(4, 2)
    assert v.excluded
    with pytest.raises(InternalInconsistencyError):
        survey.assert_oracle_coupling(v, oracle_exists=True)


def test_early_exit_stops_after_first_exclusion():
    v = check(4, 2, early_exit=True)
    assert v.excluded and len(v.outcomes) == 1


def _outcome(criterion, status=Status.EXCLUDED, tier=Tier.UNCONDITIONAL):
    return CriterionOutcome(criterion, status, tier if status is Status.EXCLUDED else None)


@pytest.mark.parametrize("outcomes, overall, tier, by", [
    # an unconditional exclusion outranks a cited one that came first
    ([_outcome("kim", Status.UNDECIDED), _outcome("orbit", tier=Tier.CITED),
      _outcome("lambda"), _outcome("field")], "excluded", Tier.UNCONDITIONAL, "lambda"),
    # of two unconditional ones the first decides
    ([_outcome("small_v"), _outcome("kim"), _outcome("orbit", tier=Tier.CITED)],
     "excluded", Tier.UNCONDITIONAL, "small_v"),
    # cited exclusions alone decide
    ([_outcome("kim", Status.NOT_APPLICABLE), _outcome("orbit", tier=Tier.CITED),
      _outcome("lambda", Status.SKIPPED)], "excluded", Tier.CITED, "orbit"),
    # nothing excluded leaves the dimension open
    ([_outcome("kim", Status.UNDECIDED), _outcome("field", Status.SKIPPED)], "open", None, None),
    ([], "open", None, None),
])
def test_strongest_tier_decides(outcomes, overall, tier, by):
    v = survey._aggregate(100, 2, group_order_r2(100), {}, outcomes)
    assert (v.overall, v.tier, v.excluded_by, v.citation) == (overall, tier, by, None)
    assert v.outcomes == outcomes


def test_criteria_subset():
    v = check(8, 2, criteria=["kim"])
    assert [o.criterion for o in v.outcomes] == ["kim"]
    assert not v.excluded  # n=8 is excluded by small_v only
    v = check(8, 2, criteria=["small_v"])
    assert v.excluded
    # lambda runs to gate field but is not recorded, and early exit stops
    # at the first recorded exclusion
    v = check(14, 2, criteria=["field"])
    assert {o.criterion for o in v.outcomes} == {"field"} and v.excluded_by == "field"
    v = check(14, 2, early_exit=True, criteria=["field"])
    assert v.outcomes[-1].excluded and sum(o.excluded for o in v.outcomes) == 1


def test_scan_sorted_and_range():
    verdicts = scan(2, 1, 6)  # lower end clamps to n=2
    assert [v.n for v in verdicts] == [2, 3, 4, 5, 6]
    assert [v.n for v in scan(3, 1, 4, criteria=["square24"])] == [3, 4]


@pytest.mark.parametrize("call, message", [
    (lambda: check(1, 2), "radius 2 needs n >= 2"),
    (lambda: check(2, 3), "radius 3 needs n >= 3"),
    (lambda: check(4, 5), "radius must be 2 or 3"),
    (lambda: scan(5, 3, 4), "radius must be 2 or 3"),
    (lambda: counts(4, 10), "radius must be 2 or 3"),
], ids=["n1_r2", "n2_r3", "check_r5", "scan_r5", "counts_r4"])
def test_radius_and_least_dimension_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_scan_worker_pool_matches_serial():
    # the workers get their factorizations from scan's factor_orders call
    caps = dataclasses.replace(Caps(), thread_count=2)
    for r, to in ((2, 12), (3, 40)):
        parallel = scan(r, 3, to, caps, early_exit=False)
        serial = scan(r, 3, to, Caps(), early_exit=False)
        assert parallel == serial
        assert [v.factorization for v in serial] == [
            check(v.n, r, early_exit=False).factorization for v in serial]


def test_radius3_small_factor_budget_factors_the_pieces():
    # the order of n = 5045 is 3^2 * 7 * 10091 * 269387: its cofactor
    # 10091 * 269387 needs rho, which factor_budget = 1 cuts off.  Its pieces
    # 2n + 1 = 10091 and 2n^2 + 2n + 3 are below 10^8 and need none, so the
    # verdict is the default one (square24 excludes), not a factorization skip
    n, caps = 5045, dataclasses.replace(Caps(), factor_budget=1)
    with pytest.raises(nt.BudgetExceeded):
        nt.factorize(group_order_r3(n), budget=1)
    v = check(n, 3, caps)
    assert v == check(n, 3) and v.excluded_by == "square24"
    assert v.factorization == {3: 2, 7: 1, 10091: 1, 269387: 1}


def test_counts_monotone_in_criteria():
    base = counts(2, 60, ["kim"]).total
    more = counts(2, 60, ["kim", "small_v"]).total
    assert more >= base


def test_counts_r3():
    assert counts(3, 10, ["square24"]).total == 1


def test_counts_caps_a_skipped_factorization():
    # at factor_budget = 1 the order of n = 8698 needs rho and is not
    # factored, so no criterion runs there: the count has to say so
    caps = Caps(factor_budget=1)
    verdicts = scan(3, 8690, 8700, caps, early_exit=False)
    skipped = [v for v in verdicts if v.skips()]
    assert [(v.n, v.skips()) for v in skipped] == [(8698, ["factorization"])]
    assert counts(3, 8700, caps=caps, verdicts=verdicts).capped == [8698]
    assert counts(3, 8700, ["square24"], caps, verdicts=verdicts).capped == [8698]


def test_cap_monotonicity_on_field_check():
    # raising caps turns Skipped into a decision, never Excluded into Open
    low = dataclasses.replace(Caps(), max_field_degree=10)
    v_low = check(14, 2, low, criteria=["lambda", "field"])
    fields_low = [o for o in v_low.outcomes if o.criterion == "field"]
    assert any(o.status is Status.SKIPPED for o in fields_low)
    assert not v_low.excluded
    v_high = check(14, 2, criteria=["lambda", "field"])
    assert v_high.excluded and "field" in v_high.fired()


def test_emit_parse_roundtrip():
    caps = Caps()
    verdicts = scan(2, 3, 8, caps, early_exit=False)
    text = emit(verdicts, "json", caps)
    caps2, parsed = parse_report(text)
    assert caps2 == caps
    assert parsed == verdicts
    # byte-identical reruns
    assert text == emit(scan(2, 3, 8, caps, early_exit=False), "json", caps)


def test_emit_csv_schema():
    verdicts = scan(2, 3, 5, early_exit=False)
    text = emit(verdicts, "csv")
    lines = text.splitlines()
    assert lines[0] == "n,r,order,overall,tier,criteria_fired,skips"
    assert len(lines) == 1 + len(verdicts)
    assert "\r" not in text


def test_caps_file_roundtrip(tmp_path):
    caps = Caps(max_field_degree=70, seed=99)
    path = tmp_path / "caps.txt"
    caps.to_file(path)
    assert Caps.from_file(path) == caps
    path.write_text("max_field_degree = 33\n# comment\nseed = 7\n")
    loaded = Caps.from_file(path)
    assert loaded.max_field_degree == 33 and loaded.seed == 7
    path.write_text("bogus = 1\n")
    with pytest.raises(ValueError):
        Caps.from_file(path)


def test_verdict_json_holds_certificates():
    v = check(8, 2)
    doc = v.to_json()
    small_v = [o for o in doc["outcomes"] if o["criterion"] == "small_v"][0]
    assert small_v["certificate"]["fired"] == [5]
    assert Verdict.from_json(doc) == v


def _run_cli(*args):
    # the child imports the same leeperfect package as this test process
    src = str(Path(leeperfect.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "leeperfect", *args],
        capture_output=True, text=True, timeout=600, env=env,
    )


def test_cli_check_and_exit_codes():
    res = _run_cli("check", "--r", "2", "--n", "4", "--format", "csv")
    assert res.returncode == 0
    assert "4,2,41,excluded" in res.stdout

    res = _run_cli("check", "--r", "5", "--n", "4")
    assert res.returncode == 1  # usage error

    res = _run_cli("scan", "--r", "2", "--from", "3", "--to", "6", "--format", "csv")
    assert res.returncode == 0 and len(res.stdout.splitlines()) == 5


# sha256 of the stdout of the two end-to-end scans of the report bytes (radius 2,
# 3..100 as JSON and 101..500 as text), which every field-layer change keeps
_CLI_REPORT_SHA256 = {
    "scan --r 2 --from 3 --to 100 --no-early-exit --format json":
        "b5a4545354d3c7c14ef5a77408e7cbe7e78cc02818162c93b62aeec40779a5e9",
    "scan --r 2 --from 101 --to 500 --no-early-exit":
        "2270ec768dfdff851f54229c3f45427d625f27e7fd98f83276725d9f3ec70928",
}


@pytest.mark.parametrize("command", sorted(_CLI_REPORT_SHA256))
def test_cli_scan_report_bytes_pinned(command):
    res = _run_cli(*command.split())
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == _CLI_REPORT_SHA256[command]


def test_cli_empty_caps_file_means_defaults():
    # an empty caps file yields the default caps, which admit the n=14 check
    res = _run_cli(
        "check", "--r", "2", "--n", "14", "--format", "csv", "--strict",
        "--caps", "/dev/null",
    )
    assert res.returncode == 0


def test_cli_strict_skip_with_small_caps(tmp_path):
    caps = tmp_path / "caps.txt"
    caps.write_text("max_field_degree = 10\n")
    res = _run_cli("check", "--r", "2", "--n", "14", "--format", "csv",
                   "--strict", "--caps", str(caps))
    assert res.returncode == 3


def test_emit_parse_roundtrip_past_the_int_digit_limit():
    # the p = 2 lambda certificate at n = 505 holds 2^l - 1, over 4300 digits
    limit = sys.get_int_max_str_digits()
    v = check(505, 2, criteria=R2_CRITERIA[:4])
    assert any(o.certificate.get("lam", 0).bit_length() > 14_300 for o in v.outcomes)
    caps, parsed = parse_report(emit([v], "json"))
    assert parsed == [v]
    assert sys.get_int_max_str_digits() == limit


def test_check_computes_lambda_once_per_pair(monkeypatch):
    calls = []
    real = radius2.lambda_value

    def counted(*args):
        calls.append(args[:3])
        return real(*args)

    monkeypatch.setattr(radius2, "lambda_value", counted)
    v = check(14, 2, criteria=["lambda", "field"])
    assert "field" in v.fired()
    assert len(calls) == sum(o.criterion == "lambda" for o in v.outcomes) == 2


def test_reproduce_table_leaves_caller_verdicts_alone():
    verdicts = scan(2, 3, 10, early_exit=False, criteria=["kim", "small_v"])
    before = [v.to_json() for v in verdicts]
    cmp = survey.reproduce_table(verdicts=verdicts)
    assert [v.to_json() for v in verdicts] == before
    relabelled = {v.n: v for v in cmp.verdicts}
    assert [v.n for v in cmp.verdicts] == [v.n for v in verdicts]
    for n in (3, 10):
        assert relabelled[n].overall == "externally_known" and relabelled[n].citation


_CHECK_4 = ["check", "--r", "2", "--n", "4"]


@pytest.mark.parametrize("argv", [
    pytest.param(_CHECK_4 + ["--caps", "{tmp}/absent.txt"], id="missing_caps"),
    pytest.param(_CHECK_4 + ["--caps", "{tmp}/caps.txt"], id="malformed_caps"),
    pytest.param(["scan", "--r", "2", "--from", "3", "--to", "4", "--threads", "0"],
                 id="zero_threads"),
    pytest.param(_CHECK_4 + ["--out", "{tmp}/absent/x.csv"], id="unwritable_out"),
    pytest.param(["check", "--r", "2", "--n", "1"], id="n_below_range"),
    pytest.param(["scan", "--r", "2", "--from", "10", "--to", "5"], id="empty_range"),
    # 13 divides the order 13 at n = -3, and 7 the order 7 at n = 1
    pytest.param(["orbit", "--r", "2", "--n", "-3", "--v", "13"], id="orbit_n_below_range"),
    pytest.param(["orbit", "--r", "3", "--n", "1", "--v", "7"], id="orbit_r3_n_below_range"),
    pytest.param(["orbit", "--r", "2", "--n", "23", "--v", "19"], id="orbit_no_companion"),
    pytest.param(["orbit", "--r", "3", "--n", "8", "--v", "23"], id="orbit_r3_generic"),
    pytest.param(["orbit", "--r", "3", "--n", "3", "--v", "3", "--p", "2", "--allow-generic"],
                 id="orbit_r3_small_v"),
    pytest.param(["orbit", "--r", "3", "--n", "8", "--v", "7", "--p", "0"], id="orbit_r3_p_zero"),
    pytest.param(["counts", "--r", "2", "--to", "10", "--criteria", "bogus"],
                 id="unknown_criterion"),
    pytest.param(["counts", "--r", "3", "--to", "10", "--criteria", "kim"],
                 id="criterion_wrong_radius"),
])
def test_cli_bad_input_is_a_usage_error(tmp_path, argv):
    (tmp_path / "caps.txt").write_text("seed = lots\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] in ("check", "scan"):  # the subcommands here that take --format
        argv += ["--format", "csv"]
    res = _run_cli(*argv)
    assert res.returncode == cli.EXIT_USAGE
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr
    assert res.stderr.startswith("leeperfect:")


@pytest.mark.parametrize("argv", [
    ["counts", "--r", "2", "--to", "10"],
    ["oracle", "--r", "2", "--n", "2"],
    ["orbit", "--r", "2", "--n", "23", "--v", "17"],
    ["selftest"],
], ids=lambda argv: argv[0])
def test_out_is_refused_where_no_report_is_written(tmp_path, argv):
    # only check, scan and reproduce-table write a report file
    res = _run_cli(*argv, "--out", str(tmp_path / "x.csv"))
    assert res.returncode == cli.EXIT_USAGE
    assert res.stdout == "" and "--out" in res.stderr
    assert not (tmp_path / "x.csv").exists()


_VALID_ARGV = {
    "check": ["check", "--r", "2", "--n", "4"],
    "counts": ["counts", "--r", "2", "--to", "10"],
    "oracle": ["oracle", "--r", "2", "--n", "2"],
    "orbit": ["orbit", "--r", "2", "--n", "49", "--v", "13"],
    "reproduce-table": ["reproduce-table"],
    "selftest": ["selftest"],
}
_FLAG_VALUE = {"--r": ["2"], "--format": ["csv"], "--seed": ["1"], "--threads": ["2"]}
# flags that some subcommands declare and these do not read
_UNDECLARED = {
    "check": ["--threads", "--no-early-exit"],
    "counts": ["--format", "--no-early-exit"],
    "oracle": ["--format", "--threads", "--no-early-exit"],
    "orbit": ["--format", "--seed", "--threads", "--no-early-exit"],
    "reproduce-table": ["--r", "--no-early-exit"],
    "selftest": ["--r", "--format", "--threads", "--no-early-exit", "--strict"],
}


@pytest.mark.parametrize("command, flag", [
    pytest.param(c, f, id=f"{c}_{f.lstrip('-')}") for c, flags in _UNDECLARED.items() for f in flags
])
def test_undeclared_flags_are_refused_before_any_work(monkeypatch, capsys, command, flag):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for module, name in ((survey, "check"), (survey, "scan"), (survey, "reproduce_table"),
                         (oracle, "oracle_verdict"), (radius2, "orbit_check"),
                         (radius3, "orbit_check_r3"), (selftest, "run_selftest")):
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(_VALID_ARGV[command] + [flag] + _FLAG_VALUE.get(flag, []))
    assert exit_info.value.code == cli.EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_cli_orbit_r3_companion_defaults_to_the_instance(monkeypatch, capsys):
    # without --p the radius-3 search runs on radius3.ORBIT_INSTANCE's prime,
    # not on a copy of it in the CLI
    searched = []

    def fake_class(v, p, n_mod_p):
        searched.append((v, p, n_mod_p))
        return {"survivor_count": 0, "unexplained": [], "survivors": []}

    monkeypatch.setattr(radius3, "ORBIT_INSTANCE", (7, 3))
    monkeypatch.setattr(radius3, "_orbit_r3_class", fake_class)
    assert cli.main(["orbit", "--r", "3", "--n", "8", "--v", "7"]) == cli.EXIT_OK
    assert searched == [(7, 3, 8 % 3)]
    assert "orbit_r3(n=8, v=7): excluded" in capsys.readouterr().out


def _readme_command_line_section() -> str:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_parse():
    lines = [line for line in _readme_command_line_section().splitlines()
             if line.startswith("leeperfect ")]
    assert len(lines) == len(cli._SUBCOMMANDS)
    for line in lines:
        cli._parser().parse_args(shlex.split(line)[1:])


def test_readme_flag_table_matches_the_parser():
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", _readme_command_line_section(), re.M)
    assert {name: re.findall(r"--[\w-]+", flags) for name, flags in rows} == {
        name: flags.split() for name, (_, flags) in cli._SUBCOMMANDS.items()
    }


def test_readme_names_the_selftest_suites():
    section = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = section.split("Run `leeperfect selftest`", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\* `([\w-]+)`:", section, re.M) == list(selftest.SUITES)


@pytest.mark.parametrize("r, criteria", [
    (2, ["bogus"]), (2, ["kim", "square24"]), (3, ["kim"]), (3, ["orbit"]),
])
def test_unknown_or_wrong_radius_criteria_are_refused(monkeypatch, r, criteria):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the criteria were checked")

    monkeypatch.setattr(nt, "factorize", no_work)
    monkeypatch.setattr(survey, "factor_orders", no_work)
    with pytest.raises(ValueError, match="criterion"):
        check(10, r, criteria=criteria)
    with pytest.raises(ValueError, match="criterion"):
        counts(r, 10, criteria)


def test_check_factors_the_order_once(monkeypatch):
    # one factor_orders call over n..n; kim reuses its factorization and
    # nt.factorize never sees the order
    calls, factorized = [], []
    real_orders, real_factorize = survey.factor_orders, nt.factorize

    def counted_orders(*args):
        calls.append(args[:3])
        return real_orders(*args)

    def counted_factorize(m, *args, **kwargs):
        factorized.append(m)
        return real_factorize(m, *args, **kwargs)

    monkeypatch.setattr(survey, "factor_orders", counted_orders)
    monkeypatch.setattr(nt, "factorize", counted_factorize)
    for n in (4, 57, 100, 2024):
        calls.clear()
        factorized.clear()
        v = check(n, 2, criteria=["kim", "small_v"])
        assert v.outcomes[0].certificate["evaluated"]  # kim had a divisor to test
        assert calls == [(2, n, n)]
        assert group_order_r2(n) not in factorized


def test_package_version_is_the_report_version():
    # survey.VERSION lands in every JSON report; the package and its metadata
    # (pyproject's dynamic version) read that one definition
    assert leeperfect.__version__ == survey.VERSION
