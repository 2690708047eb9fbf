import json
import shlex
from pathlib import Path

import pytest

from schubert.calc import skew, skew_expansion
from schubert.chains import chain_from_json_obj, padded_type, type_counts
from schubert.cli import main
from schubert.perms import all_perms, perm_to_str
from schubert.poly import Poly, poly_from_json_obj
from schubert.rcgraphs import rcgraph_from_json_obj
from schubert.verify import SUITES, Report, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schubert_text(capsys):
    code, out, _ = run(capsys, "schubert", "1324", "--n", "4")
    assert code == 0
    assert out == "x1 + x2\n"


def test_schubert_trivial_cases(capsys):
    assert run(capsys, "schubert", "1234", "--n", "4")[1] == "1\n"
    assert run(capsys, "schubert", "4321", "--n", "4")[1] == "x1^3*x2^2*x3\n"


def test_schubert_json_round_trips(capsys):
    code, out, _ = run(capsys, "schubert", "2413", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    from schubert.calc import schubert
    assert poly_from_json_obj(obj) == schubert((2, 4, 1, 3), 4)
    assert json.dumps(obj) == out.strip()


def test_schubert_methods_agree(capsys):
    a = run(capsys, "schubert", "21543", "--method", "chain")[1]
    b = run(capsys, "schubert", "21543", "--method", "rcgraph")[1]
    assert a == b


def test_n_inferred_from_string(capsys):
    code, out, _ = run(capsys, "schubert", "132")
    assert code == 0
    assert out == "x1 + x2\n"


@pytest.mark.parametrize("argv", [["schubert", "1324"], ["skew", "2413", "1324"],
                                  ["lr", "1324", "2143"], ["rcgraphs", "1432"],
                                  ["chains", "1432", "4321"]], ids=lambda argv: argv[0])
def test_n_too_small_rejected(argv, capsys):
    code, out, err = run(capsys, *argv, "--n", "3")
    assert (code, out, err) == (1, "", "error: cannot embed size 4 into smaller size 3\n")


def test_skew_expand_golden(capsys):
    code, out, _ = run(capsys, "skew", "2413", "1324", "--n", "4", "--expand")
    assert code == 0
    assert out.strip() == '{"3241":1,"3412":1,"4132":1}'


def test_skew_equals_schubert_from_w0(capsys):
    a = run(capsys, "skew", "4321", "1432", "--n", "4")[1]
    b = run(capsys, "schubert", "1432", "--n", "4")[1]
    assert a == b


def test_skew_incomparable_errors(capsys):
    code, out, err = run(capsys, "skew", "1324", "2413", "--n", "4")
    assert code == 1
    assert not out
    assert "not below" in err


def test_lr_rows(capsys):
    code, out, _ = run(capsys, "lr", "1324", "2143", "--n", "4")
    assert code == 0
    assert "2413 1" in out.splitlines()
    code, out, _ = run(capsys, "lr", "1234", "2413", "--n", "4")
    assert out == "2413 1\n"
    code, out, _ = run(capsys, "lr", "213", "132", "--n", "3")
    assert out == "231 1\n312 1\n"


def test_lr_json_and_cache(tmp_path, capsys):
    code, out, _ = run(capsys, "lr", "213", "132", "--n", "3", "--format", "json")
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"c": 1, "n": 3, "u": "213", "v": "132", "w": "231"},
        {"c": 1, "n": 3, "u": "213", "v": "132", "w": "312"},
    ]
    # the cache file is this output appended by the shell; lr writes no file
    with pytest.raises(SystemExit):
        main(["lr", "213", "132", "--out", str(tmp_path / "lr.ndjson")])
    assert not list(tmp_path.iterdir())


def test_lr_all_matches_single_pairs(capsys):
    expected = "".join(
        run(capsys, "lr", perm_to_str(u), perm_to_str(v), "--format", "json")[1]
        for u in all_perms(3) for v in all_perms(3)
    )
    code, out, _ = run(capsys, "lr", "--all", "--n", "3", "--format", "json")
    assert code == 0
    assert out == expected
    assert len(out.splitlines()) == 21
    code, text, _ = run(capsys, "lr", "--all", "--n", "3")
    assert text.splitlines() == [
        "{u} {v} {w} {c}".format(**json.loads(line)) for line in out.splitlines()
    ]


@pytest.mark.parametrize("argv", [
    ("lr",), ("lr", "213"), ("lr", "--all"), ("lr", "--all", "--n", "3", "213"),
])
def test_lr_argument_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert not out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["0", "-2"])
def test_lr_all_rejects_n_below_one(capsys, n):
    code, out, err = run(capsys, "lr", "--all", "--n", n)
    assert code == 1
    assert out == ""
    assert err == "error: --n must be at least 1\n"


def test_rcgraphs_ascii_contains_known_grid(capsys):
    code, out, _ = run(capsys, "rcgraphs", "1432", "--n", "4", "--render", "ascii")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert ". + +\n. .\n+" in blocks
    assert len(blocks) == 5


def test_rcgraphs_trivial(capsys):
    code, out, _ = run(capsys, "rcgraphs", "1234", "--render", "json")
    assert json.loads(out) == {"n": 4, "crossings": []}


def test_rcgraphs_json_round_trip(capsys):
    code, out, _ = run(capsys, "rcgraphs", "1432", "--format", "json")
    for line in out.splitlines():
        obj = json.loads(line)
        graph = rcgraph_from_json_obj(obj)
        assert json.dumps(rcgraph_to_json_roundtrip(graph)) == line


@pytest.mark.parametrize("read, bad, good", [
    (poly_from_json_obj, [{"exp": [1], "coef": 2.7}], [{"exp": [1], "coef": 2}]),
    (poly_from_json_obj, [{"exp": [1.5], "coef": 1}], [{"exp": [1], "coef": 1}]),
    (poly_from_json_obj, [{"exp": [1], "coef": True}], [{"exp": [1], "coef": 1}]),
    (rcgraph_from_json_obj, {"n": 3.9, "crossings": [[1.7, 1]]}, {"n": 3, "crossings": [[1, 1]]}),
    (rcgraph_from_json_obj, {"n": 3, "crossings": [[1, 1.0]]}, {"n": 3, "crossings": [[1, 1]]}),
    (chain_from_json_obj, {"start": "213", "steps": [[2.0, 1]]},
     {"start": "213", "steps": [[2, 1]]}),
    (chain_from_json_obj, {"start": "213", "steps": [[2, True]]},
     {"start": "213", "steps": [[2, 1]]}),
])
def test_json_readers_reject_non_integers(read, bad, good):
    read(good)
    with pytest.raises(ValueError, match="not an integer"):
        read(bad)


@pytest.mark.parametrize("read, bad", [
    (poly_from_json_obj, [{"exp": [1]}]),  # missing key
    (poly_from_json_obj, {"exp": [1], "coef": 1}),  # a record, not a list of them
    (poly_from_json_obj, [{"exp": 1, "coef": 1}]),  # exp not a list
    (poly_from_json_obj, 5),
    (rcgraph_from_json_obj, {"n": 3}),
    (rcgraph_from_json_obj, [3, []]),
    (rcgraph_from_json_obj, {"n": 3, "crossings": [1]}),  # a cell not a pair
    (chain_from_json_obj, {"steps": []}),
    (chain_from_json_obj, {"start": 213, "steps": []}),  # start not a string
    (chain_from_json_obj, {"start": "213", "steps": [2]}),
])
def test_json_readers_reject_malformed_records(read, bad):
    with pytest.raises(ValueError, match="malformed JSON record"):
        read(bad)


def rcgraph_to_json_roundtrip(graph):
    from schubert.rcgraphs import rcgraph_to_json_obj
    return rcgraph_to_json_obj(graph)


def test_chains_stream_contains_known_chain(capsys):
    code, out, _ = run(capsys, "chains", "1432", "4321", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    objs = [json.loads(line) for line in lines]
    assert {"start": "1432", "steps": [[1, 1], [2, 1], [2, 2]]} in objs
    # round trip through the documented schema
    for line, obj in zip(lines, objs):
        assert json.dumps(chain_to_json_roundtrip(obj)) == line


def chain_to_json_roundtrip(obj):
    from schubert.chains import chain_to_json_obj
    return chain_to_json_obj(chain_from_json_obj(obj, end=(4, 3, 2, 1)))


def test_chains_identity_pair(capsys):
    code, out, _ = run(capsys, "chains", "2413", "2413", "--format", "json")
    assert out.strip() == '{"start": "2413", "steps": []}'


def test_chains_not_below_errors_as_skew_does(capsys):
    code, out, err = run(capsys, "chains", "21", "12")
    assert (code, out) == (1, "")
    assert err == "error: 21 is not below 12 in the Bruhat order\n"
    assert run(capsys, "skew", "12", "21") == (1, "", err)


def test_chains_type_filter(capsys):
    code, out, _ = run(capsys, "chains", "1432", "4321", "--type", "1,2,0",
                       "--format", "json")
    lines = out.splitlines()
    assert len(lines) == type_counts((1, 4, 3, 2), (4, 3, 2, 1))[padded_type((1, 2, 0), 4)]
    assert json.loads(lines[0])["steps"] == [[1, 1], [2, 1], [2, 2]]


def test_chains_type_uses_the_chains_padding_rule(capsys):
    base = run(capsys, "chains", "1432", "4321", "--type", "1,2,0")
    assert base[0] == 0 and base[1]
    assert run(capsys, "chains", "1432", "4321", "--type", "1,2,0,0,0") == base
    assert run(capsys, "chains", "1432", "4321", "--type", "1,2") == base
    # a nonzero part past n - 1 matches no chain, as in padded_type
    assert type_counts((1, 4, 3, 2), (4, 3, 2, 1))[padded_type((1, 1, 0, 1), 4)] == 0
    assert run(capsys, "chains", "1432", "4321", "--type", "1,1,0,1") == (0, "", "")


def test_chains_text_rendering(capsys):
    code, out, _ = run(capsys, "chains", "4231", "4321")
    assert out == "4231 --(2,2)--> 4321\n"


def test_determinism(capsys):
    first = run(capsys, "rcgraphs", "21543", "--format", "json")
    second = run(capsys, "rcgraphs", "21543", "--format", "json")
    assert first == second


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "routes", "--n", "3")
    assert code == 0
    assert out.startswith("routes: PASS")
    code, out, _ = run(capsys, "verify", "--suite", "stability", "--n", "3",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["passed"] is True and rec["suite"] == "stability"
    assert rec["status"] == "PASS"


def test_verify_empty_suite_is_skip(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "stability", "--n", "2")
    assert code == 0
    assert out == "stability: SKIP (0 checks)\n"
    code, out, _ = run(capsys, "verify", "--suite", "stability", "--n", "2",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "SKIP" and rec["checks"] == 0


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "bijection: PASS (40 checks)",
        "routes: PASS (19 checks)",
        "corollary: PASS (19 checks)",
        "pieri: PASS (84 checks)",
        "stability: PASS (19 checks)",
    ]


@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_rejects_n_below_one(capsys, n):
    code, out, err = run(capsys, "verify", "--n", n)
    assert code == 1
    assert out == ""
    assert err == "error: --n must be at least 1\n"


@pytest.mark.parametrize("command", ["schubert 1324", "skew 321 132", "lr 12 21", "lr --all",
                                     "rcgraphs 132", "chains 132 321", "verify"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_every_command_rejects_n_below_one(capsys, command, n):
    assert run(capsys, *shlex.split(command), "--n", n) == (1, "", "error: --n must be at least 1\n")


def test_verify_suite_that_raises_fails_and_later_suites_run(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("schubert.verify.skew_expansion", broken)
    code, out, err = run(capsys, "verify", "--suite", "all", "--n", "3")
    assert code == 1
    assert out.splitlines() == [
        "bijection: PASS (40 checks)",
        "routes: PASS (19 checks)",
        "corollary: FAIL (0 checks)",
        "pieri: PASS (84 checks)",
        "stability: PASS (19 checks)",
    ]
    assert "corollary: RuntimeError: boom" in err


def test_run_suite_keeps_checks_counted_before_an_exception(monkeypatch):
    calls = []

    def fails_on_third(w, u, n):
        calls.append((w, u))
        if len(calls) == 3:
            raise ValueError("third pair")
        return skew_expansion(w, u, n)

    monkeypatch.setattr("schubert.verify.skew_expansion", fails_on_third)
    rep = run_suite("corollary", 3)
    assert rep.status == "FAIL" and rep.checks == 2
    assert rep.failures == ["corollary: ValueError: third pair"]


def test_report_status():
    rep = Report("routes", 3, 0)
    assert rep.status == "SKIP"
    rep.note(True, lambda: "ok")
    assert rep.status == "PASS"
    rep.note(False, lambda: "broken")
    assert rep.status == "FAIL" and not rep.passed


def test_a_failing_check_reports_its_message(monkeypatch):
    def chains_off_by_one(w, u, n, method="normalform"):
        p = skew(w, u, n, method=method)
        return p + Poly.constant(1) if method == "chains" else p

    monkeypatch.setattr("schubert.verify.skew", chains_off_by_one)
    rep = run_suite("routes", 3)
    assert rep.status == "FAIL" and rep.checks == len(rep.failures) == 19
    assert rep.failures[0] == "skew(123/123) routes disagree"
    assert "skew(321/231) routes disagree" in rep.failures


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("nonsense", 3)


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("n", [0, -1])
def test_run_suite_rejects_n_below_one(suite, n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        run_suite(suite, n)


README = Path(__file__).resolve().parent.parent / "README.md"
# the README's CLI lines whose comment is what they print
README_OUTPUTS = {
    "schub schubert 1324 --n 4": "x1 + x2",
    "schub skew 2413 1324 --n 4 --expand": '{"3241":1,"3412":1,"4132":1}',
}


def readme_cli_lines() -> dict[str, str]:
    """Each schub line of the README's CLI block: command -> comment."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.partition("#") for line in block.splitlines() if line.startswith("schub ")]
    return {command.strip(): comment.strip() for command, _, comment in lines}


def test_readme_shows_what_these_lines_print():
    lines = readme_cli_lines()
    assert {command: lines.get(command) for command in README_OUTPUTS} == README_OUTPUTS


@pytest.mark.parametrize("command", readme_cli_lines())
def test_readme_cli_line_runs(command, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    if command in README_OUTPUTS:
        assert out == README_OUTPUTS[command] + "\n"
