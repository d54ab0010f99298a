"""Command line behavior: files written, exit codes, determinism."""

import hashlib
import json
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cascadefund import cli, engine
from cascadefund.beliefs import QualitySpec
from cascadefund.engine import GameState
from cascadefund.simulate import (
    BLOCK_RUNS,
    CHUNK_BLOCKS,
    completion_from_batch,
    estimate_completion,
    simulate_runs,
)


def run(tmp_path, *argv):
    out = []
    for a in argv:
        out.append(str(a) if not isinstance(a, str) else a)
    return cli.main(out)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestSolve:
    def test_writes_csv_and_summary(self, workdir):
        assert run(workdir, "solve", "--grid-size", "301", "--out", "s") == 0
        csv = (workdir / "s.csv").read_text().splitlines()
        assert csv[0].startswith("# config: {")
        assert csv[1].startswith("# version: ")
        assert csv[2] == "B,n,L,sigma,pi0,pi1,irregular"
        assert len(csv) > 300
        doc = json.loads((workdir / "s.json").read_text())
        assert doc["command"] == "solve"
        assert doc["at_L0"]["sigma"] == pytest.approx(0.4, abs=1e-4)
        assert doc["ordering_scan"]["violations"] == []
        assert "table" not in doc

    def test_json_format_embeds_table(self, workdir):
        assert run(
            workdir, "solve", "--grid-size", "301", "--format", "json", "--out", "sj"
        ) == 0
        assert not (workdir / "sj.csv").exists()
        doc = json.loads((workdir / "sj.json").read_text())
        assert len(doc["table"]) > 300
        assert set(doc["table"][0]) == {"B", "n", "L", "sigma", "pi0", "pi1", "irregular"}

    def test_rerun_is_byte_identical(self, workdir):
        args = ("solve", "--grid-size", "301", "--seed", "5", "--out", "r")
        assert run(workdir, *args) == 0
        first = ((workdir / "r.csv").read_bytes(), (workdir / "r.json").read_bytes())
        assert run(workdir, *args) == 0
        second = ((workdir / "r.csv").read_bytes(), (workdir / "r.json").read_bytes())
        assert first == second


class TestSweep:
    def test_profile_columns(self, workdir):
        assert run(
            workdir,
            "sweep",
            "--B", "2", "--n", "2",
            "--L-min", "0.5", "--L-max", "3.5", "--L-points", "7",
            "--out", "sw",
        ) == 0
        lines = (workdir / "sw.csv").read_text().splitlines()
        assert lines[2] == "L,x_1,x_2,pi0,pi1,utility,delegate_1,delegate_2,irregular"
        assert len(lines) == 3 + 7

    def test_engine_diagonal_uses_grid_size(self, workdir):
        # Three or more players read an engine table solved at --grid-size.
        base = ("sweep", "--B", "3", "--n", "3", "--L-points", "9")
        assert run(workdir, *base, "--grid-size", "129", "--out", "g129") == 0
        assert run(workdir, *base, "--grid-size", "257", "--out", "g257") == 0
        bodies = [(workdir / f).read_text().split("\n", 1)[1] for f in ("g129.csv", "g257.csv")]
        assert bodies[0] != bodies[1]

    def test_partial_requirement_rejected(self, workdir, capsys):
        assert run(workdir, "sweep", "--B", "2", "--n", "3") == 2
        assert "must-fill" in capsys.readouterr().err

    def test_json_rows(self, workdir):
        assert run(
            workdir,
            "sweep",
            "--L-points", "5", "--format", "json", "--out", "swj",
        ) == 0
        doc = json.loads((workdir / "swj.json").read_text())
        assert len(doc["rows"]) == 5
        assert doc["columns"][0] == "L"


class TestSimulate:
    def test_per_run_table(self, workdir):
        assert run(
            workdir,
            "simulate",
            "--runs", "250", "--grid-size", "301", "--seed", "4",
            "--out", "mc",
        ) == 0
        lines = (workdir / "mc.csv").read_text().splitlines()
        assert lines[2] == "run,world,completed,L_end,a_1,a_2,t_1,t_2"
        assert len(lines) == 3 + 250
        doc = json.loads((workdir / "mc.json").read_text())
        est = doc["estimate"]
        assert est["count0"] + est["count1"] == 250
        assert 0.0 <= doc["completed_fraction"] <= 1.0
        assert doc["end_stats"]["learning_bound"] == pytest.approx(16.0, abs=1e-9)

    def test_start_past_the_learning_cap_is_within_bound(self, workdir):
        # Odds that start in an up-cascade never move, so ending above
        # (Q/(1-Q))^2 = 16 there is no violation and raises no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(workdir, "simulate", "--L0", "1e6", "--B", "2", "--n", "3",
                       "--grid-size", "129", "--runs", "500", "--out", "up") == 0
        stats = json.loads((workdir / "up.json").read_text())["end_stats"]
        assert stats["within_bound"] is True
        assert stats["max"] == 1e6 > stats["learning_bound"]

    def test_dead_start_reports_every_end_stat(self, workdir):
        # At L0 = 0.01 no drive completes; the summary keeps every key.
        assert run(workdir, "simulate", "--L0", "0.01", "--B", "2", "--n", "3",
                   "--grid-size", "129", "--runs", "200", "--out", "dead") == 0
        doc = json.loads((workdir / "dead.json").read_text())
        assert doc["completed_fraction"] == 0.0
        assert doc["end_stats"] == {
            "learning_bound": pytest.approx(16.0, abs=1e-9),
            "max": None,
            "n_completed": 0,
            "q50": None,
            "q90": None,
            "q99": None,
            "within_bound": True,
        }

    def test_one_record_gives_the_chunks(self, workdir, caplog, solved):
        # The chunked golden's runs: two whole chunks and a partial third,
        # whose own last block is partial too.
        runs = 37768
        assert 2 * CHUNK_BLOCKS * BLOCK_RUNS < runs < 3 * CHUNK_BLOCKS * BLOCK_RUNS
        assert runs % BLOCK_RUNS
        with caplog.at_level(logging.DEBUG, logger="cascadefund"):
            assert run(workdir, *CHUNKED_ARGV) == 0
        (record,) = [r for r in caplog.records if r.getMessage().startswith("simulate: ")]
        assert record.levelno == logging.DEBUG
        policy = solved(QualitySpec.uniform(0.5, 0.8), 2, 3, grid_size=129)
        histories = len(simulate_runs(policy, GameState(L=1.0, B=2, n=3), runs, seed=11).odds)
        assert record.args == (runs, 3, CHUNK_BLOCKS * BLOCK_RUNS, histories)

    def test_memory_is_flat_in_the_run_count(self, workdir):
        # One chunk of runs is alive at a time: the traced allocation peak
        # of a simulate at 100,000 runs is within 0.5 MB of the one at
        # 10,000, where holding every run would add about 3.7 MB.
        def peak(runs):
            tracemalloc.start()
            try:
                assert run(workdir, "simulate", "--B", "2", "--n", "3", "--grid-size", "65",
                           "--runs", runs, "--out", "flat") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10_000)  # what every run shares, such as the imports' caches
        small, big = peak(10_000), peak(100_000)
        assert big - small <= 0.5e6

    def test_seed_changes_draws(self, workdir):
        base = ("simulate", "--runs", "100", "--grid-size", "301")
        assert run(workdir, *base, "--seed", "1", "--out", "a") == 0
        assert run(workdir, *base, "--seed", "2", "--out", "b") == 0
        assert (workdir / "a.csv").read_bytes() != (workdir / "b.csv").read_bytes()


class TestAnalyze:
    def test_report_fields(self, workdir):
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text(
            json.dumps({"quality": {"kind": "uniform", "R": 0.65, "Q": 0.8}})
        )
        assert run(workdir, "analyze", "--config", str(cfgfile), "--out", "an") == 0
        doc = json.loads((workdir / "an.json").read_text())
        assert doc["cascades"]["up_bound"] == pytest.approx(4.0, abs=1e-9)
        assert doc["delegation"]["startable"] is True
        assert doc["min_R_for_cascades"] == pytest.approx(0.620204103, abs=1e-9)

    def test_player_count_is_not_checked(self, workdir, capsys):
        # analyze reads B alone, so B above the default n = 2 is valid.
        assert run(workdir, "analyze", "--B", "3", "--out", "b3") == 0
        assert run(workdir, "analyze", "--B", "3", "--n", "3", "--out", "b3n3") == 0
        got, want = (json.loads((workdir / f"{name}.json").read_text()) for name in ("b3", "b3n3"))
        for block in ("cascades", "delegation"):
            assert got[block] == want[block]
        assert run(workdir, "analyze", "--B", "0") == 2
        assert "need 1 <= B <= 50" in capsys.readouterr().err


class TestConfigHandling:
    def test_flags_override_config_file(self, workdir):
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text(json.dumps({"seed": 9, "runs": 50}))
        assert run(
            workdir,
            "simulate",
            "--config", str(cfgfile),
            "--runs", "75",
            "--grid-size", "301",
            "--out", "ov",
        ) == 0
        doc = json.loads((workdir / "ov.json").read_text())
        assert doc["config"]["runs"] == 75
        assert doc["config"]["seed"] == 9

    def test_quality_spec_from_file(self, workdir):
        qfile = workdir / "q.json"
        # File-based specs must already integrate to one.
        qfile.write_text(
            json.dumps(
                {
                    "kind": "tabulated",
                    "R": 0.55,
                    "Q": 0.8,
                    "knots": [[0.55, 2.0], [0.675, 4.0], [0.8, 6.0]],
                }
            )
        )
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text(json.dumps({"quality": str(qfile), "grid_size": 301}))
        assert run(workdir, "analyze", "--config", str(cfgfile), "--out", "qf") == 0
        doc = json.loads((workdir / "qf.json").read_text())
        assert doc["config"]["quality"]["kind"] == "tabulated"

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--B", "3", "--n", "2"),
            ("simulate", "--runs", "0"),
            ("solve", "--grid-size", "8"),
            ("sweep", "--L-min", "2.0", "--L-max", "1.0"),
            ("simulate", "--seed", "-1"),
        ],
    )
    def test_invalid_values_exit_2(self, workdir, argv, capsys):
        assert run(workdir, *argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, workdir, capsys):
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text(json.dumps({"grid": 100}))
        assert run(workdir, "solve", "--config", str(cfgfile)) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_bad_config_json_exit_2(self, workdir):
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text("{not json")
        assert run(workdir, "solve", "--config", str(cfgfile)) == 2

    def test_missing_config_file_exit_2(self, workdir):
        assert run(workdir, "solve", "--config", "nope.json") == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"quality": {"kind": "uniform", "R": 0.9, "Q": 0.8}},
            {"quality": {"kind": "uniform", "R": "abc", "Q": 0.8}},
            {"L0": "abc"},
            {"L0": [1]},
            {"out": 5},
            {"L0": True},
            {"L_max": True},
            {"quality": {"kind": "tabulated", "R": 0.5, "Q": 0.8,
                         "knots": [[0.5, True], [0.6, 4.0], [0.8, 3.5]]}},
            {"quality": {"kind": "tabulated", "R": 0.5, "Q": 0.8,
                         "knots": [[0.5, float("nan")], [0.65, 3.33], [0.8, 3.33]]}},
            {"quality": {"kind": "tabulated", "R": 0.5, "Q": 0.8,
                         "knots": [[0.5, 3.33], [float("nan"), 3.33], [0.8, 3.33]]}},
            {"L0": "2"},
            {"quality": {"kind": "uniform", "R": "0.5", "Q": 0.8}},
            {"quality": {"kind": "tabulated", "R": 0.5, "Q": 0.8,
                         "knots": [[0.5, "1"], [0.6, 4.0], [0.8, 3.5]]}},
        ],
        ids=["R-above-Q", "R-not-a-number", "L0-not-a-number", "L0-a-list", "out-not-a-path",
             "L0-a-boolean", "L_max-a-boolean", "knot-a-boolean", "knot-density-NaN",
             "knot-position-NaN", "L0-a-numeric-string", "R-a-numeric-string",
             "knot-a-numeric-string"],
    )
    def test_bad_quality_values_exit_2(self, workdir, doc):
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        assert run(workdir, "solve", "--config", str(cfgfile)) == 2

    def test_missing_quality_file_exit_2(self, workdir, capsys):
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text(json.dumps({"quality": "nope_quality.json"}))
        assert run(workdir, "solve", "--config", str(cfgfile)) == 2
        assert "nope_quality.json" in capsys.readouterr().err

    def test_bad_quality_json_exit_2(self, workdir, capsys):
        (workdir / "q.json").write_text("{not json")
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text(json.dumps({"quality": "q.json"}))
        assert run(workdir, "solve", "--config", str(cfgfile)) == 2
        assert "q.json" in capsys.readouterr().err

    def test_no_subcommand_exit_2(self):
        assert cli.main([]) == 2

    def test_unknown_flag_exit_2(self):
        assert cli.main(["solve", "--bogus"]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert cli.main(["solv", "--B", "2"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_unwritable_out_exit_2(self, workdir, command, capsys):
        # The prefix's directory is a regular file, so no output can be opened.
        (workdir / "err.txt").write_text("")
        argv = [command, "--out", "err.txt/x"] + (["--grid-size", "129"] if command == "solve" else [])
        assert run(workdir, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ")
        assert "numeric failure" not in err


FLAGS = ("--config", "--B", "--n", "--L0", "--grid-size", "--seed", "--runs",
         "--L-min", "--L-max", "--L-points", "--format", "--out")
COMMAND_HELP = {
    "solve": "solve a policy table and write it out",
    "sweep": "threshold profiles across a range of odds (B = n)",
    "simulate": "Monte Carlo runs under the solved policy",
    "analyze": "cascade bounds and delegation report",
}


class TestParser:
    @pytest.mark.parametrize("command", sorted(COMMAND_HELP))
    def test_command_help_lists_every_flag(self, command, capsys):
        assert cli.main([command, "--help"]) == 0
        text = capsys.readouterr().out
        for flag in FLAGS:
            assert f"{flag} " in text, flag

    def test_help_names_every_command_with_its_sentence(self, capsys):
        assert cli.main(["--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for command, sentence in COMMAND_HELP.items():
            assert any(line.split() == [command, *sentence.split()] for line in lines), command

    def test_flags_may_come_before_the_command(self, workdir, monkeypatch):
        flags = ["--B", "2", "--n", "3", "--grid-size", "129", "--out", "t"]
        for where, argv in (("before", [*flags, "solve"]), ("after", ["solve", *flags])):
            (workdir / where).mkdir()
            monkeypatch.chdir(workdir / where)
            assert cli.main(argv) == 0
        for name in ("t.csv", "t.json"):
            before, after = ((workdir / d / name).read_bytes() for d in ("before", "after"))
            assert before == after


class TestNumericFailure:
    def test_solver_blowup_exits_3(self, workdir, monkeypatch, capsys):
        def boom(*a, **k):
            raise RuntimeError("synthetic blowup")

        monkeypatch.setattr(cli, "backward_induction", boom)
        assert run(workdir, "solve") == 3
        assert "numeric failure (RuntimeError)" in capsys.readouterr().err

    def test_underflowing_dead_bound_exits_3_before_any_row(self, workdir, monkeypatch, capsys):
        def no_row(*args):
            raise AssertionError("a row was solved")

        monkeypatch.setattr(engine, "_solve_row", no_row)
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text(
            json.dumps({"quality": {"kind": "uniform", "R": 0.5, "Q": 0.9999999}, "B": 50, "n": 50})
        )
        assert run(workdir, "solve", "--config", str(cfgfile)) == 3
        err = capsys.readouterr().err
        assert "numeric failure (DomainError): dead bound" in err
        assert "Q=0.9999999, B0=50" in err


def _cell(v) -> str:
    """The per-cell CSV rule: bools as 0/1, integers as is, floats to 9 digits."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.9g}"


def _with_neighbours(values):
    """Each value with the doubles one ulp below and above it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


_SPECIAL = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
            1e-320, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
_TEN_POWERS = np.concatenate([(s * _with_neighbours(10.0 ** np.arange(-6, 11))) for s in (1, -1)])
# Ten-digit decimals ending in 5: exact ties for 9 digits, if representable.
_HALF_WAYS = _with_neighbours([float(f"{m}5e{k}")
                               for m in (100000000, 123456789, 314159265, 500000000, 999999999)
                               for k in range(-16, 3)])
# Values whose 9-digit mantissa rounds up to 1e9, moving the exponent.
_CARRIES = _with_neighbours([999999999.5, 999999999.6, 99999999.95, 9.9999999995e-5,
                             9.99999999949e-5, 0.99999999995, 0.0001, 1e9])


def _render(path, cols) -> list[str]:
    """The body lines `_write_csv` writes for these columns."""
    cli._write_csv(path, {}, [f"c{i}" for i in range(len(cols))], [cols])
    with open(path) as fh:
        return fh.read().split("\n")[3:-1]


def _oracle(cols) -> list[str]:
    """The per-cell writer: `'%.9g' % v` for float columns, `'%d' % v` otherwise."""
    fmts = ["%.9g" if c.dtype.kind == "f" else "%d" for c in cols]
    return [",".join(f % v for f, v in zip(fmts, row)) for row in zip(*(c.tolist() for c in cols))]


class TestCsvWriter:
    def test_block_format_matches_per_cell_rule(self, workdir):
        floats = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300,
                  123456789.5, 0.1, -2.5e-7, 1.0 / 3.0]
        rows = BLOCK_RUNS + 3  # crosses a block boundary
        ints = np.arange(rows, dtype=np.int64) * 7919 - 10**12
        small = (np.arange(rows) % 2).astype(np.int8)
        py_bools = [i % 3 == 0 for i in range(rows)]
        np_bools = np.arange(rows) % 5 == 0
        fl = np.resize(np.array(floats), rows)
        grid = np.stack([fl[::-1], fl * 3.0], axis=1)
        cli._write_csv("w.csv", {"k": 1}, ["i", "s", "p", "b", "f", "g1", "g2"],
                       [[ints, small, py_bools, np_bools, fl, grid]])
        lines = (workdir / "w.csv").read_text().split("\n")
        assert lines[:3] == ['# config: {"k": 1}', f"# version: {cli.__version__}",
                             "i,s,p,b,f,g1,g2"]
        want = [
            ",".join(_cell(v) for v in (ints[i], small[i], py_bools[i], np_bools[i],
                                        fl[i], grid[i, 0], grid[i, 1]))
            for i in range(rows)
        ]
        assert lines[3:] == want + [""]

    def test_zero_row_table_writes_header_and_names(self, workdir):
        cli._write_csv("z.csv", {"k": 1}, ["a", "b"], [[np.empty(0), np.empty(0, dtype=int)]])
        assert (workdir / "z.csv").read_text().split("\n") == [
            '# config: {"k": 1}', f"# version: {cli.__version__}", "a,b", ""]

    @pytest.mark.parametrize("values", [
        pytest.param(_SPECIAL, id="special"),
        pytest.param(_TEN_POWERS, id="powers-of-ten"),
        pytest.param(_HALF_WAYS, id="half-ways"),
        pytest.param(_CARRIES, id="carries"),
        pytest.param(np.random.default_rng(11).integers(0, 2**64, 5000, dtype=np.uint64)
                     .view(np.float64), id="random-bits"),
        pytest.param(np.random.default_rng(12).choice([-1.0, 1.0], 5000)
                     * 10.0 ** np.random.default_rng(13).uniform(-6, 11, 5000), id="log-uniform"),
    ])
    def test_float_cells_match_per_cell_rule(self, workdir, values):
        values = np.asarray(values, dtype=np.float64)
        assert _render("f.csv", [values, values[::-1]]) == _oracle([values, values[::-1]])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_any_floats_match_per_cell_rule(self, workdir, values):
        col = np.array(values, dtype=np.float64)
        assert _render("h.csv", [col]) == _oracle([col])

    def test_integer_and_bool_cells_match_per_cell_rule(self, workdir):
        info = np.iinfo(np.int64)
        big = np.array([info.min, info.min + 1, -(10**18), -1, 0, 1, 9, 10, 10**18, info.max])
        wide = np.random.default_rng(14).integers(info.min, info.max, 256, endpoint=True)
        cols = [
            np.arange(-128, 128, dtype=np.int8),
            np.resize(big, 256),
            wide,
            np.arange(256, dtype=np.uint8),
            np.arange(256) % 3 == 0,
            np.asarray([i % 2 == 0 for i in range(256)]),
        ]
        assert _render("i.csv", cols) == _oracle(cols)

    def test_every_mask_key_matches_per_cell_rule(self, workdir, caplog):
        # One value per (sign, exponent, last nonzero digit) key of the float
        # masks: the digits 1..9 cut after the last one, at each fixed-notation
        # exponent, so every table row is read and no cell falls back to %.
        values = np.array([float(f"{sign}{'123456789'[:last + 1]}e{e - last}")
                           for sign in ("", "-") for e in range(-4, 9) for last in range(9)])
        assert values.size == 2 * 13 * 9
        with caplog.at_level(logging.DEBUG, logger="cascadefund"):
            assert _render("k.csv", [values]) == _oracle([values])
        (record,) = [r for r in caplog.records if r.name == "cascadefund"]
        assert record.args[1:] == (234, 234, 0)

    def test_widths_change_across_blocks(self, workdir):
        # Each block is cut to its own widest cell, with a sign byte only
        # where it holds a negative: 11-character positive floats and short
        # positive integers next to blocks with a 15-character negative float,
        # a negative integer and a wider integer.
        rows = 3 * BLOCK_RUNS
        fl = np.resize([0.123456789, 0.987654321, 0.5], rows)
        fl[BLOCK_RUNS + 7] = -0.000123456789
        fl[2 * BLOCK_RUNS + 1] = 0.000123456789
        ints = np.arange(rows, dtype=np.int64) % 10
        ints[BLOCK_RUNS + 3] = -123456789012
        ints[2 * BLOCK_RUNS :] += 1_000_000
        cols = [fl, ints, fl[::-1], -ints]
        assert _render("b.csv", cols) == _oracle(cols)

    def test_exact_zeros_stay_on_the_vector_path(self, workdir, caplog):
        # Like a policy table's pi columns: mostly exact zeros, a few cells
        # that need scientific notation, and multiples of 1/256, which print
        # in at most 8 digits, so that no cell is a near tie.
        pi = np.zeros(3000)
        pi[::7] = np.arange(1, pi[::7].size + 1) % 256 / 256
        pi[1::50] = -0.0
        pi[[5, 6]] = 1e-9, -3e-7
        with caplog.at_level(logging.DEBUG, logger="cascadefund"):
            assert _render("p.csv", [pi, pi[::-1]]) == _oracle([pi, pi[::-1]])
        (record,) = [r for r in caplog.records if r.name == "cascadefund"]
        assert record.levelno == logging.DEBUG
        assert record.args[1:] == (3000, 6000, 4)

    def test_uint32_digit_boundary(self, workdir):
        # Digits are taken in uint32 where a block's largest magnitude is
        # below 2**32: magnitudes 2**32 - 1 and 2**32 in one block, and in
        # blocks on either side of that switch.
        edge = np.array([2**32 - 1, -(2**32 - 1), 2**32, -(2**32), 4294967290, 0, 7])
        rows = 3 * BLOCK_RUNS
        below = np.resize(np.array([2**32 - 1, 5, 4294967290]), rows)
        below[BLOCK_RUNS + 3] = 2**32
        below[2 * BLOCK_RUNS + 9] = -(2**32 - 1)
        above = -below
        above[2 * BLOCK_RUNS + 2] = -(2**32)
        cols = [np.resize(edge, rows), below, above, np.abs(below).astype(np.uint64)[::-1]]
        assert _render("u.csv", cols) == _oracle(cols)

    def test_indexed_part_matches_per_cell_rule(self, workdir, caplog):
        # A table formatted once and gathered by index across a block
        # boundary.  Its row 3 is never used, and its nan and 1e-300 cells
        # go through %: each counts once, however many rows gather it.
        fl = np.array([float("nan"), 1e-300, -0.0, 0.5, -2.5])
        ints = np.array([3, -7, 0, 12, 99])
        flags = np.array([True, False, True, False, True])
        table = [ints, fl, flags, np.stack([fl[::-1], 2.0 * ints], axis=1)]
        rows = BLOCK_RUNS + 5
        index = np.resize([0, 2, 1, 4, 1, 0], rows)
        run, tail = np.arange(rows), np.resize([0.25, -1.5, 3.0], rows)
        flat = [run, ints[index], fl[index], flags[index], fl[::-1][index], 2.0 * ints[index], tail]
        names = [f"c{i}" for i in range(len(flat))]
        with caplog.at_level(logging.DEBUG, logger="cascadefund"):
            cli._write_csv("x.csv", {}, names, [[run, (table, index), tail]])
        assert (workdir / "x.csv").read_text().split("\n")[3:-1] == _oracle(flat)
        (record,) = [r for r in caplog.records if r.name == "cascadefund"]
        assert record.args[1:] == (rows, rows * len(flat), 4)

    def test_indexed_part_with_zero_rows(self, workdir):
        none = np.empty(0, dtype=np.intp)
        for table in ([np.array([1.5, float("nan")]), np.array([-4, 2])],
                      [np.empty(0), np.empty(0, dtype=int)]):
            assert _render("e.csv", [none, (table, none), np.empty(0)]) == []

    def test_simulate_csv_stays_on_the_vector_path(self, workdir, caplog):
        # A later edit that sends a whole column through % fails here.
        with caplog.at_level(logging.DEBUG, logger="cascadefund"):
            assert run(workdir, "simulate", "--B", "2", "--n", "3", "--grid-size", "129",
                       "--runs", "20000", "--seed", "3", "--out", "fast") == 0
        (record,) = [r for r in caplog.records if r.getMessage().startswith("csv ")]
        path, rows, cells, slow = record.args
        assert (path, rows, cells) == ("fast.csv", 20000, 20000 * 10)
        assert slow <= cells // 1000


TABULATED = {
    "kind": "tabulated",
    "R": 0.6,
    "Q": 0.85,
    "knots": [[q, d / 0.3] for q, d in ((0.6, 1.0), (0.7, 0.0), (0.75, 2.0), (0.85, 2.0))],
}

# A simulate over three chunks of runs, the last one partial (see
# TestSimulate.test_one_record_gives_the_chunks); its digests were recorded
# while one simulate still played every run as one batch.
CHUNKED_ARGV = ["simulate", "--B", "2", "--n", "3", "--grid-size", "129", "--runs", "37768",
                "--seed", "11", "--out", "chunked"]

# Output digests of small runs, recorded before the block CSV writer, the
# fused tail kernel and the single simulation per simulate call; those
# changes keep every output byte-identical.  The three-player sweep digest
# was recorded before sweeps solved all odds points in one ladder walk and
# one vectorised walk down the engine diagonal.  The analyze digests (both
# configs have startable cascades, so the witness bisection runs) were
# recorded after the report dropped its always-null delegation "pattern"
# key; the rest of both documents is unchanged since before the
# root-finding loops moved onto one bisection helper.  The four-member
# sweep and solve digests were recorded before the exact ladder, the
# sweep and the B = n continuation multisets shared one all-invest walk;
# they cover a three-member continuation in each B = 4 row's grouping.
# The 161-point two-player sweep digest was recorded before the exact
# ladder's two-player steps read the shared closed-form last mover and
# took the certified scan.  The solve, solvej and solve4 digests were
# re-recorded once B = 1 rows took the closed-form cut: a few completion
# probabilities of order 1e-10 to 1e-4 near a dead frontier moved in their
# last digits, towards the exact tails.
GOLDEN = [
    (["solve", "--B", "2", "--n", "3", "--grid-size", "129", "--out", "solve"], {
        "solve.csv": "40244c9aec215d68afda3e403efa69160e04ba337198c5f19e0a8cd77b103746",
        "solve.json": "8eb854e24df8fd936c8395cda5b83def381d084cae3c415edd7003e004f7235a",
    }),
    (["solve", "--grid-size", "129", "--format", "json", "--out", "solvej"], {
        "solvej.json": "e0a1db81752f5de9f2b397b0e4f294f537a7038e843bb8cc78e67d204f9f45d5",
    }),
    (["sweep", "--config", "sweep.config.json", "--out", "sweep"], {
        "sweep.csv": "dc1cfb9f2ad055efce54b896b5025c2ee37ff968ed71f5f759b7d3652664ece9",
    }),
    (["sweep", "--config", "sweep.config.json", "--format", "json", "--out", "sweepj"], {
        "sweepj.json": "722e2e318d96e0edd82004704a174f7058f4e5c108f7e2145d4019b0a2006472",
    }),
    (["sweep", "--B", "3", "--n", "3", "--L-points", "21", "--out", "sweep3"], {
        "sweep3.csv": "8aadd1df2b88726df89320e6d35c11057116da1297318fcebe524666263816f6",
    }),
    (["sweep", "--config", "analyze.config.json", "--B", "4", "--n", "4",
      "--grid-size", "257", "--L-points", "21", "--out", "sweep4"], {
        "sweep4.csv": "b09d7feb4b9faa559a3df7e2396faf861f648b840174d4730c7fcb1bdbe715af",
    }),
    (["sweep", "--config", "analyze.config.json", "--B", "2", "--n", "2",
      "--L-points", "161", "--out", "sweep161"], {
        "sweep161.csv": "ff0123d56ea469ae47f65b38af624632f0f9794abf71c12d9e7b89ee40087f05",
    }),
    (["solve", "--config", "analyze.config.json", "--B", "4", "--n", "4",
      "--grid-size", "129", "--out", "solve4"], {
        "solve4.csv": "5ea93d212b51fda3fb3a1c1f034f4588d1eef8ec3c8340ea2d88fd5ff833f907",
        "solve4.json": "808e514eb0c550a0a2b5cbdc4e6c1cebd45fea38be79795c22b0f239a4999a94",
    }),
    (["simulate", "--B", "2", "--n", "3", "--grid-size", "129", "--runs", "5000",
      "--seed", "7", "--out", "simulate"], {
        "simulate.csv": "6450aefee730e0f0f5cface1a934f131ae9df9ad3b96d7519d34fa0bb64d306b",
        "simulate.json": "a165185bb714a5de288263112a512e3d304cecfa6ad667696e622ec20df4f6c9",
    }),
    (CHUNKED_ARGV, {
        "chunked.csv": "7c90a256c65b9ba6a7346d876f463eba84f175bc4c2dec274683db142265b806",
        "chunked.json": "5b237f2afd86f75f219377abe8f2deab52c382ac234fb2bc4b8f317366abcae5",
    }),
    (["analyze", "--config", "analyze.config.json", "--out", "analyze_u"], {
        "analyze_u.json": "1dfa746a80e75e91088840d8518b5c6fb2b61066d6363bc9b3e619ec7f1b038b",
    }),
    (["analyze", "--config", "sweep.config.json", "--out", "analyze_t"], {
        "analyze_t.json": "a614966ffd80bb9d9ad048046460163f18ea5710b0703dd14d9cde5bf9f11802",
    }),
]


class TestGoldenOutputs:
    @pytest.mark.filterwarnings("ignore::cascadefund.beliefs.OutOfSupportWarning")
    @pytest.mark.parametrize("argv,digests", GOLDEN, ids=[g[0][-1] for g in GOLDEN])
    def test_output_digests(self, workdir, argv, digests):
        (workdir / "sweep.config.json").write_text(
            json.dumps({"quality": TABULATED, "B": 2, "n": 2, "L_points": 21})
        )
        (workdir / "analyze.config.json").write_text(
            json.dumps({"quality": {"kind": "uniform", "R": 0.65, "Q": 0.8}})
        )
        assert run(workdir, *argv) == 0
        got = {
            name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in digests
        }
        assert got == digests

    def test_estimate_from_batch_matches_resimulation(self, solved):
        policy = solved(QualitySpec.uniform(0.5, 0.8), 2, 3, grid_size=129)
        state = GameState(L=1.0, B=2, n=3)
        batch = simulate_runs(policy, state, 5000, seed=7)
        assert completion_from_batch(batch) == estimate_completion(policy, state, 5000, seed=7)
