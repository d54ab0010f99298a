"""Command line behavior: files written, exit codes, determinism."""

import hashlib
import json
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cascadefund import cli
from cascadefund.beliefs import QualitySpec
from cascadefund.engine import GameState
from cascadefund.simulate import (
    BLOCK_RUNS,
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
        ],
        ids=["R-above-Q", "R-not-a-number", "L0-not-a-number", "L0-a-list", "out-not-a-path",
             "L0-a-boolean", "L_max-a-boolean", "knot-a-boolean"],
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


class TestNumericFailure:
    def test_solver_blowup_exits_3(self, workdir, monkeypatch, capsys):
        def boom(*a, **k):
            raise RuntimeError("synthetic blowup")

        monkeypatch.setattr(cli, "backward_induction", boom)
        assert run(workdir, "solve") == 3
        assert "numeric failure (RuntimeError)" in capsys.readouterr().err


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
    cli._write_csv(path, {}, [f"c{i}" for i in range(len(cols))], cols)
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
                       [ints, small, py_bools, np_bools, fl, grid])
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
        cli._write_csv("z.csv", {"k": 1}, ["a", "b"], [np.empty(0), np.empty(0, dtype=int)])
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

# Output digests of small runs, recorded before the block CSV writer, the
# fused tail kernel and the single simulation per simulate call; those
# changes keep every output byte-identical.  The three-player sweep digest
# was recorded before sweeps solved all odds points in one ladder walk and
# one vectorised walk down the engine diagonal.  The analyze digests (both
# configs have startable cascades, so the witness bisection runs) were
# recorded after the report dropped its always-null delegation "pattern"
# key; the rest of both documents is unchanged since before the
# root-finding loops moved onto one bisection helper.
GOLDEN = [
    (["solve", "--B", "2", "--n", "3", "--grid-size", "129", "--out", "solve"], {
        "solve.csv": "578c251bf4fc4950f41812ef3e8b101cb1b46b5a4c0467e125b6a2a840fdcd65",
        "solve.json": "8eb854e24df8fd936c8395cda5b83def381d084cae3c415edd7003e004f7235a",
    }),
    (["solve", "--grid-size", "129", "--format", "json", "--out", "solvej"], {
        "solvej.json": "e3350895c0381d71aeeb9e401a2cac8b049fc2f460c53a7195afb5beb92f2ef0",
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
    (["simulate", "--B", "2", "--n", "3", "--grid-size", "129", "--runs", "5000",
      "--seed", "7", "--out", "simulate"], {
        "simulate.csv": "6450aefee730e0f0f5cface1a934f131ae9df9ad3b96d7519d34fa0bb64d306b",
        "simulate.json": "a165185bb714a5de288263112a512e3d304cecfa6ad667696e622ec20df4f6c9",
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
