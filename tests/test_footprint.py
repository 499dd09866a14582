"""What a CLI run loads, in a fresh interpreter (`fresh_run.run_cli`): a
path pays only for the code it runs.  `configparser` loads only where a
config file is read, `traceback` only where a forked writer fails, and
g17's tables only where a table outgrows CPython's formatter
(`dynamics._CPYTHON_VALUES`)."""

from fresh_run import run_cli

CONFIG = """\
[problem]
kind = quadratic
q_diag = 1 4
[schedule]
family = constant
d = 2
sigma = 1
[integrator]
t0 = 0
t_end = {t_end}
step = 1e-3
record_stride = 1
[output]
formats = csv
"""


def test_smooth_demo_loads_neither_configparser_nor_traceback(tmp_path):
    run = run_cli(["smooth-demo", "--out", tmp_path, "--quiet"])
    assert (run.exit, run.code) == (0, 0)
    assert {"configparser", "traceback"}.isdisjoint(run.modules)
    # its 1301 x 14 table is formatted by CPython
    assert not run.g17_tables
    assert run.maxrss_mb > 0


def test_simulate_loads_configparser_and_g17_by_table_size(tmp_path):
    # 14 values a row: 2000 rows stay at or below 2^15 values, 2400 exceed it
    for t_end, tables in ((2.0, False), (2.4, True)):
        cfg = tmp_path / f"run{t_end}.cfg"
        cfg.write_text(CONFIG.format(t_end=t_end))
        run = run_cli(["simulate", "--config", cfg, "--out", tmp_path / f"out{t_end}", "--quiet"])
        assert (run.exit, run.code) == (0, 0)
        assert "configparser" in run.modules
        assert "traceback" not in run.modules
        assert run.g17_tables is tables
