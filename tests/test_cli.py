import csv
import json
import math

import mpmath
import pytest

from fdlink import SystemConfig, analytic, cli, db_to_linear, linear_to_db, montecarlo
from fdlink.cli import FIELDS, SweepSpec, main, preset, run_sweep
from fdlink.errors import InvalidRange, UnknownPreset
from fdlink.montecarlo import MAX_TRIALS


def tiny_spec(tmp_path, **kw):
    base = dict(
        metric="wsr",
        policies=["serial_max"],
        snr_db=[10.0],
        eta=[0.05],
        sizes=[(2, 2)],
        w=0.7,
        trials=200,
        seed=5,
        out=str(tmp_path / "out.csv"),
    )
    base.update(kw)
    return SweepSpec(**base)


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "fig6", "table1", "pnot"])
def test_presets_build_and_validate(name):
    spec = preset(name)
    spec.out = "unused.csv"
    spec.validate()
    assert spec.trials == 20000
    assert spec.seed == 12345


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("fig9")


def test_spec_validation_errors(tmp_path):
    with pytest.raises(InvalidRange):
        tiny_spec(tmp_path, metric="ber").validate()
    with pytest.raises(InvalidRange):
        tiny_spec(tmp_path, snr_db=[]).validate()
    with pytest.raises(InvalidRange):
        tiny_spec(tmp_path, trials=0).validate()
    with pytest.raises(InvalidRange):
        tiny_spec(tmp_path, fmt="parquet").validate()


def test_sweep_csv_layout_and_content(tmp_path):
    spec = tiny_spec(tmp_path, snr_db=[0.0, 10.0], policies=["max_wsr", "serial_max"])
    rows = run_sweep(spec)
    assert len(rows) == 4
    with open(spec.out, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = list(reader)
    assert header == FIELDS
    assert len(data) == 4
    by_name = dict(zip(header, data[0]))
    assert by_name["policy"] == "max_wsr"
    assert by_name["analytic_value"] == ""  # closed forms cover serial_max only
    serial = dict(zip(header, data[1]))
    assert serial["policy"] == "serial_max"
    assert float(serial["analytic_value"]) > 0
    assert float(serial["ceiling_or_floor"]) > 0
    assert int(serial["comparisons"]) == 5


def test_sweep_reruns_are_byte_identical(tmp_path):
    spec_a = tiny_spec(tmp_path, out=str(tmp_path / "a.csv"))
    spec_b = tiny_spec(tmp_path, out=str(tmp_path / "b.csv"))
    run_sweep(spec_a)
    run_sweep(spec_b)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_json_and_sidecar(tmp_path):
    spec = tiny_spec(tmp_path, out=str(tmp_path / "out.json"), fmt="json")
    run_sweep(spec)
    records = json.loads((tmp_path / "out.json").read_text())
    assert len(records) == 1
    assert records[0]["policy"] == "serial_max"
    meta = json.loads((tmp_path / "out.json.meta.json").read_text())
    assert meta["tool"] == "fdlink"
    assert sorted(meta["libraries"]) == ["mpmath", "numpy", "scipy"]
    assert meta["libraries"]["mpmath"] == mpmath.__version__
    assert meta["spec"]["seed"] == 5
    assert meta["spec"]["sizes"] == [[2, 2]]


def test_json_output_writes_non_finite_cells_as_null(tmp_path):
    # at -3000 dB the eta = 0 SER asymptote is infinite; JSON has no token
    # for it, so the cell is null, and CSV keeps writing inf
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    args = ["--metric", "wser", "--eta", "0", "--na", "6", "--nb", "6", "--snr-db", "-3000",
            "--trials", "100"]
    assert main(args + ["--format", "json", "--out", str(tmp_path / "out.json")]) == 0
    with open(tmp_path / "out.json") as fh:
        (record,) = json.load(fh, parse_constant=refuse)
    assert record["ceiling_or_floor"] is None
    assert record["mc_value"] == 0.5
    assert main(args + ["--out", str(tmp_path / "out.csv")]) == 0
    (row,) = csv.DictReader(open(tmp_path / "out.csv"))
    assert row["ceiling_or_floor"] == "inf"


def test_table1_comparisons(tmp_path):
    spec = preset("table1")
    spec.out = str(tmp_path / "t.csv")
    rows = run_sweep(spec)
    by_key = {(r.policy, r.n_a): r.comparisons for r in rows}
    for n in range(2, 9):
        assert by_key[("exhaustive", n)] == n * n * (n - 1) * (n - 1) // 2
        assert by_key[("serial_max", n)] == 2 * n * n - 2 * n + 1


def test_pnot_rows_carry_bound(tmp_path):
    spec = preset("pnot", trials=2000)
    spec.out = str(tmp_path / "p.csv")
    rows = run_sweep(spec)
    assert len(rows) == 4
    for r in rows:
        assert 0.0 <= r.mc_value <= r.analytic_value


def test_fig4_cells_are_plain_numbers(tmp_path):
    # the eta = 0 rows carry the high-SNR asymptote in ceiling_or_floor
    spec = preset("fig4", trials=200)
    spec.snr_db = [0.0, 40.0]
    spec.out = str(tmp_path / "f4.csv")
    run_sweep(spec)
    with open(spec.out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["ceiling_or_floor"] != "" for r in rows] == [True] * 8
    assert [cell for r in rows for cell in r.values() if cell.startswith("np.")] == []


def test_cdf_metric_rows(tmp_path):
    spec = tiny_spec(tmp_path, metric="cdf", trials=2000)
    rows = run_sweep(spec)
    assert {r.policy for r in rows} == {"gamma_ab", "gamma_ba"}
    for r in rows:
        assert 0.0 <= r.mc_value <= 1.0
        assert 0.0 <= r.analytic_value <= 1.0


def record_draws(monkeypatch):
    calls = []
    draw = montecarlo.draw_trial_batch

    def recording(seed, start, count, *args, **kwargs):
        calls.append((start, count))
        return draw(seed, start, count, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "draw_trial_batch", recording)
    return calls


def test_cdf_sweep_draws_each_trial_once(tmp_path, monkeypatch):
    calls = record_draws(monkeypatch)
    run_sweep(tiny_spec(tmp_path, metric="cdf", trials=1000, snr_db=[0.0, 10.0, 20.0],
                        eta=[0.0, 0.05]))
    assert calls == [(0, 1000)]


def test_cdf_sweep_evaluates_one_kernel_vector_per_point(tmp_path, monkeypatch):
    # 49 grid points, each one kernel vector (Q(nn), Q(k)) shared by both links
    calls = []
    kernel = analytic._q_cdf
    monkeypatch.setattr(analytic, "_q_cdf", lambda *a, **kw: calls.append(a) or kernel(*a, **kw))
    rows = run_sweep(tiny_spec(tmp_path, metric="cdf", sizes=[(6, 6)], trials=100))
    assert len(rows) == 98
    assert len(calls) == 49


@pytest.mark.parametrize("policy", montecarlo.POLICIES)
def test_serial_max_sweep_draws_each_chunk_once(tmp_path, monkeypatch, policy):
    # 9 SNR x 3 eta points share each chunk's draw, and under Serial-Max its
    # selection too
    monkeypatch.setattr(montecarlo, "_CHUNK", 400)
    calls = record_draws(monkeypatch)
    redraws = []
    total = montecarlo._total
    monkeypatch.setattr(montecarlo, "_total", lambda certified, values: total(
        certified, lambda: redraws.append(values) or values()))
    spec = tiny_spec(tmp_path, policies=[policy], snr_db=[float(s) for s in range(0, 41, 5)],
                     eta=[0.0, 0.02, 0.1], sizes=[(3, 3)], trials=1000)
    rows = run_sweep(spec)
    # a mean whose certificate failed would draw its point's chunks again;
    # at this seed every mean is certified
    assert calls == [(0, 400), (400, 400), (800, 200)]
    assert not redraws
    assert len(rows) == 27
    for row in rows:
        cfg = SystemConfig(n_a=3, n_b=3, lambda_s=db_to_linear(row.snr_db), eta=row.eta, w=row.w)
        est = montecarlo.mc_weighted_sum_rate(cfg, policy, 1000, spec.seed)
        assert (row.mc_value, row.mc_stderr) == (est.value, est.std_error)


@pytest.mark.parametrize("metric,limit", [("wsr", "rate_ceiling"), ("wser", "ser_floor")])
def test_sweep_takes_each_limit_once_per_eta(tmp_path, monkeypatch, metric, limit):
    # ceilings and floors do not depend on lambda_s
    calls = []
    original = getattr(cli, limit)
    monkeypatch.setattr(cli, limit, lambda cfg: calls.append(cfg.eta) or original(cfg))
    rows = run_sweep(tiny_spec(tmp_path, metric=metric, snr_db=[0.0, 20.0, 40.0],
                               eta=[0.0, 0.02, 0.1], sizes=[(3, 3)], trials=100))
    assert calls == [0.02, 0.1]
    for row in rows:
        if row.eta > 0:
            cfg = SystemConfig(n_a=3, n_b=3, lambda_s=db_to_linear(row.snr_db), eta=row.eta, w=row.w)
            assert row.ceiling_or_floor == original(cfg)


def test_sweep_output_does_not_depend_on_its_directory(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        run_sweep(tiny_spec(tmp_path, out=str(tmp_path / name / "out.csv")))
    for suffix in ("out.csv", "out.csv.meta.json"):
        assert (tmp_path / "a" / suffix).read_bytes() == (tmp_path / "b" / suffix).read_bytes()


def test_main_happy_path(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    rc = main([
        "--metric", "wsr", "--policy", "serial_max", "--snr-db", "0:10:5",
        "--na", "2", "--nb", "2", "--eta", "0.05", "--trials", "100",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    assert "wrote 3 rows" in capsys.readouterr().out
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 4  # header + 3 snr points


@pytest.mark.parametrize("metric", ["cdf", "wsr", "wser"])
def test_main_sweep_past_the_closed_form_size_leaves_analytic_cells_empty(tmp_path, metric):
    # 13 x 12 = 156 > MAX_NN_CLOSED_FORM = 144: Monte Carlo rows without
    # closed forms
    out = tmp_path / "big.csv"
    rc = main(["--metric", metric, "--na", "13", "--nb", "12", "--trials", "100",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(r["analytic_value"] == "" and r["mc_value"] != "" for r in rows)


def test_main_cdf_sweep_writes_no_cell_outside_zero_one(tmp_path):
    # the 6 x 6 alternating sum cancels ~10 digits at eta = 0.05, which a
    # double sum wrote as negative cells near x = lambda_s / 10
    out = tmp_path / "cdf.csv"
    rc = main(["--metric", "cdf", "--na", "6", "--nb", "6", "--eta", "0.05",
               "--snr-db", "10", "--trials", "2000", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        values = [float(r["analytic_value"]) for r in csv.DictReader(fh)]
    assert len(values) == 98
    assert all(0.0 <= v <= 1.0 and math.copysign(1.0, v) == 1.0 for v in values)


@pytest.mark.parametrize("metric", ["wsr", "wser"])
@pytest.mark.parametrize("eta", ["0", "0.05"])
def test_main_sweep_at_8x8_writes_closed_forms(tmp_path, metric, eta):
    out = tmp_path / "eight.csv"
    rc = main(["--metric", metric, "--na", "8", "--nb", "8", "--eta", eta,
               "--snr-db", "20", "--trials", "100", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    cells = [row["analytic_value"]] + ([row["ceiling_or_floor"]] if (metric, eta) != ("wsr", "0")
                                       else [])
    assert all(math.isfinite(float(cell)) for cell in cells), row


def test_main_config_file_defaults(tmp_path):
    cfg_file = tmp_path / "sys.cfg"
    cfg_file.write_text("n_a = 2\nn_b = 3\nsnr_db = 10\neta = 0.1\nw = 0.6\n")
    out = tmp_path / "cfg.csv"
    rc = main([
        "--metric", "wsr", "--config", str(cfg_file), "--trials", "50",
        "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        row = next(reader)
    assert (row["n_a"], row["n_b"], row["w"]) == ("2", "3", "0.6")
    assert float(row["eta"]) == 0.1
    assert float(row["snr_db"]) == 10.0


@pytest.mark.parametrize("flags,size", [([], ("4", "4")), (["--na", "5"], ("5", "4"))])
def test_main_config_overrides_a_preset_and_flags_override_both(tmp_path, flags, size):
    # the preset's grid, then the --config point, then each flag given
    cfg_file = tmp_path / "sys.cfg"
    cfg_file.write_text("n_a = 4\nn_b = 4\nlambda_s = 3\neta = 0.05\nw = 0.6\n")
    out = tmp_path / "pnot.csv"
    rc = main(["--preset", "pnot", "--config", str(cfg_file), *flags, "--trials", "50",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["metric"], row["n_a"], row["n_b"], row["w"]) == ("p_not", *size, "0.6")
    assert float(row["eta"]) == 0.05
    assert float(row["snr_db"]) == linear_to_db(3.0)


def test_main_rejects_config_with_other_modulation(tmp_path, capsys):
    # rows and sidecar record no modulation, so a sweep cannot honour one
    cfg_file = tmp_path / "sys.cfg"
    cfg_file.write_text("n_a = 2\nn_b = 3\nsnr_db = 10\neta = 0.1\nw = 0.6\nbeta_mod = 1\n")
    out = tmp_path / "cfg.csv"
    rc = main(["--metric", "wser", "--config", str(cfg_file), "--trials", "50",
               "--out", str(out)])
    assert rc == 2
    assert "BPSK" in capsys.readouterr().err
    assert not out.exists()


def test_main_rejects_config_whose_snr_overflows(tmp_path, capsys):
    # 10**(4000/10) overflows a float before any range check sees it
    cfg_file = tmp_path / "sys.cfg"
    cfg_file.write_text("n_a = 2\nn_b = 3\nsnr_db = 4000\neta = 0.1\nw = 0.6\n")
    out = tmp_path / "cfg.csv"
    rc = main(["--metric", "wsr", "--config", str(cfg_file), "--trials", "50",
               "--out", str(out)])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("which", ["missing", "directory"])
def test_main_rejects_unreadable_config(tmp_path, capsys, which):
    path = tmp_path / "missing.cfg" if which == "missing" else tmp_path
    out = tmp_path / "cfg.csv"
    rc = main(["--metric", "wsr", "--config", str(path), "--trials", "50", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fdlink: I/O error: cannot read config" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_main_perfect_cancellation_asymptote_at_high_snr(tmp_path):
    # the row holds the weighted asymptote, but the call also forms the
    # first link's, which divides by lambda_s**36 = 1e360 at 100 dB
    out = tmp_path / "asym.csv"
    rc = main(["--metric", "wser", "--eta", "0", "--na", "6", "--nb", "6",
               "--snr-db", "100", "--trials", "10", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert "e-227" in row["ceiling_or_floor"]


def test_main_writes_a_flagged_closed_form_as_positive_zero(tmp_path):
    # the 10x10 eta = 0 SERs at 150 dB, whose alternating sums earlier
    # versions flagged, lie below the float range and underflow to +0.0
    out = tmp_path / "flagged.csv"
    rc = main(["--metric", "wser", "--eta", "0", "--na", "10", "--nb", "10",
               "--snr-db", "150", "--trials", "10", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["analytic_value"] == "0.0"


def test_main_reports_a_sweep_too_large_for_memory(tmp_path, capsys, monkeypatch):
    # a sweep whose allocation is refused exits 3 with one line
    def refuse(spec):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "run_sweep", refuse)
    out = tmp_path / "huge.csv"
    rc = main(["--metric", "wsr", "--na", "3", "--nb", "3", "--trials", "1", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("fdlink: out of memory: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


def test_main_runs_a_million_by_million_sweep(tmp_path):
    # the draws cost the same at every array size; past the closed forms'
    # sizes the analytic cells are left empty
    out = tmp_path / "huge.csv"
    rc = main(["--metric", "wsr", "--na", "1000000", "--nb", "1000000", "--trials", "1000",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert math.isfinite(float(row["mc_value"])) and float(row["mc_stderr"]) > 0.0
    assert row["analytic_value"] == ""


@pytest.mark.parametrize("w", [0.3, 0.7])
def test_cdf_sweep_pairs_each_link_with_its_closed_form(tmp_path, w):
    out = tmp_path / "cdf.csv"
    rc = main(["--metric", "cdf", "--na", "3", "--nb", "3", "--snr-db", "10",
               "--eta", "0.05", "--w", str(w), "--trials", "20000", "--out", str(out)])
    assert rc == 0
    gaps = {}
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            gap = abs(float(row["mc_value"]) - float(row["analytic_value"]))
            gaps[row["policy"]] = max(gaps.get(row["policy"], 0.0), gap)
    assert set(gaps) == {"gamma_ab", "gamma_ba"}
    assert max(gaps.values()) <= 0.02


def test_main_validation_exit_code(tmp_path, capsys):
    rc = main(["--metric", "wsr", "--trials", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err

    rc = main(["--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_main_rejects_unknown_policy(tmp_path, capsys):
    rc = main(["--metric", "wsr", "--policy", "foo", "--trials", "10",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "policy 'foo'" in capsys.readouterr().err


def test_main_rejects_policy_that_does_not_fit_the_metric(tmp_path, capsys):
    rc = main(["--metric", "complexity", "--policy", "max_wsr",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "policy 'max_wsr'" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**20])
def test_main_rejects_trials_past_the_cap(tmp_path, capsys, trials):
    out = tmp_path / "x.csv"
    assert main(["--metric", "wsr", "--trials", str(trials), "--out", str(out)]) == 2
    assert f"1 <= trials <= {MAX_TRIALS:,}" in capsys.readouterr().err
    assert not out.exists()


def test_main_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # an unwritable output path exits 3 as an I/O error, found before any
    # point of the sweep runs
    monkeypatch.setattr(cli, "_rows_for_size", lambda *args: pytest.fail("the sweep ran"))
    out = tmp_path / "no_such_dir" / "x.csv"
    rc = main(["--metric", "wsr", "--policy", "serial_max", "--trials", "10", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"fdlink: I/O error: cannot write {out}: not a file in a writable directory\n")
    assert main(["--metric", "wsr", "--trials", "10", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("args", [
    ["--metric", "wsr", "--eta", "1.5"],
    ["--metric", "wsr", "--w", "2"],
    ["--metric", "wsr", "--na", "1"],
    ["--metric", "wsr", "--snr-db", "nan"],
    ["--metric", "wsr", "--snr-db", "1e400"],
    ["--metric", "wsr", "--snr-db", "3075"],
    ["--metric", "wsr", "--snr-db", "4000"],
    ["--preset", "fig2", "--na", "0"],
    ["--metric", "wsr", "--snr-db", "0:1e300:1e-300"],
    ["--metric", "wsr", "--snr-db", "0:100:0.001"],
    ["--metric", "wsr", "--seed", "-1"],
    ["--metric", "wsr", "--seed", str(2**128)],
    ["--metric", "wsr", "--policy="],
    ["--metric", "wsr", "--snr-db="],
    ["--metric", "wsr", "--eta="],
], ids=["eta", "w", "na", "snr-nan", "snr-inf", "snr-overflow", "snr-db-overflow", "preset-na-0",
        "range-inf", "range-long", "seed-neg", "seed-2**128", "policy-empty", "snr-empty",
        "eta-empty"])
def test_main_rejects_bad_grid_input(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    rc = main(args + ["--trials", "10", "--out", str(out)])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr_db", ["1:2", "1:2:3:4"])
def test_main_rejects_a_range_without_three_fields(tmp_path, capsys, snr_db):
    out = tmp_path / "x.csv"
    assert main(["--metric", "wsr", "--snr-db", snr_db, "--out", str(out)]) == 2
    assert "of the form 'a:b:step'" in capsys.readouterr().err
    assert not out.exists()
