import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from fdlink import (
    BPSK,
    ModulationParams,
    SystemConfig,
    avg_weighted_sum_rate,
    cdf_gammas,
    db_to_linear,
    exhaustive_min_wser,
    linear_to_db,
    load_config,
    validate_config,
)
from fdlink.channel import largest_unit_draw
from fdlink.cli import main
from fdlink.errors import InvalidAntennaCount, InvalidRange, IoError


def cfg(**kw):
    base = dict(n_a=3, n_b=3, lambda_s=100.0, eta=0.05, w=0.7, modulation=BPSK)
    base.update(kw)
    return SystemConfig(**base)


def test_valid_reference_setup():
    c = validate_config(cfg())
    assert c.nn == 9


def test_single_antenna_rejected():
    with pytest.raises(InvalidAntennaCount):
        validate_config(cfg(n_a=1))
    with pytest.raises(InvalidAntennaCount):
        validate_config(cfg(n_b=0))


def test_perfect_cancellation_boundary():
    c = validate_config(cfg(n_a=2, n_b=2, lambda_s=10.0, eta=0.0, w=0.5))
    assert c.lambda_i == 0.0
    assert c.scale == 1.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("lambda_s", 0.0),
        ("lambda_s", -1.0),
        ("eta", 1.0),
        ("eta", -0.01),
        ("w", 0.0),
        ("w", 1.0),
    ],
)
def test_out_of_range_rejected(field, value):
    with pytest.raises(InvalidRange):
        validate_config(cfg(**{field: value}))


def test_lambda_s_whose_draws_overflow_rejected():
    # the largest unit draw is M's at the largest uniform 1 - 2**-53,
    # -log(-expm1(log1p(-2**-53) / nn)), about 53 ln 2 + ln(nn); the cap
    # is the largest lambda_s that keeps lambda_s times it finite
    for n in (2, 12, 10**6):
        top = largest_unit_draw(n, n)
        assert top == pytest.approx(-math.log(-math.expm1(math.log1p(-(2.0**-53)) / n**2)),
                                    rel=1e-15)
        bound = sys.float_info.max / top
        while bound * top == math.inf:
            bound = math.nextafter(bound, 0.0)
        while math.nextafter(bound, math.inf) * top < math.inf:
            bound = math.nextafter(bound, math.inf)
        assert validate_config(cfg(n_a=n, n_b=n, lambda_s=bound)).lambda_s * top < math.inf
        for lam in (math.nextafter(bound, math.inf), db_to_linear(3075.0), math.inf, math.nan):
            with pytest.raises(InvalidRange):
                validate_config(cfg(n_a=n, n_b=n, lambda_s=lam))


@pytest.mark.parametrize("kw,error", [
    (dict(n_a=1, n_b=3), InvalidAntennaCount),
    (dict(n_a=2.5, n_b=3), InvalidAntennaCount),
    (dict(n_a=3.0, n_b=3), InvalidAntennaCount),
    (dict(eta=1.5), InvalidRange),
    (dict(w=1.5), InvalidRange),
    (dict(lambda_s=-100.0), InvalidRange),
], ids=["1x3", "2.5x3", "3.0x3", "eta", "w", "lambda_s"])
def test_invalid_config_raises_when_built(kw, error):
    # no estimator or closed form ever sees, and computes on, such a config
    with pytest.raises(error):
        cfg(**kw)
    with pytest.raises(error):
        replace(cfg(), **kw)


def test_numpy_integer_antenna_counts_accepted():
    c = cfg(n_a=np.int64(3), n_b=np.int32(4))
    assert c.nn == 12 and c == replace(cfg(n_b=4), n_a=3)
    assert type(c.n_a) is type(c.n_b) is int


def test_numpy_integer_counts_give_the_plain_int_closed_forms():
    # the antenna counts enter the kernels' sizes nn and k and their
    # binomial weights; numpy integers give the same bits as ints
    def closed_forms(n):
        c = cfg(n_a=n, n_b=n)
        return cdf_gammas(100.0, c), avg_weighted_sum_rate(c)

    assert closed_forms(np.int64(6)) == closed_forms(6)


def test_bad_modulation_rejected(tmp_path, capsys):
    # each constant must lie in (0, inf): a NaN or an infinity fails the
    # range, where a test of v <= 0 alone let it through to NaN SERs.  The
    # modulation checks itself when built, so the scalar selection, which
    # builds no SystemConfig, never sees a bad one, and a --config file
    # holding one exits 2
    for alpha, beta in ((0.0, 2.0), (1.0, -2.0), (math.nan, 2.0), (1.0, math.nan),
                        (math.inf, 2.0), (1.0, math.inf), (-1.0, 2.0)):
        with pytest.raises(InvalidRange):
            cfg(modulation=ModulationParams(alpha_mod=alpha, beta_mod=beta))
        with pytest.raises(InvalidRange):
            exhaustive_min_wser([[5, 4, 0.1], [3, 0.2, 0.3], [0.4, 0.5, 0.6]], 0.7,
                                ModulationParams(alpha_mod=alpha, beta_mod=beta))
    path = tmp_path / "sys.cfg"
    path.write_text("n_a = 3\nn_b = 3\nlambda_s = 10\neta = 0.1\nw = 0.7\nalpha_mod = -1\n")
    out = tmp_path / "cfg.csv"
    assert main(["--metric", "wsr", "--config", str(path), "--trials", "50",
                 "--out", str(out)]) == 2
    assert "modulation constants must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "lambda_s,eta,lambda_i,scale",
    [
        (100.0, 0.05, 5.0, 1.0 / 6.0),
        (10.0, 0.0, 0.0, 1.0),
        (10.0, 0.1, 1.0, 0.5),
    ],
)
def test_derived_params(lambda_s, eta, lambda_i, scale):
    c = validate_config(cfg(lambda_s=lambda_s, eta=eta))
    assert c.lambda_i == lambda_i
    assert c.scale == scale


def test_scale_is_one_iff_eta_zero():
    for eta in (0.0, 1e-6, 0.1, 0.9):
        scale = validate_config(cfg(eta=eta)).scale
        assert 0.0 < scale <= 1.0
        assert (scale == 1.0) == (eta == 0.0)


def test_db_round_trip():
    for x_db in (-30.0, 0.0, 7.5, 20.0, 40.0):
        assert math.isclose(linear_to_db(db_to_linear(x_db)), x_db, rel_tol=1e-12, abs_tol=1e-12)
    with pytest.raises(InvalidRange):
        linear_to_db(0.0)
    with pytest.raises(InvalidRange):
        db_to_linear(4000.0)  # 1e400 overflows


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text(
        "# reference setup\n"
        "n_a = 3\n"
        "n_b = 3\n"
        "snr_db = 20\n"
        "eta = 0.05\n"
        "w = 0.7\n"
    )
    c = load_config(str(path))
    assert (c.n_a, c.n_b, c.eta, c.w) == (3, 3, 0.05, 0.7)
    assert math.isclose(c.lambda_s, 100.0, rel_tol=1e-12)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text("n_a = 3\nn_b = 3\nlambda_s = 10\neta = 0.1\nw = 0.7\nbogus = 1\n")
    with pytest.raises(InvalidRange):
        load_config(str(path))


def test_load_config_requires_single_snr_spec(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text("n_a = 3\nn_b = 3\nlambda_s = 10\nsnr_db = 10\neta = 0.1\nw = 0.7\n")
    with pytest.raises(InvalidRange):
        load_config(str(path))


def test_load_config_rejects_fractional_antenna_count(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text("n_a = 2.7\nn_b = 3\nlambda_s = 10\neta = 0.1\nw = 0.7\n")
    with pytest.raises(InvalidRange):
        load_config(str(path))


@pytest.mark.parametrize("line, message", [
    ("w = 0.2", "repeated key 'w'"),  # the second w would silently win
    ("alpha_mod = three", "alpha_mod must be a number, got 'three'"),
])
def test_load_config_rejects_bad_line(tmp_path, line, message):
    path = tmp_path / "sys.cfg"
    path.write_text(f"n_a = 3\nn_b = 3\nlambda_s = 10\neta = 0.1\nw = 0.7\n{line}\n")
    with pytest.raises(InvalidRange, match=re.escape(f"{path}:6: {message}")):
        load_config(str(path))


def test_load_config_unreadable_path_is_an_io_error(tmp_path):
    with pytest.raises(IoError, match="cannot read config"):
        load_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(IoError, match="cannot read config"):
        load_config(str(tmp_path))
