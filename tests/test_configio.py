import math
import os
import types
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nhlattice import (
    EXPERIMENTS,
    PRESETS,
    ChainSpec,
    ConfigError,
    ExperimentConfig,
    ExcitationSpec,
    GainRunawayError,
    StateVector,
    Trajectory,
    build_chain_hamiltonian,
    evolve_exact,
    make_excitation,
    preset_config,
    resolve_config,
)
from nhlattice import configio
from nhlattice.configio import (
    config_hash,
    parse_config_text,
    parse_phase,
    read_config,
    read_metrics,
    read_trajectory_csv,
    render_config,
    render_manifest,
    write_metrics,
    write_table_csv,
    write_text_atomic,
    write_trajectory_csv,
)

import reference


# ---------------------------------------------------------------- phases


@pytest.mark.parametrize("token,value", [
    ("pi", math.pi),
    ("-pi", -math.pi),
    ("pi/2", math.pi / 2),
    ("-pi/4", -math.pi / 4),
    ("3*pi/4", 3 * math.pi / 4),
    ("2pi/3", 2 * math.pi / 3),
    ("0.5", 0.5),
    ("-1.25e-1", -0.125),
])
def test_parse_phase_tokens(token, value):
    assert parse_phase(token) == pytest.approx(value, abs=0)


def test_parse_phase_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_phase("two pies")
    with pytest.raises(ConfigError):
        parse_phase("pi/0")


# ---------------------------------------------------------------- config docs


def test_config_roundtrip_for_all_presets():
    from nhlattice import PRESETS

    for name in PRESETS:
        config = resolve_config(preset_config(name))
        text = render_config(config)
        assert parse_config_text(text) == config


def test_minimal_config_uses_defaults():
    for experiment in EXPERIMENTS:  # an omitted key reads as its field's default
        config = parse_config_text(f"experiment = {experiment}\n")
        assert config == ExperimentConfig(experiment=experiment), experiment
        assert parse_config_text(render_config(config)) == config, experiment
    assert config.kappa == 1.0
    assert config.dispersion.q_points == 257
    assert config.excitation is None
    # an omitted key whose None has an unset tag reads as that value
    excitation = parse_config_text("experiment = storage\nexcitation.kind = gaussian\n").excitation
    assert (excitation.w0, excitation.q0) == (5.0, 0.0)


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="wibble"):
        parse_config_text("experiment = storage\nwibble = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("experiment = storage\nkappa = 1\nkappa = 2\n")


def test_missing_experiment_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config_text("kappa = 1\n")


def test_bad_enum_value_names_key():
    with pytest.raises(ConfigError, match="boundary"):
        parse_config_text("experiment = storage\nboundary = moebius\n")


def test_defect_parsing():
    config = parse_config_text(
        "experiment = transport_gaussian\ndefects = 10:2:0, -5:1.5:0.25\n")
    sites = [(d.site, d.v_real, d.xi_imag) for d in config.defects]
    assert sites == [(10, 2.0, 0.0), (-5, 1.5, 0.25)]
    with pytest.raises(ConfigError, match="defect"):
        parse_config_text("experiment = storage\ndefects = 10:2\n")


_FLOAT_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300, 1 / 3]),
).map(repr)
_PI_TOKENS = st.builds("{}{}pi{}".format, st.sampled_from(["", "-", "+"]),
                       st.sampled_from(["", "3*", "2", "0.5*"]),
                       st.sampled_from(["", "/2", "/4", "/3"]))
_PHASE_TOKENS = st.one_of(_FLOAT_TOKENS, _PI_TOKENS)
_INT_TOKENS = st.integers(-10**6, 10**6).map(str)
_DEFECT_TOKENS = st.builds("{}:{}:{}".format, _INT_TOKENS, _FLOAT_TOKENS, _FLOAT_TOKENS)


def _lists(tokens, min_size=0):
    return st.lists(tokens, min_size=min_size, max_size=4).map(", ".join)


def _token_or(token, tokens):
    return st.one_of(st.just(token), tokens)


#: every config key in canonical order, with tokens drawn from its kind
_KEY_TOKENS = {
    "experiment": st.sampled_from(["dispersion_scan", "transport_single_site",
                                   "transport_gaussian", "storage", "reduction_check"]),
    "preset": st.from_regex(r"[A-Za-z0-9_.-]*", fullmatch=True),
    "kappa": _FLOAT_TOKENS,
    "beta": _FLOAT_TOKENS,
    "gamma": _FLOAT_TOKENS,
    "phi": _PHASE_TOKENS,
    "boundary": st.sampled_from(["open", "periodic"]),
    "chain_length": _token_or("auto", _INT_TOKENS),
    "index_origin": _token_or("auto", _INT_TOKENS),
    "defects": _token_or("none", _lists(_DEFECT_TOKENS)),
    "excitation.kind": st.sampled_from(["none", "single_site", "gaussian"]),
    "excitation.n0": _INT_TOKENS,
    "excitation.w0": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
    "excitation.q0": _PHASE_TOKENS,
    "excitation.normalize": st.sampled_from(["true", "false"]),
    "timing.t_final": _FLOAT_TOKENS,
    "timing.sample_dt": _FLOAT_TOKENS,
    "timing.t_prime": _token_or("none", _FLOAT_TOKENS),
    "storage.n_half": _INT_TOKENS,
    "storage.v_c": _FLOAT_TOKENS,
    "storage.xi": _FLOAT_TOKENS,
    "storage.retrieval_phase_sign": st.sampled_from(["forward", "reversed"]),
    "storage.xi_sweep": _token_or("none", _lists(_FLOAT_TOKENS)),
    "reduction.j_values": _lists(_FLOAT_TOKENS, min_size=1),  # an empty list is an error
    "reduction.theta": _token_or("none", _PHASE_TOKENS),
    "reduction.b_init": st.sampled_from(["slaved", "zero"]),
    "reduction.aux_sign": st.sampled_from(["gain", "loss"]),
    "dispersion.phi_values": _lists(_PHASE_TOKENS),
    "dispersion.q_points": st.integers(3, 10**6).map(str),
}


@st.composite
def _config_documents(draw):
    optional = {key: tokens for key, tokens in _KEY_TOKENS.items() if key != "experiment"}
    tokens = draw(st.fixed_dictionaries({"experiment": _KEY_TOKENS["experiment"]},
                                        optional=optional))
    lines = draw(st.permutations([f"{key} = {token}" for key, token in tokens.items()]))
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=100)
@given(document=_config_documents())
def test_render_parse_round_trip_over_generated_configs(document):
    config = parse_config_text(document)
    text = render_config(config)
    assert [line.split(" = ")[0] for line in text.splitlines()[1:]] == list(_KEY_TOKENS)
    back = parse_config_text(text)
    assert back == config
    assert render_config(back) == text


def test_read_config_missing_file_names_it(tmp_path):
    with pytest.raises(ConfigError, match="nowhere.cfg"):
        read_config(tmp_path / "nowhere.cfg")


def test_manifest_hash_ignores_comments():
    config = resolve_config(preset_config("fig2"))
    a = render_manifest(config, method_tag="closed_form")
    b = render_manifest(config, method_tag="something_else")
    assert a != b
    assert config_hash(a) == config_hash(b)


# ---------------------------------------------------------------- trajectory csv


def _small_trajectory():
    spec = ChainSpec(kappa=1.0, beta=0.4, gamma=0.8, phi=math.pi / 2,
                     n_sites=21, index_origin=-10)
    h = build_chain_hamiltonian(spec)
    c0 = make_excitation(ExcitationSpec(kind="single_site", n0=0), spec.site_labels)
    return evolve_exact(h, c0, 2.0, 0.5)


def test_trajectory_csv_roundtrip_bit_exact(tmp_path):
    traj = _small_trajectory()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,site,re,im"
    assert len(lines) - 1 == traj.n_samples * len(traj.site_labels)
    back = read_trajectory_csv(path, method_tag=traj.method_tag)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.site_labels, traj.site_labels)
    assert np.array_equal(back.amplitudes, traj.amplitudes)
    assert np.array_equal(back.norm_series, traj.norm_series)


def test_trajectory_csv_row_order_time_major(tmp_path):
    traj = _small_trajectory()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    times = [float(r[0]) for r in rows]
    assert times == sorted(times)
    first_block = [int(r[1]) for r in rows[: len(traj.site_labels)]]
    assert first_block == sorted(first_block)


def test_trajectory_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="header"):
        read_trajectory_csv(path)


def test_trajectory_csv_bytes_match_per_element_writer_and_read_back_bitwise(tmp_path):
    specials = np.array([-0.0, 0.0, 5e-324, 1e-300, 1e300, -1e300, -5e-324, 1 / 3])
    amps = np.array([specials[:4] + 1j * specials[4:], specials[::-1][:4] + 1j * specials[:4],
                     specials[2:6] - 1j * specials[1:5]])
    amps[0, 1] = complex(-0.0, -0.0)
    labels = np.array([-3, -2, 0, 7])
    times = np.array([0.0, 0.1, 0.30000000000000004])
    traj = Trajectory(times=times, amplitudes=amps, site_labels=labels,
                      norm_series=np.zeros(3), method_tag="expm_multiply")
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == reference.trajectory_csv_text(times, amps, labels).encode()
    with np.errstate(over="ignore"):  # the 1e300 entries overflow the norm series
        back = read_trajectory_csv(path)
    assert back.amplitudes.tobytes() == amps.tobytes()
    assert back.times.tobytes() == times.tobytes()
    assert np.array_equal(back.site_labels, labels)


_SPECIALS = np.array([-0.0, 0.0, 5e-324, 1e-300, 1e300, -1e300, -5e-324, 1 / 3])


def _special_trajectory(n_samples):
    labels = np.array([-3, -2, 0, 7])
    cells = np.resize(_SPECIALS, 2 * n_samples * len(labels)).reshape(n_samples, len(labels), 2)
    amps = cells[:, :, 0] + 1j * cells[:, :, 1]
    amps[0, 1] = complex(-0.0, -0.0)
    times = np.arange(n_samples) * 0.1
    return Trajectory(times=times, amplitudes=amps, site_labels=labels,
                      norm_series=np.zeros(n_samples), method_tag="expm_multiply")


def _reference_bytes(traj):
    return reference.trajectory_csv_text(traj.times, traj.amplitudes, traj.site_labels).encode()


# The "two_process" and "streamed" names date from a forked helper that once wrote the CSV
# during propagation; the writer now runs in the calling process, after propagation.
@pytest.mark.parametrize("n_samples", [1, 2, 3, 241])
def test_two_process_csv_bytes_match_reference(tmp_path, n_samples):
    traj = _special_trajectory(n_samples)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == _reference_bytes(traj)
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]
    with pytest.raises(ChildProcessError):  # the writer starts no process
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
def test_streamed_csv_bytes_match_reference(tmp_path, monkeypatch, cpus):
    # the bytes of an evolved chain's CSV do not depend on the CPUs the process may use
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    spec = ChainSpec(kappa=1.0, beta=0.4, gamma=0.8, phi=math.pi / 2,
                     n_sites=21, index_origin=-10)
    c0 = make_excitation(ExcitationSpec(kind="single_site", n0=0), spec.site_labels)
    traj = evolve_exact(build_chain_hamiltonian(spec), c0, 12.0, 0.25)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == _reference_bytes(traj)
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]


def test_streamed_csv_abort_when_the_run_raises_mid_propagation(tmp_path):
    # the CSV is written only after propagation, so a run that raises leaves no file at all
    h = reference.operator(40j * np.eye(3), np.arange(3))
    c0 = StateVector(np.ones(3, dtype=complex), np.arange(3))
    with pytest.raises(GainRunawayError):
        write_trajectory_csv(evolve_exact(h, c0, 10.0, 0.25), tmp_path / "trajectory.csv")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_csv_write_that_raises_leaves_no_temp_file(tmp_path, monkeypatch):
    real_format = configio._format_values
    chunks = []

    def failing_second_chunk(values):
        chunks.append(len(values))
        if len(chunks) == 2:
            raise RuntimeError("formatting failed")
        return real_format(values)

    monkeypatch.setattr(configio, "_format_values", failing_second_chunk)
    path = tmp_path / "trajectory.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_trajectory_csv(_special_trajectory(2000), path)  # several chunks of values
    assert len(chunks) == 2
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]


def _csv_of_numbers(tmp_path, values, sites=7):
    """Write ``values`` as the parts of a trajectory's amplitudes: (the trajectory, its CSV).

    The writer reads only times, amplitudes and site labels; they are passed in a plain
    namespace, as a Trajectory holds no inf or nan amplitude and the values may."""
    values = np.concatenate([values, np.zeros(-len(values) % (2 * sites))])
    amps = values.view(complex).reshape(-1, sites)
    traj = types.SimpleNamespace(times=np.arange(len(amps)) * 0.25, amplitudes=amps,
                                 site_labels=np.arange(sites) - 3)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    text = path.read_text()
    fields = text.replace("\n", ",").split(",")[4:-1]  # header and the last empty field off
    numbers = [f for pair in zip(fields[2::4], fields[3::4]) for f in pair]
    expected = ["%.17g" % x for x in values.tolist()]
    if numbers != expected:
        wrong = [(x, f, e) for x, f, e in zip(values.tolist(), numbers, expected) if f != e]
        pytest.fail(f"{len(numbers)} fields for {len(expected)} values; (x, CSV, %.17g): "
                    f"{wrong[:5]}")
    return traj, text


def test_csv_prints_random_doubles_like_percent_g(tmp_path):
    rng = np.random.default_rng(150_001)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(float)
    magnitudes = 10.0 ** rng.uniform(-12.0, 3.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                         2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                         0.5, 0.25, 1 - 2 ** -53, 1.0, -1.0, 0.1, 1e-300, 123456789.0])
    values = np.concatenate([bits, magnitudes, specials])
    subnormal = (np.abs(values) < 2.2250738585072014e-308) & (values != 0.0)
    assert subnormal.sum() > 50 and np.isnan(values).sum() > 50 and (np.abs(values) >= 1).any()
    _csv_of_numbers(tmp_path, values)


def _powers_of_ten_and_neighbours() -> np.ndarray:
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)]
                      + [1e-5, 1e-4, 1e16, 1e17])  # where %g switches to and from exponents
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)])
    return np.concatenate([values, -values])


def test_csv_prints_powers_of_ten_and_their_neighbours_like_percent_g(tmp_path):
    values = _powers_of_ten_and_neighbours()
    # among them, doubles below 10^k whose 17 digits round up to 10^17: 1e-14, 1e-305, ...
    rounded_up = [x for x in values.tolist() if 0.0 < x < 1.0
                  and ("%.17g" % x).startswith("1e") and Fraction(x) < Fraction("%.17g" % x)]
    assert len(rounded_up) >= 5
    traj, text = _csv_of_numbers(tmp_path, values)
    assert text.encode() == _reference_bytes(traj)


@pytest.mark.parametrize("toward", [-math.inf, math.inf], ids=["low", "high"])
def test_csv_stays_exact_when_log10_is_a_few_ulps_off(tmp_path, monkeypatch, toward):
    # a low log10 gives 17 digits that round up to 10^17 on the doubles just below 10^k
    exact_log10 = np.log10

    def off_log10(x):
        y = exact_log10(x)
        for _ in range(4):
            y = np.nextafter(y, toward)
        return y

    monkeypatch.setattr(np, "log10", off_log10)
    _csv_of_numbers(tmp_path, _powers_of_ten_and_neighbours())


def test_csv_prints_decimal_ties_half_to_even_like_percent_g(tmp_path):
    # q * 2^(k-17) for odd q, in [10^k, 10^(k+1)): 18 significant digits, the last a 5
    ties = [math.ldexp(q, k - 17) for k in range(-8, 0)
            for q in range(math.ceil(math.ldexp(10.0 ** k, 17 - k)) | 1,
                           math.ceil(math.ldexp(10.0 ** (k + 1), 17 - k)), 2)][::97]
    digits = [Decimal(x).as_tuple().digits for x in ties]
    assert len(ties) > 1000 and all(len(d) == 18 and d[-1] == 5 for d in digits)
    _csv_of_numbers(tmp_path, np.array(ties + [-x for x in ties]))


@pytest.mark.parametrize("body,match", [
    ("", "no data rows"),
    ("0,0,1,0\n0,1,oops,0\n", "malformed row"),
    ("0,0,1,0\n0,1,1\n", "malformed row"),
    ("0,0,1,0\n0,1,1,0\n0.5,0,1,0\n", "row count 3 is not a multiple"),
    ("0,1,1,0\n0,2,1,0\n0.25,3,1,0\n0.25,4,1,0\n", "other sites than the first"),
    ("0,1,1,0\n0,2,1,0\n0.25,1,1,0\n0.5,2,1,0\n", "time changes within"),
    ("0,1.5,1,0\n0,1.5,1,0\n0.25,1.5,1,0\n0.25,1.5,1,0\n", "not increasing integers"),
    ("0,2,1,0\n0,1,1,0\n0.25,2,1,0\n0.25,1,1,0\n", "not increasing integers"),
    ("0,1e300,1,0\n0.25,1e300,1,0\n", "not increasing integers"),
    ("0,0,1,0\n0,1,inf,0\n", "not finite"),
    ("0,0,1,0\n0,1,1,-inf\n", "not finite"),
    ("nan,0,1,0\nnan,1,1,0\n", "not finite"),
], ids=["no_rows", "bad_number", "short_row", "bad_row_count", "sites_differ",
        "time_changes_in_a_sample", "fractional_repeated_sites", "decreasing_sites", "huge_site",
        "inf_real_part", "inf_imaginary_part", "nan_time"])
def test_trajectory_csv_reader_errors_name_the_path(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text("t,site,re,im\n" + body)
    with pytest.raises(ConfigError, match=match) as err:
        read_trajectory_csv(path)
    assert str(path) in str(err.value)


# ---------------------------------------------------------------- tables, metrics


def test_header_only_table_reads_back_zero_rows_of_its_width(tmp_path):
    path = tmp_path / "scan.csv"
    write_table_csv((("phi", "q", "reE"), np.empty((0, 3))), path)
    assert path.read_text() == "phi,q,reE\n"
    header, rows = reference.read_table_csv(path)
    assert header == ("phi", "q", "reE")
    assert rows.shape == (0, 3) and rows.dtype == float


@pytest.mark.parametrize("body,lineno", [
    ("0,1,2\n0,1\n", 3),
    ("0,1,2\n0,1,2,3\n", 3),
    ("0,x,2\n", 2),
    ("0,1,2\n\n", 3),
], ids=["short_row", "long_row", "not_a_number", "blank_line"])
def test_table_reader_errors_name_the_path_and_line(tmp_path, body, lineno):
    path = tmp_path / "scan.csv"
    path.write_text("phi,q,reE\n" + body)
    with pytest.raises(ValueError, match=f"line {lineno}: expected 3 numbers") as err:
        reference.read_table_csv(path)
    assert str(path) in str(err.value)


def test_table_roundtrip(tmp_path):
    header = ("phi", "q", "reE")
    rows = np.array([[0.0, -math.pi, -2.0], [0.5, 0.125, 1.75]])
    path = tmp_path / "scan.csv"
    write_table_csv((header, rows), path)
    back_header, back_rows = reference.read_table_csv(path)
    assert back_header == header
    assert np.array_equal(back_rows, rows)


def test_metrics_roundtrip(tmp_path):
    metrics = {
        "preset": "fig6a",
        "config_hash": "sha256:00ff",
        "efficiency": 0.03188,
        "release_direction": "forward",
        "monotone": True,
        "warned": False,
        "barrier_lo": -5,
        "centroid_series": (0.0, 0.5, 1.0000000000000002),
    }
    path = tmp_path / "metrics.txt"
    write_metrics(metrics, path)
    assert read_metrics(path) == metrics


def _reads_back_as(back, value) -> bool:
    """Whether a metric read back equals the value written, nan equal to nan.  A float
    of integral value is written like an int and reads back as one, so types are not
    compared, but for a bool: one reads back as a bool, and nothing else does."""
    if isinstance(value, tuple):
        return (isinstance(back, tuple) and len(back) == len(value)
                and all(map(_reads_back_as, back, value)))
    if isinstance(value, (bool, np.bool_)) or isinstance(back, bool):
        return isinstance(value, (bool, np.bool_)) and isinstance(back, bool) and back == value
    if isinstance(value, float) and math.isnan(value):
        return isinstance(back, float) and math.isnan(back)
    return back == value


def _assert_metrics_read_back(metrics, path):
    write_metrics(metrics, path)
    back = read_metrics(path)
    assert list(back) == list(metrics)
    for key, value in metrics.items():
        assert _reads_back_as(back[key], value), (key, value, back[key])
    # read_metrics would read a string holding ',' as a float list: write_metrics refuses it
    with pytest.raises(ValueError, match="cannot be serialized"):
        write_metrics({**metrics, "preset": "my,run"}, path)


@pytest.mark.parametrize("name", PRESETS)
def test_every_preset_metric_reads_back(tmp_path, preset_results, name):
    _assert_metrics_read_back(preset_results(name)[0].metrics, tmp_path / "metrics.txt")


def _reads_as_a_string(s: str) -> bool:
    """Whether a stripped token reads back as a string: one that spells a bool or a
    number reads back as that value."""
    try:
        float(s)
    except ValueError:
        return s not in ("true", "false")
    return False


#: characters that end a line for str.splitlines, which read_metrics splits on
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
#: strings that read back as themselves: no line break, '=' or ','; no surrogate, which
#: UTF-8 cannot encode
_METRIC_STRINGS = st.text(st.characters(blacklist_categories=("Cs",),
                                        blacklist_characters=_LINE_BREAKS + "=,"))
_METRIC_VALUES = st.one_of(
    st.booleans(), st.integers(), st.floats(),
    st.lists(st.floats(), min_size=2).map(tuple),
    _METRIC_STRINGS.map(str.strip).filter(_reads_as_a_string))


@settings(derandomize=True, max_examples=100)
@given(values=st.lists(_METRIC_VALUES, max_size=8))
@example(values=[math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.2250738585072014e-308, 2.0,
                 (math.nan, -0.0, 5e-324), True, 10 ** 30, "", "fig6a"])
def test_drawn_metrics_read_back(tmp_path_factory, values):
    # a tuple of fewer than two floats is not a list token, so the draws hold two or more
    path = tmp_path_factory.mktemp("metrics") / "metrics.txt"
    _assert_metrics_read_back({f"m{i}": v for i, v in enumerate(values)}, path)


def test_metrics_line_without_equals_rejected_naming_the_line(tmp_path):
    path = tmp_path / "metrics.txt"
    path.write_text("preset = fig6a\n# a comment\n\nefficiency 0.5\n")
    with pytest.raises(ConfigError, match="line 4: expected 'key = value', got 'efficiency 0.5'"):
        read_metrics(path)


def test_metrics_keys_for_transport_and_storage(preset_results):
    transport, _ = preset_results("fig4d")
    assert "reflection_fraction" in transport.metrics
    assert "velocity_estimate" in transport.metrics
    storage, _ = preset_results("fig6a")
    for key in ("efficiency", "shape_fidelity", "release_direction"):
        assert key in storage.metrics


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(target, "hello\n")
    assert target.read_text() == "hello\n"
    leftovers = [p for p in tmp_path.iterdir() if p != target]
    assert leftovers == []
