import math
import tracemalloc

import numpy as np
import pytest

from qcalab import cli, gformat
from qcalab.cli import main
from qcalab.dirac import WalkField, gaussian_field, walk_step
from qcalab.pqca import ScatteringUnitary, composed_step_operator, regroup_pairs, save_unitary
from qcalab.state import RingSpace
from qcalab.structure import causality_check
from reference import dense_signalling_demo


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWalkCommand:
    def test_massless_delta_advances_one_site_per_step(self, capsys):
        code, out, _ = run_cli(
            ["walk", "--mass", "0", "--epsilon", "0.1", "--steps", "10",
             "--grid", "64", "--init", "delta:32"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x,re_plus,im_plus,re_minus,im_minus,prob"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 11 * 64
        for step in range(11):
            occupied = [
                int(round(float(r[1]) / 0.1))
                for r in rows[step * 64 : (step + 1) * 64]
                if float(r[6]) > 0.5
            ]
            assert occupied == [32 + step]

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(["walk", "--grid", "63"], capsys)
        assert code == 2
        assert "--grid" in err

    @pytest.mark.parametrize("command", ["walk", "converge"])
    def test_oversized_grid_refused_before_allocating(self, capsys, command):
        code, out, err = run_cli([command, "--grid", "100000000000"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: --grid: 100000000000 sites exceed the limit")
        assert "9600000000000 bytes" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["walk", "converge"])
    def test_first_grid_over_the_limit_refused(self, capsys, command):
        code, _, err = run_cli([command, "--grid", str(cli.MAX_GRID + 2)], capsys)
        assert code == 2
        assert f"--grid: {cli.MAX_GRID + 2} sites exceed the limit of {cli.MAX_GRID}" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("gauss:x:3", "--init: gauss CENTER must be a finite number, got 'x'"),
            ("gauss:4:inf", "--init: gauss SIGMA must be a finite number, got 'inf'"),
            ("gauss:4:3:1.5", "--init: gauss MODE must be an integer, got '1.5'"),
            ("delta:nan", "--init: delta SITE must be an integer, got 'nan'"),
        ],
    )
    def test_bad_init_field_is_named(self, capsys, spec, message):
        code, out, err = run_cli(["walk", "--grid", "16", "--init", spec], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    # a packet narrower than a site: its exponent overflows off the centre
    # site (4 sigma^2 may even underflow to 0, making the centre site 0/0),
    # or every amplitude underflows; refused before numpy can warn
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "spec,reason",
        [
            ("gauss:4:1e-300", "at 4.0 with sigma 1e-300 cannot be sampled on the grid: "
             "(x - center)^2 / (4 sigma^2) overflows"),
            ("gauss:4:1e-160", "at 4.0 with sigma 1e-160 cannot be sampled on the grid: "
             "(x - center)^2 / (4 sigma^2) overflows"),
            ("gauss:4.5:1e-10", "at 4.5 with sigma 1e-10 cannot be sampled on the grid: "
             "its largest site amplitude, 0.0, squares below the normal float range"),
            ("gauss:1e300:3", "at 1e+300 with sigma 3.0 cannot be sampled on the grid: "
             "(x - center)^2 / (4 sigma^2) overflows"),
            ("gauss:200:1", "at 200.0 with sigma 1.0 cannot be sampled on the grid: "
             "its largest site amplitude, 0.0, squares below the normal float range"),
        ],
    )
    def test_underflowing_gauss_refused_before_any_row(self, capsys, tmp_path, spec, reason):
        csv = tmp_path / "w.csv"
        code, out, err = run_cli(
            ["walk", "--grid", "8", "--steps", "1", "--init", spec, "--out", str(csv)], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"usage error: --init: gauss packet {reason}\n"
        assert not csv.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_narrowest_sampled_gauss_runs(self, capsys):
        # centred on a site: the others get exactly 0 and the walk runs
        code, out, err = run_cli(
            ["walk", "--grid", "8", "--steps", "0", "--init", "gauss:4:0.01"], capsys
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[5] == "0,0.40000000000000002,1,0,0,0,1"

    def test_bad_init_is_usage_error(self, capsys):
        code, _, err = run_cli(["walk", "--init", "delta:99", "--grid", "32"], capsys)
        assert code == 2
        assert "--init" in err

    def test_dump_state_format(self, capsys, tmp_path):
        dump = tmp_path / "state.txt"
        code, _, _ = run_cli(
            ["walk", "--mass", "0", "--steps", "2", "--grid", "8",
             "--init", "delta:2", "--out", str(tmp_path / "w.csv"),
             "--dump-state", str(dump)],
            capsys,
        )
        assert code == 0
        # final right-mover at site 4 lives on wire cell 8
        assert dump.read_text() == "(8):1\t1\t0\n"


def reference_walk_csv(mass, eps, steps, field, digits):
    """The walk CSV formatted one numpy element at a time."""

    def fmt(value):
        return "nan" if math.isnan(value) else f"{value:.{digits}g}"

    lines = ["t,x,re_plus,im_plus,re_minus,im_minus,prob"]
    for s in range(steps + 1):
        for k in range(field.grid_size):
            p, m = field.psi_plus[k], field.psi_minus[k]
            prob = abs(p) ** 2 + abs(m) ** 2
            values = (s * eps, k * eps, p.real, p.imag, m.real, m.imag, prob)
            lines.append(",".join(fmt(v) for v in values))
        if s < steps:
            field = walk_step(field, mass, eps)
    return "\n".join(lines) + "\n"


class TestWalkCsvBytes:
    @pytest.mark.parametrize("digits", [1, 2, 3, 6, 9, 15, 16, 17])
    @pytest.mark.parametrize(
        "init, field",
        [
            ("delta:5:minus", lambda: WalkField(np.zeros(48), np.eye(48)[5])),
            ("gauss:20.5:3:2", lambda: gaussian_field(48, 20.5, 3.0, 2, "plus")),
            ("gauss:30:4:-3:minus", lambda: gaussian_field(48, 30.0, 4.0, -3, "minus")),
        ],
    )
    def test_matches_per_element_formatting(self, capsys, init, field, digits):
        code, out, _ = run_cli(
            ["walk", "--mass", "0.7", "--epsilon", "0.15", "--steps", "12", "--grid", "48",
             "--init", init, "--digits", str(digits)],
            capsys,
        )
        assert code == 0
        assert out == reference_walk_csv(0.7, 0.15, 12, field(), digits)

    @pytest.mark.parametrize("digits", [3, 17])
    def test_signed_zero_underflow(self, capsys, digits):
        # at a quarter turn the amplitudes underflow to zeros whose signs
        # the products decide
        code, out, _ = run_cli(
            ["walk", "--grid", "64", "--steps", "50", "--mass", "1.5707963267948966",
             "--epsilon", "1.0", "--init", "delta:30", "--digits", str(digits)],
            capsys,
        )
        assert code == 0
        assert ",-0," in out
        assert out == reference_walk_csv(math.pi / 2, 1.0, 50, WalkField(np.eye(64)[30], np.zeros(64)), digits)

    def test_blocks_of_rows(self, capsys, monkeypatch):
        # 48 rows a slice in blocks of 5: every block edge and a short last block
        monkeypatch.setattr(cli, "_CSV_ROWS", 5)
        code, out, _ = run_cli(
            ["walk", "--mass", "0.7", "--epsilon", "0.15", "--steps", "12", "--grid", "48",
             "--init", "gauss:20.5:3:2"],
            capsys,
        )
        assert code == 0
        assert out == reference_walk_csv(0.7, 0.15, 12, gaussian_field(48, 20.5, 3.0, 2, "plus"), 17)

    @pytest.mark.parametrize("grid", [2, 64, 1022, 1024, 1026, 2500])
    def test_grids_against_the_block(self, capsys, grid):
        # smaller than a block of _CSV_ROWS = 1024 rows, equal to it, and not a
        # multiple of it (runs of _TEXT_ROWS rows cut every block)
        assert (cli._CSV_ROWS, cli._TEXT_ROWS) == (1024, 32)
        code, out, _ = run_cli(
            ["walk", "--mass", "0.7", "--epsilon", "0.05", "--steps", "2", "--grid", str(grid),
             "--init", f"gauss:{grid / 3}:{grid / 10}:3"],
            capsys,
        )
        assert code == 0
        assert out == reference_walk_csv(0.7, 0.05, 2, gaussian_field(grid, grid / 3, grid / 10, 3, "plus"), 17)

    @pytest.mark.parametrize("rows, text_rows", [(16, 5), (16, 16), (7, 32)])
    @pytest.mark.parametrize("grid", [10, 16, 40])
    def test_small_blocks_and_runs(self, capsys, monkeypatch, rows, text_rows, grid):
        monkeypatch.setattr(cli, "_CSV_ROWS", rows)
        monkeypatch.setattr(cli, "_TEXT_ROWS", text_rows)
        code, out, _ = run_cli(
            ["walk", "--mass", "0.7", "--epsilon", "0.15", "--steps", "5", "--grid", str(grid),
             "--init", "delta:3"],
            capsys,
        )
        assert code == 0
        assert out == reference_walk_csv(0.7, 0.15, 5, WalkField(np.eye(grid)[3], np.zeros(grid)), 17)

    def test_file_output_matches_stdout(self, capsys, tmp_path):
        argv = ["walk", "--mass", "0.7", "--epsilon", "0.15", "--steps", "12", "--grid", "48",
                "--init", "gauss:20.5:3:2"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        path = tmp_path / "walk.csv"
        assert run_cli(argv + ["--out", str(path)], capsys) == (0, "", "")
        assert path.read_bytes() == out.encode("ascii")

    @pytest.mark.parametrize("digits", [2, 17])
    def test_dash_out_matches_file_out(self, capsys, tmp_path, digits):
        argv = ["walk", "--mass", "0.7", "--epsilon", "0.15", "--steps", "12", "--grid", "1100",
                "--init", "gauss:500:40:9:minus", "--digits", str(digits)]
        code, out, err = run_cli(argv + ["--out", "-"], capsys)
        assert (code, err) == (0, "")
        path = tmp_path / "walk.csv"
        assert run_cli(argv + ["--out", str(path)], capsys) == (0, "", "")
        assert path.read_bytes() == out.encode("ascii")

    @pytest.mark.parametrize("digits", [3, 15, 17])
    def test_every_value_through_python(self, capsys, monkeypatch, digits):
        # a certified window over 1/2 leaves every value to Python's own %,
        # as a long double no wider than binary64 does from 16 digits up
        argv = ["walk", "--mass", "0.7", "--epsilon", "0.15", "--steps", "12", "--grid", "48",
                "--init", "gauss:20.5:3:2", "--digits", str(digits)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        scales, bounds = gformat._scales()
        monkeypatch.setattr(gformat, "_scales", lambda: (scales, np.ones_like(bounds)))
        assert run_cli(argv, capsys) == (0, out, "")
        assert out == reference_walk_csv(0.7, 0.15, 12, gaussian_field(48, 20.5, 3.0, 2, "plus"), digits)

    def test_traced_peak_does_not_grow_with_steps(self, tmp_path):
        def peak(steps):
            argv = ["walk", "--grid", "512", "--steps", str(steps), "--mass", "0.8", "--epsilon", "0.11",
                    "--init", "gauss:250.5:9.3:7:plus", "--out", str(tmp_path / "walk.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # tables, parser and caches built outside the measured runs
        short, long = peak(50), peak(400)
        assert long <= 1.1 * short, (short, long)


class TestProbabilities:
    """The walk CSV's probability column is Python's `abs(p) ** 2 + abs(m) ** 2`
    per site, bit for bit."""

    @staticmethod
    def square(z: complex) -> float:
        # Python raises where libm's pow overflows a finite modulus to inf
        try:
            return abs(complex(z)) ** 2
        except OverflowError:
            return math.inf

    def assert_python_bits(self, pp: np.ndarray, pm: np.ndarray):
        python = np.array([self.square(p) + self.square(m) for p, m in zip(pp, pm)])
        assert cli._probabilities(pp, pm).tobytes() == python.tobytes()

    def test_where_pow_and_the_product_differ(self):
        rng = np.random.default_rng(21)
        h = rng.uniform(0.0, 1.0, size=200_000) * np.exp(rng.uniform(-30, 30, size=200_000))
        differ = h[np.array([pow(x, 2.0) for x in h.tolist()]) != h * h]
        assert len(differ) > 20
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(differ)))
        self.assert_python_bits(differ * phase, np.zeros(len(differ), dtype=complex))
        self.assert_python_bits(differ[::-1] * phase, differ * phase.conj())

    def test_random_values(self):
        rng = np.random.default_rng(22)
        z = rng.normal(size=(2, 20000)) + 1j * rng.normal(size=(2, 20000))
        self.assert_python_bits(*(z * np.exp(rng.uniform(-40, 40, size=(2, 20000)))))

    @pytest.mark.parametrize(
        "parts",
        [
            # signed zeros, subnormals, tiny squares, huge ones and overflows
            [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, -1e-170, 1.0, 1e154, 1e200, -1.7976931348623157e308,
             math.inf, -math.inf],
            # NaN apart from overflows: CPython leaves errno set after an
            # OverflowError, and abs of a complex with a NaN part then raises
            [0.0, -0.0, 5e-324, 1e-160, -1.0, 1e150, math.inf, -math.inf, math.nan],
        ],
        ids=["overflow", "nan"],
    )
    def test_extremes(self, parts):
        pp = np.array([complex(a, b) for a in parts for b in parts])
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_python_bits(pp, np.roll(pp, 7))
            self.assert_python_bits(pp, np.zeros(len(pp), dtype=complex))


class TestConvergeCommand:
    def test_csv_and_fitted_order(self, capsys):
        code, out, err = run_cli(["converge"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,l2_error,local_order"
        assert len(lines) == 5
        assert lines[1].endswith(",nan")
        assert "fitted order:" in err
        fitted = float(err.split("fitted order:")[1])
        assert 0.7 <= fitted <= 1.3

    def test_skipped_entries_reported(self, capsys):
        code, out, err = run_cli(
            ["converge", "--eps", "0.1,0.03"], capsys
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2
        assert "skipped eps=0.03" in err

    def test_nondecreasing_eps_rejected(self, capsys):
        code, _, err = run_cli(["converge", "--eps", "0.05,0.1"], capsys)
        assert code == 2
        assert "--eps" in err


class TestTrotterCommand:
    def test_csv_orders_near_two(self, capsys):
        code, out, _ = run_cli(["trotter", "--cells", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "dt,splitting_error,order_estimate"
        orders = [float(ln.split(",")[2]) for ln in lines[2:]]
        assert all(1.9 < o < 2.1 for o in orders)

    def test_random_hamiltonian_seeded(self, capsys):
        code1, out1, _ = run_cli(["trotter", "--hamiltonian", "random", "--seed", "9"], capsys)
        code2, out2, _ = run_cli(["trotter", "--hamiltonian", "random", "--seed", "9"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_unknown_hamiltonian(self, capsys):
        code, _, err = run_cli(["trotter", "--hamiltonian", "ising"], capsys)
        assert code == 2
        assert "--hamiltonian" in err


class TestQuiescenceCommand:
    def test_builtin_passes(self, capsys):
        code, out, _ = run_cli(["quiescence", "--mass", "0.5", "--epsilon", "0.3"], capsys)
        assert code == 0
        assert "verdict: pass" in out

    def test_nonquiescent_file_fails(self, capsys, tmp_path):
        path = tmp_path / "u.txt"
        save_unitary(
            ScatteringUnitary(2, 1, np.eye(4)[:, [2, 1, 0, 3]].astype(complex)), path
        )
        code, out, _ = run_cli(["quiescence", "--unitary-file", str(path)], capsys)
        assert code == 1
        assert "verdict: fail" in out

    def test_quiescent_file_passes(self, capsys, tmp_path):
        from qcalab.dirac import dirac_scattering_unitary

        path = tmp_path / "u.txt"
        save_unitary(dirac_scattering_unitary(0.25, 0.8), path)
        code, out, _ = run_cli(["quiescence", "--unitary-file", str(path)], capsys)
        assert code == 0
        assert "verdict: pass" in out


    @pytest.mark.parametrize(
        "header, message",
        [
            ("2 40", "header fields d=2, n=40 give a block dimension d^(2^n) above the cap 4096"),
            ("2 x", "header field n must be an integer, got 'x'"),
            ("2 -1", "header field n must be >= 1, got -1"),
        ],
    )
    def test_bad_header_is_parameter_error(self, capsys, tmp_path, header, message):
        path = tmp_path / "u.txt"
        path.write_text(header + "\n")
        code, out, err = run_cli(["quiescence", "--unitary-file", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert message in err


class TestUnopenableFiles:
    """A file flag whose path cannot be opened exits 2 naming the flag and
    the path, with nothing on stdout."""

    @pytest.mark.parametrize("subcommand", [["quiescence"], ["causality", "--system", "file"]])
    def test_missing_unitary_file(self, capsys, tmp_path, subcommand):
        path = tmp_path / "missing" / "u.txt"
        code, out, err = run_cli(subcommand + ["--unitary-file", str(path)], capsys)
        assert (code, out) == (2, "")
        assert f"--unitary-file: cannot read {path}" in err

    def test_out_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "w.csv"
        code, out, err = run_cli(["walk", "--grid", "8", "--steps", "2", "--init", "delta:2",
                                  "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert f"--out: cannot write {path}" in err

    def test_dump_state_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "state.txt"
        code, _, err = run_cli(["walk", "--grid", "8", "--steps", "2", "--init", "delta:2",
                                "--out", str(tmp_path / "w.csv"), "--dump-state", str(path)], capsys)
        assert code == 2
        assert f"--dump-state: cannot write {path}" in err

    def test_non_numeric_unitary_entry(self, capsys, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("2 1\n1 0 0 0 0 0 x 0\n")
        code, out, err = run_cli(["quiescence", "--unitary-file", str(path)], capsys)
        assert (code, out) == (2, "")
        assert f"{path}:2: entry 'x' is not a number" in err


class TestCausalityCommand:
    def test_dirac_passes_when_expected(self, capsys):
        code, out, _ = run_cli(
            ["causality", "--system", "dirac", "--cells", "8"], capsys
        )
        assert code == 0
        assert "verdict: pass" in out

    def test_xor_expected_failure_exits_zero(self, capsys):
        code, out, _ = run_cli(
            ["causality", "--system", "xor", "--length", "4",
             "--neighbourhood=-2,-1,0,1,2", "--expect", "fail"],
            capsys,
        )
        assert code == 0
        assert "verdict: fail" in out
        assert "witness" in out

    def test_neighbourhood_value_may_follow_as_its_own_argument(self, capsys):
        base = ["causality", "--system", "xor", "--length", "4", "--expect", "fail"]
        joined = run_cli(base + ["--neighbourhood=-2,-1,0,1,2"], capsys)
        separate = run_cli(base + ["--neighbourhood", "-2,-1,0,1,2"], capsys)
        assert separate == joined
        assert joined[0] == 0

    def test_missing_neighbourhood_value_is_usage_error(self, capsys):
        for tail in (["--neighbourhood"], ["--neighbourhood", "--expect", "fail"]):
            assert main(["causality", "--system", "xor", "--length", "4"] + tail) == 2
            assert "expected one argument" in capsys.readouterr().err

    def test_help_returns_zero(self, capsys):
        assert main(["causality", "--help"]) == 0
        assert "--neighbourhood" in capsys.readouterr().out

    def test_xor_unexpected_pass_expectation_exits_one(self, capsys):
        code, out, _ = run_cli(
            ["causality", "--system", "xor", "--length", "3"], capsys
        )
        assert code == 1
        assert "verdict: fail" in out

    def test_file_system_roundtrip(self, capsys, tmp_path):
        from qcalab.dirac import dirac_scattering_unitary

        path = tmp_path / "u.txt"
        save_unitary(dirac_scattering_unitary(0.4, 0.6), path)
        code, out, _ = run_cli(
            ["causality", "--system", "file", "--unitary-file", str(path), "--cells", "8"],
            capsys,
        )
        assert code == 0
        assert "verdict: pass" in out

    @pytest.mark.parametrize("system", [["dirac"], ["file", "--unitary-file", "missing/u.txt"]])
    def test_cells_checked_before_the_step_is_built(self, capsys, system):
        code, out, err = run_cli(["causality", "--cells", "6", "--system"] + system, capsys)
        assert (code, out) == (2, "")
        assert "--cells: composed step needs a multiple of 4 for supercells" in err
        assert "missing" not in err


    def test_ring_size_does_not_matter(self, capsys):
        # a dense 1000-cell ring could not be built: the window decides
        code, out, err = run_cli(["causality", "--system", "dirac", "--cells", "1000"], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "causality report: system=dirac cells=500 local_dim=4 "
            "neighbourhood=[-1, 0, 1] periodic=True\nverdict: pass\n"
        )


def dense_step_causality(pqca, cells, nbhd):
    """The dense reference for `composed_step_causality`: the regrouped
    ring step built in full and passed to `causality_check`."""
    ring = RingSpace(cells, pqca.scattering.alphabet_size)
    return causality_check(regroup_pairs(composed_step_operator(pqca, ring)), nbhd)


def quiescent_unitary(d, seed):
    """A seeded d^2 x d^2 unitary fixing |00>: Haar on the other states."""
    rng = np.random.default_rng(seed)
    k = d * d - 1
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    m = np.eye(d * d, dtype=complex)
    m[1:, 1:] = q * (np.diag(r) / np.abs(np.diag(r)))
    return m


def unitary_file(tmp_path, name):
    """A saved scattering unitary: seeded quiescent ones with d = 2 and 3,
    the cell swap, the identity, and a phase on |00>, which breaks
    quiescence."""
    matrices = {
        "haar2-1": lambda: quiescent_unitary(2, 1),
        "haar2-2": lambda: quiescent_unitary(2, 2),
        "haar3-3": lambda: quiescent_unitary(3, 3),
        "swap": lambda: np.eye(4)[[0, 2, 1, 3]].astype(complex),
        "identity": lambda: np.eye(4, dtype=complex),
        "phase-broken": lambda: np.diag([np.exp(0.4j), 1, 1, 1]),
    }
    m = matrices[name]()
    path = tmp_path / f"{name}.txt"
    save_unitary(ScatteringUnitary(round(math.sqrt(len(m))), 1, m), path)
    return path


NEIGHBOURHOODS = [[], ["--neighbourhood=0", "--expect", "fail"], ["--neighbourhood=0,1"], ["--neighbourhood=-1,0"]]


class TestCausalityWindowAgainstDense:
    """`causality --system dirac|file` decides on the 6-cell light-cone
    window; the same run with the ring step built in full must print the
    same bytes, witness lines included, with the same exit code."""

    def both(self, argv, capsys, monkeypatch):
        window = run_cli(argv, capsys)
        with monkeypatch.context() as m:
            m.setattr(cli, "composed_step_causality", dense_step_causality)
            dense = run_cli(argv, capsys)
        return window, dense

    @pytest.mark.parametrize("mass,eps", [(0.0, 0.3), (0.6, 0.26), (1.1, 0.4), (0.5, 0.9)])
    @pytest.mark.parametrize("nbhd", NEIGHBOURHOODS)
    def test_dirac(self, capsys, monkeypatch, mass, eps, nbhd):
        argv = ["causality", "--system", "dirac", "--cells", "8",
                "--mass", str(mass), "--epsilon", str(eps)] + nbhd
        window, dense = self.both(argv, capsys, monkeypatch)
        assert window == dense
        assert window[0] == (1 if "--neighbourhood=0,1" in nbhd or "--neighbourhood=-1,0" in nbhd else 0)

    @pytest.mark.parametrize("name", ["haar2-1", "haar2-2", "swap", "identity", "phase-broken"])
    @pytest.mark.parametrize("nbhd", NEIGHBOURHOODS)
    def test_files(self, capsys, monkeypatch, tmp_path, name, nbhd):
        path = unitary_file(tmp_path, name)
        argv = ["causality", "--system", "file", "--unitary-file", str(path), "--cells", "8"] + nbhd
        window, dense = self.both(argv, capsys, monkeypatch)
        assert window == dense
        if name == "phase-broken":
            assert window[0] == 2 and "does not preserve quiescence" in window[2]

    def test_witnesses_at_twelve_cells(self, capsys, monkeypatch):
        # the dense 12-cell step takes about 15 s and 1 GB
        argv = ["causality", "--system", "dirac", "--cells", "12", "--mass", "0.6",
                "--epsilon", "0.26", "--neighbourhood=0", "--expect", "fail"]
        window, dense = self.both(argv, capsys, monkeypatch)
        assert window == dense
        assert window[0] == 0 and window[1].count("offending image support") == 6

    def test_d3_file_past_the_dense_cap(self, capsys, tmp_path):
        # 8 cells of d = 3 are 3^8 states, over the dense cap; the window has 3^6
        path = unitary_file(tmp_path, "haar3-3")
        code, out, err = run_cli(
            ["causality", "--system", "file", "--unitary-file", str(path), "--cells", "8"], capsys
        )
        assert (code, err) == (0, "")
        assert "cells=4 local_dim=9" in out and out.endswith("verdict: pass\n")


class TestOverCapSizesNameTheirFlag:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["causality", "--system", "identity", "--cells", "13"],
             "--cells: dense dimension 2^13 exceeds cap 4096; one matrix would take 1.07e+09 bytes"),
            (["causality", "--system", "xor", "--length", "8"],
             "--length: dense dimension 3^8 exceeds cap 4096; one matrix would take 6.89e+08 bytes"),
            (["localize", "--cells", "7"],
             "--cells: dense dimension 4^7 exceeds cap 4096; one matrix would take 4.29e+09 bytes"),
            (["trotter", "--cells", "14"],
             "--cells: dense dimension 2^14 exceeds cap 4096; one matrix would take 4.29e+09 bytes"),
            (["causality", "--system", "identity", "--cells", "1000000000"],
             "--cells: dense dimension 2^1000000000 exceeds cap 4096; "
             "one matrix would take 2^2000000004 bytes"),
        ],
    )
    def test_refused_before_any_array(self, capsys, monkeypatch, argv, message):
        def refuse(*args):
            raise AssertionError("an array was made")

        monkeypatch.setattr(np, "empty", refuse)
        monkeypatch.setattr(np, "zeros", refuse)
        monkeypatch.setattr(np, "eye", refuse)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("base,largest", [(2, 12), (3, 7), (4, 6)])
    def test_largest_size_under_the_cap_passes(self, base, largest):
        cli._check_dense("--cells", base, largest)
        with pytest.raises(cli.UsageError, match=f"dense dimension {base}\\^{largest + 1} "):
            cli._check_dense("--cells", base, largest + 1)


class TestSignalCommand:
    def test_report_values(self, capsys):
        code, out, _ = run_cli(["signal", "--length", "6"], capsys)
        assert code == 0
        assert "before step: 0" in out
        assert "after step: 1" in out
        assert "verdict: pass" in out

    def test_short_length_usage_error(self, capsys):
        code, _, err = run_cli(["signal", "--length", "2"], capsys)
        assert code == 2
        assert "--length" in err

    @pytest.mark.parametrize("length", ["8", "1000000000"])
    def test_length_over_the_cap_refused_before_any_array(self, capsys, monkeypatch, length):
        def refuse(*args):
            raise AssertionError("an array was made")

        monkeypatch.setattr(np, "empty", refuse)
        monkeypatch.setattr(np, "zeros", refuse)
        monkeypatch.setattr(np, "eye", refuse)
        code, out, err = run_cli(["signal", "--length", length], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"usage error: --length: 3^{length} basis states exceed the cap of 4096 states; "
            "the study steps state vectors, no matrix\n"
        )

    @pytest.mark.parametrize("length", [3, 4, 5, 6, 7])
    def test_stdout_equals_dense_reference(self, capsys, monkeypatch, length):
        argv = ["signal", "--length", str(length)]
        scattered = run_cli(argv, capsys)
        monkeypatch.setattr(cli, "signalling_demo", dense_signalling_demo)
        assert scattered == run_cli(argv, capsys)
        assert scattered[0] == 0 and scattered[1].endswith("verdict: pass\n")


class TestLocalizeCommand:
    @pytest.mark.parametrize("system", ["identity", "product", "dirac"])
    def test_systems_pass(self, system, capsys):
        code, out, _ = run_cli(["localize", "--system", system, "--cells", "4"], capsys)
        assert code == 0
        assert "verdict: pass" in out
        assert "HE-EG defect" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["walk", "--mass", "0.5", "--epsilon", "0.2", "--steps", "20",
             "--grid", "32", "--init", "gauss:16:3:2"],
            ["converge", "--eps", "0.1,0.05"],
            ["trotter", "--hamiltonian", "random", "--seed", "3"],
        ],
    )
    def test_byte_identical_reruns(self, args, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# walk defaults\nmass=0\nsteps=4\ngrid=16\ninit=delta:8\n")
        code, out_cfg, _ = run_cli(["walk", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(out_cfg.strip().splitlines()) == 1 + 5 * 16
        code, out_override, _ = run_cli(
            ["walk", "--config", str(cfg), "--steps", "2"], capsys
        )
        assert code == 0
        assert len(out_override.strip().splitlines()) == 1 + 3 * 16

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=2\n\nbogus=1\n")
        code, out, err = run_cli(["walk", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert f"--config: {cfg}:3: unknown key 'bogus'" in err

    def test_key_of_another_subcommand_allowed(self, capsys, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("cells=4\nmass=0\nsteps=1\ngrid=8\ninit=delta:4\n")
        code, out, _ = run_cli(["walk", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 2 * 8

    def test_malformed_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps 4\n")
        code, _, err = run_cli(["walk", "--config", str(cfg)], capsys)
        assert code == 2
        assert "key=value" in err


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_runs_in_turn_match_fresh_parsers(self, capsys, tmp_path):
        trotter_cfg = tmp_path / "trotter.cfg"
        trotter_cfg.write_text("cells=4\ndt=0.2,0.1\n")
        walk_cfg = tmp_path / "walk.cfg"
        walk_cfg.write_text("mass=0\nsteps=2\ngrid=8\ninit=delta:4\n")
        argvs = [
            ["trotter", "--config", str(trotter_cfg)],
            ["signal", "--length", "4"],
            ["walk", "--config", str(walk_cfg)],
            ["signal", "--lenght", "4"],
            ["causality", "--system", "identity", "--cells", "3"],
            ["walk", "--config", str(walk_cfg), "--steps", "1"],
            ["trotter", "--config", str(trotter_cfg), "--dt", "0.3"],
            ["causality", "--neighbourhood"],
        ]
        in_turn = [run_cli(argv, capsys) for argv in argvs]
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(argv, capsys))
        assert in_turn == fresh
        assert [code for code, _, _ in in_turn] == [0, 0, 0, 2, 0, 0, 0, 2]


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "args, flag",
        [
            (["walk", "--grid", "64", "--steps", "2", "--mass", "nan"], "--mass"),
            (["walk", "--grid", "64", "--steps", "2", "--epsilon", "inf"], "--epsilon"),
            (["converge", "--eps", "0.1,nan"], "--eps"),
            (["trotter", "--cells", "4", "--dt", "nan"], "--dt"),
        ],
    )
    def test_rejected_naming_the_flag(self, capsys, args, flag):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: {flag}: expected ")
        assert "finite number" in err

    def test_negative_infinity_in_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mass=-inf\n")
        code, _, err = run_cli(["walk", "--config", str(cfg)], capsys)
        assert code == 2
        assert "--mass: expected a finite number, got '-inf'" in err


class TestDigits:
    def test_digits_control_formatting(self, capsys):
        code, out, _ = run_cli(
            ["walk", "--mass", "0", "--epsilon", "0.1", "--steps", "0",
             "--grid", "4", "--init", "delta:1", "--digits", "3"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[2] == "0,0.1,1,0,0,0,1"

    def test_digits_out_of_range(self, capsys):
        code, _, err = run_cli(["signal", "--digits", "40"], capsys)
        assert code == 2
        assert "--digits" in err


class TestSelftests:
    @pytest.mark.parametrize(
        "subcommand",
        ["converge", "trotter", "localize", "causality", "signal", "quiescence"],
    )
    def test_selftest_passes(self, subcommand, capsys):
        code, out, _ = run_cli([subcommand, "--selftest"], capsys)
        assert code == 0
        assert out.count("ok ") >= 2 or subcommand == "signal"

    def test_walk_selftest(self, capsys):
        code, out, _ = run_cli(["walk", "--selftest"], capsys)
        assert code == 0
        assert "ok walk" in out
