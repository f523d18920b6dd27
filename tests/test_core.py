import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdefl
from sdefl.core import (
    DomainError,
    Path,
    RandomSource,
    ShapeError,
    normal_cdf,
    normal_pdf,
    rmse,
)


def trapezoid_quadrature(f, lo, hi, n=200_001):
    xs = np.linspace(lo, hi, n)
    return float(np.trapezoid(f(xs), xs))


class TestRandomSource:
    def test_zero_draws(self):
        assert RandomSource(42).normals(0).shape == (0,)

    def test_law_of_large_numbers(self):
        z = RandomSource(42).normals(10**5)
        assert abs(z.mean()) <= 0.02
        assert abs(z.var() - 1.0) <= 0.05

    def test_determinism_bitwise(self):
        a = RandomSource(42, 3).normals(1000)
        b = RandomSource(42, 3).normals(1000)
        assert a.tobytes() == b.tobytes()

    def test_streams_differ(self):
        a = RandomSource(42, 0).normals(1000)
        b = RandomSource(42, 1).normals(1000)
        assert not np.array_equal(a, b)
        # independent streams should be uncorrelated
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_substream_determinism(self):
        s = RandomSource(7)
        assert s.substream(3) == s.substream(3)
        assert s.substream(3) != s.substream(4)
        assert s.substream(3).seed == 7

    def test_seed_range_checked(self):
        with pytest.raises(DomainError):
            RandomSource(-1)

    def test_negative_count_rejected(self):
        with pytest.raises(ShapeError):
            RandomSource(1).normals(-1)


class TestNormalPdf:
    def test_standard_mode(self):
        assert normal_pdf(0.0, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_mode_value_any_params(self):
        for m, s in [(0.0, 1.0), (-3.2, 0.5), (10.0, 7.0)]:
            assert normal_pdf(m, m, s) == pytest.approx(1.0 / (math.sqrt(2 * math.pi) * s), rel=1e-12)

    def test_quadrature_unit_mass(self):
        total = trapezoid_quadrature(lambda x: normal_pdf(x, 0.0, 2.0), -20.0, 20.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_unit_mass_random_params(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([99, 0], dtype=np.uint64)))
        for _ in range(5):
            m = float(rng.uniform(-5, 5))
            s = float(rng.uniform(0.1, 4.0))
            total = trapezoid_quadrature(lambda x: normal_pdf(x, m, s), m - 10 * s, m + 10 * s)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_std_rejected(self):
        with pytest.raises(DomainError):
            normal_pdf(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            normal_pdf(0.0, 0.0, -1.0)


class TestNormalCdf:
    def test_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_symmetry_identity(self):
        for x in [-4.0, -1.3, 0.2, 2.5, 6.0]:
            assert abs(normal_cdf(x) - (1.0 - normal_cdf(-x))) <= 1e-12

    def test_quantile_against_quadrature(self):
        # oracle: integrate the standard normal density up to 1.96
        oracle = trapezoid_quadrature(lambda x: normal_pdf(x, 0.0, 1.0), -14.0, 1.96)
        assert oracle == pytest.approx(0.9750021, abs=1e-6)
        assert normal_cdf(1.96) == pytest.approx(oracle, abs=1e-6)

    def test_monotone_on_grid(self):
        grid = np.arange(-8.0, 8.0 + 1e-3, 1e-3)
        vals = normal_cdf(grid)
        assert np.all(np.diff(vals) >= 0.0)


class TestRmse:
    def test_identity(self):
        p = Path(0.0, 1.0, [1.0, 2.0, 3.0])
        assert rmse(p, p) == 0.0

    def test_constant_offset(self):
        assert rmse([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_hand_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(25.0 / 2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rmse([0.0, 1.0], [0.0, 1.0, 2.0])

    # keep magnitudes where squared differences cannot underflow to zero
    _vals = st.floats(-1e6, 1e6).map(lambda v: 0.0 if abs(v) < 1e-100 else v)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_vals, min_size=1, max_size=30), st.data())
    def test_symmetry_and_positivity(self, xs, data):
        ys = data.draw(st.lists(self._vals, min_size=len(xs), max_size=len(xs)))
        a, b = np.array(xs), np.array(ys)
        assert rmse(a, b) == rmse(b, a) >= 0.0
        if not np.array_equal(a, b):
            assert rmse(a, b) > 0.0
        else:
            assert rmse(a, b) == 0.0


class TestPath:
    def test_times_formula(self):
        p = Path(1.5, 0.25, np.arange(5.0))
        assert np.array_equal(p.times(), 1.5 + 0.25 * np.arange(5))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            Path(0.0, 1.0, [])

    def test_bad_dt_rejected(self):
        with pytest.raises(DomainError):
            Path(0.0, 0.0, [1.0])

    def test_values_frozen(self):
        p = Path(0.0, 1.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            p.values[0] = 9.0

    def test_two_dim(self):
        p = Path(0.0, 1.0, np.zeros((4, 2)))
        assert p.dim == 2 and len(p) == 4


class TestScipyImports:
    def test_filters_run_without_importing_scipy(self, tmp_path):
        # scipy.special and scipy.optimize take about 0.4 s to import, and
        # only the array normal CDF and the fits need them; numba is never
        # needed, so a numba that fails on import must not stop the filters
        stub = tmp_path / "numba"
        stub.mkdir()
        (stub / "__init__.py").write_text('raise RuntimeError("numba imported")\n')
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import sdefl\n"
            "from sdefl import RandomSource, HestonParams, simulate_heston\n"
            "from sdefl.kalman import ekf_run, heston_ekf_system, log_returns\n"
            "heavy = ('scipy.special', 'scipy.optimize')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "p = HestonParams(mu_s=0.05, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)\n"
            "lns, _ = simulate_heston(p, 100.0, 1.5, 0.499, 50, RandomSource(1))\n"
            "est, _ = sdefl.particle_ekf_run(lns, p, 20, RandomSource(2))\n"
            "states, _ = ekf_run(log_returns(lns), heston_ekf_system(p, 0.499, lns), x0=1.0, p0=1.0)\n"
            "print(len(est), len(states))\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "sdefl.normal_cdf(np.zeros(3))\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
        )
        # the child imports the same sdefl as this process, and the stub
        root = os.path.dirname(os.path.dirname(sdefl.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(tmp_path), root, os.environ.get("PYTHONPATH")])))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == ["[]", "51 50", "[]", "['scipy.special']"]


class TestImportCost:
    def test_import_loads_no_pool_or_xml_modules(self):
        # reproduce imports its process pool when it runs, and the SVG
        # writer escapes its labels itself: xml.sax.saxutils pulls in
        # urllib, http, email and ssl
        code = (
            "import sys\n"
            "import sdefl\n"
            "heavy = ('multiprocessing', 'concurrent.futures', 'xml.sax')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
        )
        root = os.path.dirname(os.path.dirname(sdefl.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == ["[]"]
