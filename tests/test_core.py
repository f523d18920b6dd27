import math
import os
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdefl
from sdefl.core import (
    STREAM_PF_INIT,
    STREAM_PF_PROPOSAL,
    STREAM_PF_RESAMPLE,
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
        with pytest.raises(DomainError, match="^n must be a non-negative integer, got -1$"):
            RandomSource(1).normals(-1)

    @pytest.mark.parametrize("n", [2.5, 3.9, np.float64(2.0), np.nan, np.inf])
    def test_fractional_count_rejected(self, n):
        # normals(2.5) used to return 2 draws, and uniforms(3.9) 3
        src = RandomSource(1)
        for draw in (src.normals, src.uniforms, lambda n: src.poissons(0.5, n)):
            with pytest.raises(DomainError, match=f"^n must be a non-negative integer, got {n}$"):
                draw(n)

    def test_numpy_integer_counts_accepted(self):
        src = RandomSource(1)
        assert src.normals(np.int64(3)).tobytes() == src.normals(3).tobytes()
        assert src.uniforms(np.int32(4)).tobytes() == src.uniforms(4).tobytes()
        assert src.poissons(0.5, np.uint8(5)).tobytes() == src.poissons(0.5, 5).tobytes()
        assert src.uniforms(0).shape == src.poissons(0.5, 0).shape == (0,)


def philox(seed, stream):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def packaged_particle_keys():
    """(seed, stream) keys that a packaged particle scenario's pass draws from."""
    keys = []
    for name in ("heston_particle", "bates_particle"):
        src = RandomSource(sdefl.load_scenario(name).seed)
        keys.append(src.substream(STREAM_PF_INIT))
        for tag in (STREAM_PF_PROPOSAL, STREAM_PF_RESAMPLE):
            keys += [src.substream(tag).substream(t) for t in (0, 1, 999)]
    return list(dict.fromkeys((k.seed, k.stream) for k in keys))


class TestGenerator:
    """RandomSource.generator keys Philox through its own seed sequence; its
    draws must stay those of Philox(key=[seed, stream])."""

    @pytest.mark.parametrize("seed, stream", [
        (0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), *packaged_particle_keys(),
    ])
    def test_draws_match_keyed_philox(self, seed, stream):
        ours, ref = RandomSource(seed, stream).generator(), philox(seed, stream)
        assert ours.standard_normal(257).tobytes() == ref.standard_normal(257).tobytes()
        assert ours.random(33).tobytes() == ref.random(33).tobytes()
        assert ours.poisson(3.5, 65).tobytes() == ref.poisson(3.5, 65).tobytes()
        assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)

    def test_reads_no_os_entropy(self, monkeypatch):
        # Philox(key=...) seeds a SeedSequence from OS entropy and drops it
        def entropy(*args):
            raise AssertionError("generator() read OS entropy")

        monkeypatch.setattr(np.random.bit_generator, "randbits", entropy, raising=False)
        RandomSource(5, 6).generator().standard_normal(3)

    def test_generators_of_one_source_advance_independently(self):
        src = RandomSource(2**64 - 1, 12345)
        a, b = src.generator(), src.generator()
        assert a is not b and a.bit_generator is not b.bit_generator
        first = a.standard_normal(10)
        assert b.standard_normal(10).tobytes() == first.tobytes()
        assert a.standard_normal(10).tobytes() != first.tobytes()
        assert src.generator().standard_normal(10).tobytes() == first.tobytes()


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

    def test_array_is_the_scalar_formula_at_each_element(self):
        grid = np.linspace(-10.0, 10.0, 2001).reshape(3, 667)
        vals = normal_cdf(grid)
        assert vals.shape == grid.shape
        want = [0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in grid.ravel().tolist()]
        assert vals.ravel().tolist() == want
        assert vals.ravel().tolist() == [normal_cdf(x) for x in grid.ravel().tolist()]
        assert max(abs(mpmath.ncdf(x) - y) for x, y in zip(grid.ravel().tolist(), want)) <= 1e-15


class TestErrors:
    def test_one_runtime_failure_type(self):
        # the particle filter's former name for its breakdown is an alias
        assert sdefl.DegeneracyError is sdefl.DegenerateSystemError


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

    def test_empty_input_is_named(self):
        # numpy's mean of an empty slice used to warn and return nan
        with pytest.raises(ShapeError, match="^a must be 1-dim and hold at least one point$"):
            rmse([], [])
        with pytest.raises(ShapeError, match="^b must be 1-dim and hold at least one point$"):
            rmse([0.0], [])

    def test_non_finite_entry_is_named(self):
        with pytest.raises(DomainError, match="^b value at index 1 is not finite$"):
            rmse([0.0, 1.0, 2.0], [0.0, np.nan, 2.0])
        with pytest.raises(DomainError, match="^a value at index 2 is not finite$"):
            rmse(Path(0.0, 1.0, [0.0, 1.0, np.inf]), [0.0, 1.0, 2.0])

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

    def test_times_past_the_floats_in_halves(self):
        # dt * k passes the floats at k = 2 although every time is finite:
        # times() used to warn about the overflow and end at inf
        p = Path(-1e308, 1e308, [1.0, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.times().tolist() == [-1e308, 0.0, 1e308]

    @pytest.mark.parametrize("t0, dt, n", [(0.0, 1e308, 3), (1e308, 1e308, 2), (-1e308, 1e308, 4),
                                           (math.inf, 1.0, 1), (math.nan, 1.0, 2)])
    def test_last_time_past_the_floats_rejected(self, t0, dt, n):
        message = (f"the path's last time t0 + (n - 1) * dt is not finite "
                   f"(t0 = {t0}, dt = {dt}, n = {n})")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Path(t0, dt, np.zeros(n))

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
        # scipy.optimize takes about 0.4 s and 48 MB to import, and the
        # package needs no scipy at all; numba is never needed, so a numba
        # that fails on import must not stop the filters
        stub = tmp_path / "numba"
        stub.mkdir()
        (stub / "__init__.py").write_text('raise RuntimeError("numba imported")\n')
        out = tmp_path / "out"
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import sdefl\n"
            "from sdefl import RandomSource, HestonParams, simulate_heston\n"
            "from sdefl.cli import main\n"
            "from sdefl.kalman import ekf_run, heston_ekf_system, log_returns\n"
            "print('scipy' in sys.modules)\n"
            "p = HestonParams(mu_s=0.05, kappa=0.3, theta_v=1.5, xi=0.6, rho=0.04)\n"
            "lns, _ = simulate_heston(p, 100.0, 1.5, 0.499, 50, RandomSource(1))\n"
            "est, _ = sdefl.particle_ekf_run(lns, p, 20, RandomSource(2))\n"
            "states, _ = ekf_run(log_returns(lns), heston_ekf_system(p, 0.499, lns), x0=1.0, p0=1.0)\n"
            "print(len(est), len(states))\n"
            "sdefl.normal_cdf(np.zeros(3))\n"
            "print('scipy' in sys.modules)\n"
            f"print(main(['estimate', '--scenario', 'ou_jump_mle', '--out', {str(out)!r}]))\n"
            "print('scipy' in sys.modules)\n"
            f"print(main(['reproduce', '--out', {str(out)!r}]))\n"
            "print('scipy' in sys.modules)\n"
        )
        # the child imports the same sdefl as this process, and the stub
        root = os.path.dirname(os.path.dirname(sdefl.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(tmp_path), root, os.environ.get("PYTHONPATH")])))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        lines = [ln for ln in r.stdout.splitlines() if ln in ("True", "False", "0", "51 50")]
        assert lines == ["False", "51 50", "False", "0", "False", "0", "False"]


class TestImportCost:
    def test_import_loads_no_pool_or_xml_modules(self):
        # reproduce imports its process pool when it runs, and the SVG
        # writer escapes its labels itself: xml.sax.saxutils pulls in
        # urllib, http, email and ssl.  numpy.random loads at the first draw
        code = (
            "import sys\n"
            "import sdefl\n"
            "heavy = ('multiprocessing', 'concurrent.futures', 'xml.sax', 'numpy.random')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
        )
        root = os.path.dirname(os.path.dirname(sdefl.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == ["[]"]
