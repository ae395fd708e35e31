"""One OpenBLAS thread inside the package's calls, the caller's count outside."""

import sys
import threading

import numpy as np
import pytest

from eigengarch import _blas, fit_spectral_targeting, risk, rolling_backtest, simulate_path
from eigengarch.experiments import density_case_spec, diagonal_benchmark_spec

pytestmark = pytest.mark.skipif(not _blas.thread_counts(), reason="no OpenBLAS loaded")


def set_all(n):
    for _, set_ in _blas._libraries().values():
        set_(n)


@pytest.fixture
def caller_counts():
    """The caller runs two threads in every OpenBLAS copy; restored afterwards."""
    before = _blas.thread_counts()
    set_all(2)
    try:
        yield _blas.thread_counts()
    finally:
        for (_, set_), n in zip(_blas._libraries().values(), before.values()):
            set_(n)


def one_thread(counts):
    return bool(counts) and set(counts.values()) == {1}


def test_counts_restored_after_return_and_exception(caller_counts):
    @_blas.single_threaded
    def inside(fail):
        seen = _blas.thread_counts()
        if fail:
            raise RuntimeError("boom")
        return seen

    assert one_thread(inside(False))
    assert _blas.thread_counts() == caller_counts
    with pytest.raises(RuntimeError, match="boom"):
        inside(True)
    assert _blas.thread_counts() == caller_counts


def test_one_thread_inside_a_nested_call(caller_counts):
    seen = []

    @_blas.single_threaded
    def inner():
        seen.append(_blas.thread_counts())

    @_blas.single_threaded
    def outer():
        inner()
        seen.append(_blas.thread_counts())

    outer()
    assert len(seen) == 2 and all(one_thread(c) for c in seen)
    assert _blas.thread_counts() == caller_counts


def test_one_thread_inside_a_backtest_refit(caller_counts, monkeypatch):
    seen = []
    real_fit = risk.fit_spectral_targeting

    def spy(*args, **kwargs):
        seen.append(_blas.thread_counts())
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(risk, "fit_spectral_targeting", spy)
    X = simulate_path(density_case_spec(1), T=330, burn_in=100, rng_seed=1)
    report = rolling_backtest(X, [np.ones(2)], window=300, refit_every=10,
                              n_draws=1000)
    assert len(seen) == len(report.refit_seconds) == 3
    assert all(one_thread(c) for c in seen)
    assert _blas.thread_counts() == caller_counts


def test_concurrent_calls_keep_one_thread_and_restore(caller_counts):
    # more threads than cores, switching often: a lost update of the depth
    # count would let one thread restore the caller's counts while another
    # is still inside, or leave the process pinned after the last returns
    a = np.random.default_rng(0).standard_normal((200, 200))

    @_blas.single_threaded
    def work():
        a @ a
        return _blas.thread_counts()

    seen = []

    def client():
        for _ in range(20):
            seen.append(work())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 80 and all(one_thread(c) for c in seen)
    assert _blas.thread_counts() == caller_counts


def test_fit_independent_of_the_callers_thread_count(caller_counts):
    X = simulate_path(diagonal_benchmark_spec(5), T=1000, burn_in=500, rng_seed=3)
    default = fit_spectral_targeting(X, diag_a=True)
    set_all(1)
    pinned = fit_spectral_targeting(X, diag_a=True)
    assert _blas.thread_counts() == {name: 1 for name in caller_counts}
    for a, b in ((default.kappas, pinned.kappas), (default.target.lam, pinned.target.lam),
                 (default.target.V, pinned.target.V), (default.W, pinned.W)):
        assert np.array_equal(a, b)
