"""The background SVD worker: counts, bits, failures and lifetime above the
size threshold, where ``classify`` and the EP-only analyses decompose
``A*`` and ``A+`` on the worker while the calling thread decomposes ``A``.

A forced-serial run sets the private threshold ``core._WORKER_MIN_DIM``
past every input, which is how an analysis below the threshold runs.
"""

import os
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import eplab
from eplab import (check_perturbation, classify, core, ep_closure_suite, generate_admissible,
                   majorization_witness)
from eplab.classify import _ROUTES, _classify
from eplab.core import _Operand
from eplab.errors import ConvergenceFailure, NonFinite
from eplab.zoo import Family, OperatorSpec, generate

from conftest import random_complex

LARGE_SIZES = tuple(range(96, 193, 16))
N = 128


def large_inputs(sizes=LARGE_SIZES):
    """Five families at each size, as in the ``classify_large`` benchmark
    workload: random EP, random closed range, exactly Hermitian, Fourier
    derivative and weighted shift."""
    for n in sizes:
        rng = np.random.default_rng([1, n])
        herm = random_complex(rng, n, n)
        yield generate(OperatorSpec(Family.RANDOM_EP, n, 3 * n // 4, n))[0]
        yield generate(OperatorSpec(Family.RANDOM_CLOSED_RANGE, n, n // 2, n + 1))[0]
        yield herm + herm.conj().T
        yield generate(OperatorSpec(Family.FOURIER_DERIVATIVE, n))[0]
        yield generate(OperatorSpec(Family.WEIGHTED_SHIFT, n))[0]


def serial(call, *args):
    """``call(*args)`` with the threshold past every input."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_WORKER_MIN_DIM", sys.maxsize)
        return call(*args)


@pytest.fixture
def svd_threads(monkeypatch):
    """Counter of the full SVDs made while the test runs, by thread name."""
    tally, lock, full = Counter(), threading.Lock(), np.linalg.svd

    def counting(*args, **kwargs):
        if kwargs.get("compute_uv", True):
            with lock:
                tally[threading.current_thread().name] += 1
        return full(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return tally


def _on_worker(tally: Counter) -> int:
    return sum(n for name, n in tally.items() if name.startswith("eplab-svd"))


def test_general_input_runs_three_svds_two_on_the_worker(svd_threads):
    a = generate(OperatorSpec(Family.RANDOM_EP, N, 3 * N // 4, 0))[0]
    assert classify(a).is_ep
    assert sum(svd_threads.values()) == 3
    assert _on_worker(svd_threads) == 2  # A* and A+


def test_hermitian_input_starts_no_adjoint_svd(svd_threads):
    a = random_complex(np.random.default_rng(0), N, N)
    assert classify(a + a.conj().T).is_ep
    assert sum(svd_threads.values()) == 2
    assert _on_worker(svd_threads) == 1  # A+ alone


def test_equal_operands_are_decomposed_once(svd_threads):
    a = random_complex(np.random.default_rng(1), N, N)
    op = _Operand(a)
    twin = op.derive(a.copy())
    op.start()
    twin.start()
    assert twin.factors is op.factors
    assert op.derive(a.copy()).factors is op.factors
    assert sum(svd_threads.values()) == 1


def test_inputs_below_the_threshold_stay_on_the_calling_thread(svd_threads):
    for n in (8, 32, core._WORKER_MIN_DIM - 1):
        classify(random_complex(np.random.default_rng(n), n, n))
    assert _on_worker(svd_threads) == 0
    assert sum(svd_threads.values()) == 9


def test_large_reports_match_a_serial_run():
    for a in large_inputs():
        assert repr(classify(a)) == repr(serial(classify, a))


def test_ep_only_analyses_match_a_serial_run():
    a = generate(OperatorSpec(Family.RANDOM_EP, 96, 70, 3))[0]
    b = generate_admissible(a, 0.5, 3)
    x = np.arange(96.0)
    for call, args in ((check_perturbation, (a, b)), (majorization_witness, (a, x)),
                       (ep_closure_suite, (a,))):
        assert repr(call(*args)) == repr(serial(call, *args))


def test_worker_convergence_failure_has_the_serial_text(monkeypatch):
    a = random_complex(np.random.default_rng(2), 64, 64)
    star, full, failed_on = a.conj().T, np.linalg.svd, []

    def failing(arr, *args, **kwargs):
        if np.array_equal(arr, star):
            failed_on.append(threading.current_thread().name)
            raise np.linalg.LinAlgError("SVD did not converge")
        return full(arr, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(ConvergenceFailure) as concurrent:
        classify(a)
    with pytest.raises(ConvergenceFailure) as inline:
        serial(classify, a)
    assert str(concurrent.value) == str(inline.value)
    assert str(inline.value) == "SVD did not converge: SVD did not converge"
    assert failed_on[0].startswith("eplab-svd") and failed_on[-1] == "MainThread"


def test_non_finite_on_the_calling_thread_leaves_nothing_queued(monkeypatch):
    # sigma_1 of this triangle is past the float range: A's rank rule raises
    # while A*'s SVD is queued or running on the worker.
    started, start = [], _Operand.start
    monkeypatch.setattr(_Operand, "start", lambda op: started.append(start(op)))
    a = np.triu(np.full((64, 64), 1.5e308))
    op = _Operand(a)
    with pytest.raises(NonFinite) as concurrent:
        _classify(op)
    assert started
    assert all(entry.done() for _, entry in op._table if isinstance(entry, Future))
    with pytest.raises(NonFinite) as inline:
        serial(classify, a)
    assert str(concurrent.value) == str(inline.value)


def test_failure_on_the_calling_thread_cancels_the_queued_svds(monkeypatch, svd_threads):
    # The worker is held busy, so the SVDs of A* and A+ are still queued
    # when a route measured on the calling thread raises.
    def overflowing(op):
        raise NonFinite("the commutator overflows")

    monkeypatch.setitem(_ROUTES, "commutator", overflowing)
    release = threading.Event()
    core._worker_pool().submit(release.wait, 60)
    op = _Operand(random_complex(np.random.default_rng(3), 64, 64))
    try:
        with pytest.raises(NonFinite, match="commutator"):
            _classify(op)
        assert not any(isinstance(entry, Future) for _, entry in op._table)
    finally:
        release.set()
    core._worker_pool().submit(int).result(timeout=60)  # after anything still queued
    assert _on_worker(svd_threads) == 0


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_forked_child_classifies_on_its_own_worker():
    a = generate(OperatorSpec(Family.RANDOM_CLOSED_RANGE, N, 90, 4))[0]
    expected = repr(classify(a))  # the parent's worker thread now exists
    pid = os.fork()
    if pid == 0:
        try:
            os._exit(0 if repr(classify(a)) == expected else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("the forked child did not finish classifying")


def test_user_threads_get_the_serial_reports():
    # Three user threads and the worker on at most two cores, switching
    # often, each thread in its own order.
    inputs = list(large_inputs((64, 96)))
    expected = [repr(serial(classify, a)) for a in inputs]
    orders = {"forward": range(len(inputs)), "backward": range(len(inputs) - 1, -1, -1),
              "odd first": [*range(1, len(inputs), 2), *range(0, len(inputs), 2)]}
    results = {}

    def run(key):
        results[key] = {i: repr(classify(inputs[i])) for i in orders[key]}

    threads = [threading.Thread(target=run, args=(key,)) for key in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert set(results) == set(orders)
    for reports in results.values():
        assert [reports[i] for i in range(len(inputs))] == expected


_REPEATED_DIGESTS = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from eplab import classify, core
from test_worker import large_inputs
inputs = list(large_inputs())
def digest():
    return hashlib.sha256(repr([classify(a) for a in inputs]).encode()).hexdigest()
digests = {digest() for _ in range(3)}
core._WORKER_MIN_DIM = sys.maxsize
digests.add(digest())
print(len(digests))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_reports_repeat_bit_for_bit_on_one_and_two_blas_threads(threads):
    # In each child, three runs on the worker and one serial run hash alike.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        [str(Path(eplab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    env.pop("OMP_NUM_THREADS", None)
    out = subprocess.run([sys.executable, "-c", _REPEATED_DIGESTS, str(Path(__file__).parent)],
                         env=env, check=True, capture_output=True, text=True, timeout=300)
    assert out.stdout.strip() == "1"
