"""References that take out the drift of a shared host's speed.

On a shared host the same code runs up to a third slower or faster from one
minute to the next (other tenants' load), more than the regressions the
benchmark must resolve.  So every timed interval of an untraced run sits
next to a run of a fixed reference, and the end-to-end times are reported
in *reference seconds*:

    t_ref = t_wall * NOMINAL / median(reference times of the run)

On a host where the reference takes ``NOMINAL`` seconds, reference seconds
are wall seconds.  Neither reference calls the package, so a change to the
package moves ``t_ref`` while a change in host speed cancels out.

Two references, because computing and starting processes drift apart:

* the kernel, a Python loop over small complex Hermitian matrices
  (``eigh``, ``exp``, matrix products), the kind of work the in-process
  ops do;
* a fresh ``python -c "import numpy"``, the kind of work CLI commands and
  set-up probes do (process start, imports).  Measured over 30 s windows,
  it takes the spread of CLI command times from 0.24 (IQR/median, wall) to
  0.05, where the kernel leaves 0.10.
"""

import subprocess
import sys
import time

import numpy as np

# nominal times on a 2-vCPU x86-64 virtual machine (Python 3.11, numpy 2.4, BLAS
# pinned to one thread), the host of the first recorded numbers
KERNEL_NOMINAL = 0.017
PROCESS_NOMINAL = 0.15

_STEPS = 600
_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_A = _A + _A.conj().T
_B = np.diag(np.linspace(-1.0, 1.0, 6)).astype(complex)


def kernel():
    """Fixed work: one short unitary sweep of a 6-level affine Hamiltonian."""
    u = np.eye(6, dtype=complex)
    for step in range(_STEPS):
        w, v = np.linalg.eigh(_A + (0.01 * step) * _B)
        u = ((v * np.exp(-0.01j * w)) @ v.conj().T) @ u
    return u


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def time_numpy_process(env):
    """Wall time of a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0
