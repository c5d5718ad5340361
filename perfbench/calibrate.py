"""Reference work that measures how fast the machine runs at the moment.

The machine this benchmark was defined on (2-vCPU Intel Xeon at 2.1 GHz,
shared with other tenants) switches for seconds to minutes between a fast
and a slow state that is about 1.6x slower; CPU time slows exactly as much
as wall time, so the loss is in execution speed, not in scheduling. A fixed
kernel that uses none of the package, made of the same kinds of work as the
package (interpreter-bound loops, small complex products and reductions,
one mid-size complex matmul), slows by about the same factor. The benchmark
runs one sample of it between task groups and reports times scaled to the
kernel's reference time, ``measured * REFERENCE_S / kernel time``; the raw
times stay in the printed lines and the report.

Start-up (interpreter start plus module loading) does not track that kernel
from moment to moment, so start-up times are scaled instead by a reference
start-up: a fresh interpreter importing a fixed set of modules that the
package does not control (numpy, click and some of the standard library).
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.52e-3  # the kernel's time in the fast state of the machine above
STARTUP_REFERENCE_S = 0.16  # the reference start-up's time on the same machine
STARTUP_REFERENCE = (
    "import numpy, click, asyncio, decimal, email.mime.multipart, http.client, unittest, xml.dom.minidom\n"
    "import time\n"
    "print(time.monotonic())"
)

_rng = np.random.default_rng(20240822)
_SMALL = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(40)]
_MID = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += i & 7
    for m in _SMALL:
        np.abs(m @ m.conj().T).max()
    _MID @ _MID
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Scale from measured seconds to reference seconds, from the median sample."""
    ordered = sorted(samples)
    return REFERENCE_S / ordered[len(ordered) // 2]


def startup_sample(timeout: float) -> float:
    """Seconds from spawning the reference start-up to the end of its imports."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_REFERENCE], capture_output=True, text=True, timeout=timeout, check=True
    )
    return float(proc.stdout) - t_spawn
