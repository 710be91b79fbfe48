"""Per-CPU speed samplers: how fast each CPU ran while the benchmark measured.

The shared host this benchmark was written on slows each of its two CPUs
by about 1.6x for a second or two at a time, each CPU on its own, and for
how much of a minute it does so drifts from minute to minute.  A run that
falls in a slow minute is 40% slower with no change to the program.

A sampler is a small process pinned to one CPU.  Every ``PERIOD_S`` it
wakes and times one run of :func:`measure.reference_work` (about half a
millisecond), so it takes about 1% of its CPU.  The mean of its timings
over an interval, divided by ``measure.REFERENCE_WORK_S``, says how much
slower than its fast state that CPU ran during the interval.

Run as a script it is one sampler::

    python3 cpuspeed.py CPU

It prints ``ready``, samples until a line or end of file arrives on its
standard input, and then prints its samples as one JSON list of ``[end, seconds]`` pairs, ``end``
being a ``time.perf_counter`` reading (the system-wide monotonic clock).
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from typing import Iterable, List, Tuple

from measure import reference_work

PERIOD_S = 0.05
#: How long a sampler may take to hand over its samples once told to stop.
TIMEOUT_S = 30.0

Sample = Tuple[float, float]


def sample(cpu: int) -> List[Sample]:
    """Time the reference task every PERIOD_S on ``cpu`` until stdin has
    input or ends."""
    os.sched_setaffinity(0, {cpu})
    print("ready", flush=True)
    samples: List[Sample] = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        began = time.perf_counter()
        reference_work()
        ended = time.perf_counter()
        samples.append((ended, ended - began))
    return samples


class Samplers:
    """One sampler process per CPU in ``cpus``, from construction to
    :meth:`stop`; used as a context manager, every sampler has ended when
    the block is left, whichever way."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.processes: List[subprocess.Popen] = []
        try:
            for cpu in sorted(cpus):
                process = subprocess.Popen(
                    [sys.executable, __file__, str(cpu)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
                self.processes.append(process)
                if process.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"the speed sampler for CPU {cpu} did not start")
        except BaseException:
            self.kill()
            raise

    def stop(self) -> List[Sample]:
        """End every sampler and return all their samples."""
        samples: List[Sample] = []
        try:
            for process in self.processes:
                # A line, not end of file: forked pool workers hold copies
                # of the pipe, so closing it would not end the sampler.
                out, _ = process.communicate("stop\n", timeout=TIMEOUT_S)
                if process.returncode != 0:
                    raise RuntimeError(f"a speed sampler exited with {process.returncode}")
                samples.extend((end, seconds) for end, seconds in json.loads(out))
        finally:
            self.kill()
        return samples

    def kill(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.kill()
            process.wait()
            for stream in (process.stdin, process.stdout):
                if stream is not None:
                    stream.close()

    def __enter__(self) -> "Samplers":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.kill()


if __name__ == "__main__":
    json.dump(sample(int(sys.argv[1])), sys.stdout)
