"""Fork-and-pipe fan-out of the replication engine's ranges.

Only a command that runs replications on more than one core imports this
module.  Each worker is an os.fork of the command's process, so it inherits
the engine's state and only its results cross back, pickled through one
pipe per worker.  The parent reads every pipe and reaps every worker on
every path, so no worker outlives a call; a worker that cannot be started
(a pids or open-files limit) or that dies without writing its results
(killed, say) is a CapabilityError, not a traceback or a hang.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import CapabilityError


def _serve(worker, job, fd: int):
    """In a forked worker: write (True, worker(job)) or (False, the exception)
    pickled to fd, and exit without returning."""
    code = 1
    try:
        try:
            reply = True, worker(job)
        except Exception as exc:
            reply = False, exc
        with open(fd, "wb") as out:
            pickle.dump(reply, out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)  # no atexit handler or buffered output of the parent runs twice


def fork_map(worker, jobs) -> list:
    """[worker(job) for job in jobs], each job run by its own forked worker.
    Re-raises the first failing worker's exception; a worker that cannot be
    started, or that exits without its results, raises CapabilityError."""
    pids, pipes = [], []
    try:
        for job in jobs:
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(worker, job, write)
            finally:
                os.close(write)  # the parent's copy: EOF once the worker exits
            pids.append(pid)
        replies = []
        for fd in pipes:
            with open(fd, "rb", closefd=False) as pipe:
                replies.append(pipe.read())
    except BaseException as exc:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        if isinstance(exc, OSError) and len(pids) < len(jobs):  # os.pipe or os.fork refused
            raise CapabilityError(f"could not start worker {len(pids) + 1} of {len(jobs)}: "
                                  f"{exc}") from exc
        raise
    finally:
        for fd in pipes:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    results = []
    for k, (reply, code) in enumerate(zip(replies, codes)):
        if code or not reply:
            raise CapabilityError(f"worker {k} of {len(jobs)} exited with code {code} "
                                  "before writing its results")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        results.append(value)
    return results
