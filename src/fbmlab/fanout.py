"""Fork-and-pipe fan-out of the replication engine's chunks.

Only a command that runs chunks on more than one core imports this module.
Each worker is an os.fork of the command's process, so it inherits the
engine's state and only its results cross back, pickled through one pipe
per worker.  The parent reads every pipe and reaps every worker on every
path, so no worker outlives a call, and a worker that dies without
writing its results (killed, say) is a CapabilityError, not a hang.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import CapabilityError


def _serve(worker, jobs, fd: int):
    """In a forked worker: run worker over jobs, write (True, results) or
    (False, the exception) pickled to fd, and exit without returning."""
    code = 1
    try:
        try:
            reply = True, [worker(job) for job in jobs]
        except Exception as exc:
            reply = False, exc
        with open(fd, "wb") as out:
            pickle.dump(reply, out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)  # no atexit handler or buffered output of the parent runs twice


def fork_map(worker, jobs, size: int) -> list:
    """[worker(job) for job in jobs], run by size forked workers: worker k
    runs jobs k, k + size, ....  Re-raises the first failing worker's
    exception; a worker that exits without its results raises CapabilityError."""
    pids, pipes = [], []
    try:
        for k in range(size):
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(worker, jobs[k::size], write)
            finally:
                os.close(write)  # the parent's copy: EOF once the worker exits
            pids.append(pid)
        replies = []
        for fd in pipes:
            with open(fd, "rb", closefd=False) as pipe:
                replies.append(pipe.read())
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in pipes:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    results = [None] * len(jobs)
    for k, (reply, code) in enumerate(zip(replies, codes)):
        if code or not reply:
            raise CapabilityError(f"worker {k} of {size} exited with code {code} "
                                  "before writing its results")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        results[k::size] = value
    return results
