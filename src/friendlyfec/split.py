"""Helper processes that decode the later parts of a split `bp.Receiver.decode`.

`bp` imports this module only when a decode reaches `bp.SPLIT_LANES` lanes
inside `Receiver.split_decodes`, so a process that never splits a decode
never loads it.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import os
import signal
import threading

import numpy as np

from . import bp


def helper_count() -> int:
    """The helper processes a split decode may use: one per CPU that this process may
    run on besides its own, and none where it may not fork them safely: without `fork`,
    in a daemon process, which may not have children, or beside other threads, whose
    locks a forked process could inherit held."""
    if (not hasattr(os, "sched_getaffinity") or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 0
    return len(os.sched_getaffinity(0)) - 1


class Helpers:
    """Processes forked to decode the parts of a split `Receiver.decode` after the first.

    They share two arrays with the process that forked them, made in one
    anonymous mapping before the fork: `llr`, (lanes, n), holds the later
    parts' LLRs one after the other, and a gradient decode overwrites each
    part's LLRs with its d(loss)/d(LLR); `bits`, (lanes, k), holds the
    message bits. A pipe per helper carries the lane range and kind of its
    part, and the answer: None, or the exception that its decode raised.
    """

    def __init__(self, receiver: bp.Receiver, count: int, lanes: int):
        n, k = receiver.code.n, receiver.code.k
        self._map = mmap.mmap(-1, lanes * (8 * n + k))
        self.llr = np.ndarray((lanes, n), np.float64, buffer=self._map)
        self.bits = np.ndarray((lanes, k), np.uint8, buffer=self._map, offset=8 * lanes * n)
        self.pipes, self.procs = [], []
        fork = multiprocessing.get_context("fork")
        for _ in range(count):
            pipe, theirs = fork.Pipe()
            self.pipes.append(pipe)
            proc = fork.Process(target=_serve, args=(receiver, self, theirs), daemon=True)
            self.procs.append(proc)
            proc.start()
            theirs.close()

    def send(self, L, bounds, early_stop: bool, gradient: bool) -> None:
        """Start the parts of L from bounds[1] on, part i + 1 on helper i."""
        base = bounds[1]
        self.llr[:len(L) - base] = L[base:]
        for pipe, lo, hi in zip(self.pipes, bounds[1:], bounds[2:]):
            pipe.send((lo - base, hi - base, early_stop, gradient))

    def answers(self, count: int) -> list:
        """The answers of the first `count` helpers, each None or the exception raised."""
        answers = []
        for pipe in self.pipes[:count]:
            try:
                answers.append(pipe.recv())
            except (EOFError, OSError):
                answers.append(RuntimeError("a decode helper process exited"))
        return answers

    def stop(self) -> None:
        """Tell every helper to exit, and join them."""
        for pipe in self.pipes:
            with contextlib.suppress(OSError):
                pipe.send(None)
            pipe.close()
        for proc in self.procs:
            proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()


def _serve(receiver: bp.Receiver, helpers: Helpers, pipe) -> None:
    """A helper's loop: decode each part the pipe sends, until None or the pipe closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the forking process's to handle
    for inherited in helpers.pipes:  # so that each pipe closes when the forking process closes it
        inherited.close()
    with contextlib.suppress(EOFError, OSError):  # the forking process closed the pipe
        while (job := pipe.recv()) is not None:
            lo, hi, early_stop, gradient = job
            try:
                llr = helpers.llr[lo:hi]  # a gradient decode writes its gradient over its LLRs
                receiver._decode_part(llr, early_stop, receiver.target if gradient else None,
                                      llr if gradient else None, helpers.bits[lo:hi])
            except Exception as exc:  # the caller raises it
                pipe.send(exc)
            else:
                pipe.send(None)
