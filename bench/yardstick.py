"""Machine-speed yardstick for the kane benchmark.

On a shared host the speed of one core changes while a run goes on: other
tenants' load can slow the same instructions by 40-60%, switching between a
fast and a slow state every few tens of milliseconds, in a mix that drifts
over minutes. CPU time already leaves out the time the process waits for a
core; it does not leave out this slowdown.

A ``Yardstick`` runs a fixed unit of work, interleaved with the program so
that both meet the same mix of states, and reports how fast the unit ran:
``factor`` is the unit's nominal CPU time over its measured CPU time, 1.0 at
the nominal speed and below 1.0 on a slow core. The benchmark multiplies the
program's CPU time by this factor, giving its time at the nominal speed.

The unit resembles the program's own work: a reverse-mode tape of small
NumPy ops recorded and swept by Python code, distances from one row to a
500 x 64 matrix, and a 512 x 64 by 64 x 64 product. It is frozen: it depends
on NumPy alone, never on ``kane``, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# About the CPU time of one unit in the fast state of the machine the
# benchmark was built on (x86-64 Xeon, NumPy 2.4.6, one BLAS thread). Only
# ratios between runs matter; the constant keeps normalised times near real ones.
NOMINAL_UNIT_NS = 3_000_000
# Share of the program's CPU time that ``Yardstick.tick`` spends on units.
SHARE = 0.1


class _Var:
    __slots__ = ("value", "grad", "back")

    def __init__(self, value: np.ndarray) -> None:
        self.value = value
        self.grad = None
        self.back = None


def _accum(t: _Var, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g)
    else:
        t.grad += g


def _op(tape: list, value: np.ndarray, back) -> _Var:
    out = _Var(value)
    out.back = back
    tape.append(out)
    return out


class _Unit:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.weights = [_Var(rng.standard_normal((64, 64)) * 0.1) for _ in range(3)]
        self.x = rng.standard_normal((4, 64))
        self.table = rng.standard_normal((500, 64))
        self.big = rng.standard_normal((512, 64))
        self.square = rng.standard_normal((64, 64)) * 0.1

    def tape_pass(self) -> float:
        tape: list[_Var] = []
        h = _Var(self.x)
        for w in self.weights * 3:
            a, b = h, w
            m = _op(tape, a.value @ b.value, lambda g, a=a, b=b: (_accum(a, g @ b.value.T), _accum(b, a.value.T @ g)))
            s = _op(tape, m.value + a.value, lambda g, m=m, a=a: (_accum(m, g), _accum(a, g)))
            y = np.tanh(s.value)
            h = _op(tape, y, lambda g, s=s, y=y: _accum(s, g * (1.0 - y * y)))
        root = _op(tape, h.value.sum(), lambda g, h=h: _accum(h, np.broadcast_to(g, h.value.shape)))
        root.grad = np.ones(())
        for out in reversed(tape):
            if out.grad is not None:
                out.back(out.grad)
        total = sum(float(w.grad.sum()) for w in self.weights)
        for w in self.weights:
            w.grad = None
        return total

    def ranks(self) -> int:
        better = 0
        for i in range(2):
            dist = np.abs(self.table[i] + self.table[i + 8] - self.table).sum(axis=1)
            better += int((dist < dist[i + 16]).sum())
        return better

    def dense(self) -> float:
        y = np.tanh(self.big @ self.square)
        return float((self.big.T @ ((1.0 - y * y) * y)).sum())

    def __call__(self) -> None:
        for _ in range(8):
            self.tape_pass()
        self.ranks()
        self.dense()


class Yardstick:
    """Interleaves yardstick units with the program at a fixed CPU share.

    ``tick`` runs whole units until they have taken ``SHARE`` of the CPU
    time the program has used since the yardstick was made; calling it
    between short pieces of program work spreads the units evenly over the
    run. ``run`` adds a fixed number of units. The cyclic garbage collector
    is paused during units; they free everything they allocate, so they
    leave the program's collection schedule as it was.
    """

    def __init__(self) -> None:
        self.unit = _Unit()
        self.unit()  # warm-up, not counted
        self.units = 0
        self.unit_ns = 0
        self.started_ns = time.process_time_ns()

    def program_ns(self) -> int:
        """CPU time of this process since the yardstick was made, units excluded."""
        return time.process_time_ns() - self.started_ns - self.unit_ns

    def tick(self) -> None:
        due = SHARE * self.program_ns()
        while self.unit_ns < due:
            self.run(1)

    def run(self, units: int) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(units):
                t = time.process_time_ns()
                self.unit()
                self.unit_ns += time.process_time_ns() - t
                self.units += 1
        finally:
            if enabled:
                gc.enable()

    @property
    def factor(self) -> float:
        """Nominal over measured CPU time per unit (1.0: nominal speed)."""
        return NOMINAL_UNIT_NS * self.units / self.unit_ns

    def record(self) -> dict:
        return {"units": self.units, "unit_ms": self.unit_ns / self.units / 1e6, "factor": self.factor}
