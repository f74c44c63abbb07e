"""Time grids, classic RK4, and time-stamped state sequences on disk.

Every flow in the package is sampled on :func:`time_grid`.
:func:`rk4_commutator_trajectory` gives the classic fourth-order
Runge-Kutta samples of a commutator flow with constant H (heisenberg,
lvn) on the whole grid, in closed form in H's eigenbasis; it matches a
step-by-step loop within 1e-12 on unit-norm inputs rather than byte for
byte; :func:`exact_commutator_flow` is the exact flow from the same
eigenbasis.  sb2c writes its RK4 step out on the float pair (y, r) in
``sb2c.integrate_reduced``.

A :class:`Trajectory` stores either a stack of complex matrices
(shape ``(N, n, n)``) or a stack of named real coordinate vectors
(shape ``(N, k)``).  Serialization flattens complex matrices
column-major into ``<name>_re_<row>_<col>`` / ``<name>_im_<row>_<col>``
columns; real coordinate stacks use their explicit column names.

Every float is written as its shortest round-trip ``repr``, so repeated
runs produce byte-identical files.  :func:`write_csv` writes one line per
row, each float through ``%r`` (``nan``, ``inf`` and ``-inf`` included);
:func:`write_json` writes the bytes of ``json.dump(doc, sort_keys=True)``
and a newline, one line with ``NaN``, ``Infinity`` and ``-Infinity``.
Both stream a block of rows or a column at a time to the file.

A table of at least ``PARALLEL_MIN_FLOATS`` floats (``t`` included) is
written by two processes when ``os.fork`` exists, a second CPU is usable
and SIGCHLD is not ignored (so the child's exit status can be
collected): :func:`splits`.  One routine forks the child, which renders
into an anonymous temporary file beside the output, and then appends
its bytes.  For a finished table in two or more pieces the child
renders the second half of the pieces, which it inherits at the fork,
while the caller renders the first half into the output.  For a table
whose rows are still being computed, :func:`stream_csv` (sb2c's CSV in
the CLI) passes the child each block of rows through a pipe, so the
rows are rendered while the caller's loop runs.  The bytes are the same
either way.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import math
import os
import shutil
import struct
import tempfile
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .operator_core import dagger

logger = logging.getLogger(__name__)


#: A remainder below this fraction of a step snaps onto the last grid point.
GRID_SNAP = 1e-9


def time_grid(t_final: float, step: float) -> np.ndarray:
    """Sample times ``t_k = k*step`` whose last entry is exactly ``t_final``.

    All gaps equal ``step`` except the last, which is a shorter remainder
    when ``step`` does not divide ``t_final``.  A remainder below
    ``GRID_SNAP * step`` moves the last full-step point onto ``t_final``
    instead of adding a sliver row, so there are
    ``ceil(t_final/step - GRID_SNAP) + 1`` samples; a positive
    ``t_final`` below ``GRID_SNAP * step`` still gets its one step.

    Raises
    ------
    ValueError
        Unless ``step`` is finite and positive, ``t_final`` is finite
        and non-negative, the step count ``t_final/step`` is finite and
        the grid fits in memory.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    if not math.isfinite(t_final / step):
        raise ValueError(f"t_final/step overflows: {t_final}/{step}")
    n_steps = max(math.ceil(t_final / step - GRID_SNAP), int(t_final > 0))
    try:
        times = np.arange(n_steps + 1) * step
    except MemoryError as exc:
        raise ValueError(f"a grid of {n_steps + 1} samples does not fit in memory") from exc
    times[-1] = t_final
    return times


def format_float(x) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


@dataclass
class Trajectory:
    """Sampled states of one integration run.

    times : (N,) array of sample times.
    states : (N, n, n) complex matrices or (N, k) real vectors.
    name : column prefix for matrix states.
    column_names : names (strings) of the k coordinates when states are vectors.
    meta : free-form metadata, such as sb2c's singularity record.
    """

    times: np.ndarray
    states: np.ndarray
    name: str = "A"
    column_names: tuple | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states)
        if len(self.times) != len(self.states):
            raise ValueError("times and states lengths differ")
        names = self.column_names
        if not all(isinstance(c, str) for c in names or ()):
            raise TypeError("column names must be strings")
        if names is not None and self.states.shape[1:] != (len(names),):
            raise ValueError(f"{len(names)} column names for states of shape {self.states.shape}")

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def headers(self) -> list[str]:
        """Column headers, excluding the leading time column."""
        if self.states.ndim == 3:
            n = self.states.shape[1]
            cols = []
            for j in range(n):  # column-major flattening
                for i in range(n):
                    cols.append(f"{self.name}_re_{i}_{j}")
                    cols.append(f"{self.name}_im_{i}_{j}")
            return cols
        if self.column_names is None:
            return [f"{self.name}_{k}" for k in range(self.states.shape[1])]
        return list(self.column_names)

    def table(self) -> np.ndarray:
        """(N, columns) float array of the states in header order."""
        if self.states.ndim == 3:  # column-major, each entry as (re, im)
            stack = np.ascontiguousarray(self.states.swapaxes(1, 2), dtype=complex)
            return stack.view(float).reshape(len(stack), 2 * stack.shape[1] ** 2)
        return self.states.astype(float)


def _eigenbasis(y0: np.ndarray, h: np.ndarray):
    """``w, V, V^dag, V^dag y0 V`` with ``h = V diag(w) V^dag`` from one ``eigh``."""
    w, v = np.linalg.eigh(h)
    v_dag = dagger(v)
    return w, v, v_dag, v_dag @ y0 @ v


def exact_commutator_flow(y0: np.ndarray, h: np.ndarray, sign: int, t) -> np.ndarray:
    """Exact ``dy/dt = sign * i [y, h]`` at the time or times ``t``, shape
    ``np.shape(t) + y0.shape``, inputs as for rk4_commutator_trajectory: entry (i, j) of
    ``V^dag y0 V`` turns by ``exp(-sign i t w_i) exp(sign i t w_j)``, one phase ``t * w``
    per eigenvalue, so the flow is finite wherever ``exp(-i t h)`` is.  ValueError unless
    each time and each phase is finite, naming the first time whose phase is not."""
    if not np.all(np.isfinite(t)):
        raise ValueError(f"t must be finite, got {t}")
    w, v, v_dag, y0_eig = _eigenbasis(y0, h)
    with np.errstate(over="ignore"):
        phases = np.multiply.outer(t, w)
    finite = np.isfinite(phases).all(axis=-1)
    if not finite.all():
        first = np.ravel(t)[np.argmin(finite)]
        raise ValueError(f"t times an eigenvalue of h must be finite, got t={first}")
    left = np.exp(-sign * 1j * phases)
    return v @ (left[..., :, np.newaxis] * y0_eig * left.conj()[..., np.newaxis, :]) @ v_dag


def rk4_commutator_trajectory(y0: np.ndarray, h: np.ndarray, sign: int,
                              t_final: float, step: float, name: str) -> Trajectory:
    """RK4 samples of ``dy/dt = sign * i [y, h]`` on ``time_grid(t_final, step)``.

    ``y0`` and ``h`` must be validated complex ``(n, n)`` matrices, ``h``
    Hermitian.  Every step has size ``step`` except the last, which ends
    at ``t_final``.  In the eigenbasis ``h = V diag(w) V^dag`` the field
    is diagonal: entry (i, j) of ``V^dag y V`` grows at rate
    ``sign * i * (w_j - w_i)`` times itself, so one classic RK4 step of
    size dt multiplies it by the method's stability function
    ``p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` at
    ``z = sign * i * dt * (w_j - w_i)``.  The samples are the running
    product of those factors times ``V^dag y0 V``, rotated back: the step
    loop's values up to rounding, from one ``eigh``.  The first row is
    ``y0`` itself.
    """
    times = time_grid(t_final, step)
    w, v, v_dag, y0_eig = _eigenbasis(y0, h)
    # an entry that is exactly zero stays zero, as in the step loop, even
    # where a step beyond RK4's stability bound overflows the running product
    scale = np.where(y0_eig == 0, 0, sign * 1j * (w - w[:, None]))

    def p(dt):
        z = dt * scale
        return 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))

    states = np.empty((len(times), *h.shape), dtype=complex)
    states[0] = 1
    if len(times) > 2:  # a grid of one short step never uses p(step), which may overflow
        states[1:-1] = p(step)
    if len(times) > 1:
        states[-1] = p(times[-1] - times[-2])
    np.cumprod(states, axis=0, out=states)
    states *= y0_eig
    np.matmul(v, states @ v_dag, out=states)
    states[0] = y0
    return Trajectory(times, states, name=name)


#: Rows per ``%`` format of write_csv, so a block's text stays under a few hundred KiB.
CSV_BLOCK_ROWS = 256

#: A table of at least this many floats, ``t`` included, is rendered in
#: two halves at once when a second CPU is usable.  In a warm process on a
#: 2-CPU host, split minus serial write_csv time, median of 40 alternating
#: pairs (split ahead in): 9,009 floats -0.3 to +0.6 ms (15-21 of 40), 12,004
#: -0.9 to -1.2 ms (27), 16,384 -2.1 to -2.6 ms (30-31), 20,004 -3.4 to
#: -4.7 ms (34-37) and 32,772 -6 to -13 ms (38-39), over two runs.
PARALLEL_MIN_FLOATS = 2 ** 14


def _can_split() -> bool:
    """Whether ``os.fork`` exists, a second CPU is usable and a child's exit
    status can be collected: the kernel reaps the children of a process
    that ignores SIGCHLD, and ``os.waitpid`` then fails."""
    import signal  # only a table large enough to split loads it

    if not hasattr(os, "fork") or signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def splits(n_floats: int) -> bool:
    """Whether a table of ``n_floats`` floats, ``t`` included, is rendered
    by two processes: it has at least ``PARALLEL_MIN_FLOATS`` and
    :func:`_can_split` holds."""
    return n_floats >= PARALLEL_MIN_FLOATS and _can_split()


@contextlib.contextmanager
def _render_in_a_child(fh, render):
    """Append to ``fh`` the text a forked child renders while this process
    goes on.  The child writes what ``render(pipe)`` yields into an
    anonymous temporary file beside the output: text from what it
    inherited at the fork, then from the bytes this process writes to the
    yielded unbuffered pipe end, which ``pipe`` reads until that end is
    closed (on leaving the block at the latest).  On leaving, this process
    reaps the child and, if both succeeded, appends its bytes.  The child
    leaves only through ``os._exit``, so it never returns into the caller
    or flushes a buffer it inherited (``fh``, stdout, stderr)."""
    with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(fh.name))) as tmp:
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as pipe, open(write_end, "wb", buffering=0) as sink:
            with warnings.catch_warnings():
                # Python 3.12+ warns that a fork from a multi-threaded process
                # (numpy's BLAS pool) may deadlock in the child.  The child
                # takes no lock another thread could hold: it formats
                # floats, reads a pipe, writes one file and calls os._exit.
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded, "
                                        r"use of fork\(\)", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    sink.close()  # else the pipe would never end
                    for text in render(pipe):
                        tmp.write(text.encode(fh.encoding))
                    tmp.flush()
                    status = 0
                finally:
                    os._exit(status)
            pipe.close()  # a child that fails then breaks the pipe, not blocks it
            try:
                yield sink
            finally:
                sink.close()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status:
            raise OSError(f"the second process writing the table exited with status {status}")
        fh.flush()
        tmp.seek(0)
        shutil.copyfileobj(tmp, fh.buffer)


def _log_write(fmt: str, path, shape: tuple, mode: str, start: float) -> None:
    logger.debug("wrote %s %s: %d x %d, %d floats, %s, %.4f s", fmt, path, *shape,
                 shape[0] * shape[1], mode, time.perf_counter() - start)


def _write_table(path, fmt: str, head: str, pieces: list, shape: tuple) -> None:
    """Write ``head`` and then each piece's text (``pieces`` are callables) to ``path``.

    ``shape`` is (rows, columns) of the table, ``t`` included; a table in
    two or more pieces that :func:`splits` is written by two processes,
    the second half of the pieces rendered by the child.  The bytes are
    the same either way.
    """
    start = time.perf_counter()
    split = len(pieces) > 1 and splits(shape[0] * shape[1])
    half = len(pieces) // 2 if split else len(pieces)
    with open(path, "w") as fh:
        fh.write(head)
        with (_render_in_a_child(fh, lambda pipe: (piece() for piece in pieces[half:]))
              if split else contextlib.nullcontext()):
            for piece in pieces[:half]:
                fh.write(piece())
    _log_write(fmt, path, shape, "split" if split else "serial", start)


def _csv_header(headers) -> str:
    return ",".join(["t", *headers]) + "\n"


def _csv_block(rows: np.ndarray) -> str:
    """CSV lines of a block of rows, one ``%r`` (a float's ``repr``) per float."""
    line = ",".join(["%r"] * rows.shape[1]) + "\n"
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def write_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with a leading ``t`` column, a block of
    ``CSV_BLOCK_ROWS`` rows per ``%`` format."""
    rows = np.column_stack([traj.times, traj.table()])
    pieces = [functools.partial(_csv_block, rows[start:start + CSV_BLOCK_ROWS])
              for start in range(0, len(rows), CSV_BLOCK_ROWS)]
    _write_table(path, "csv", _csv_header(traj.headers()), pieces, rows.shape)


@contextlib.contextmanager
def stream_csv(path, times, headers):
    """Write to ``path`` the CSV of a table whose ``times`` are known before
    its rows, which the caller computes while the file is open.

    Yields a function taking each next block of rows as flat floats in
    ``headers`` order (``t`` left out): ``CSV_BLOCK_ROWS`` rows, and last
    fewer or none.  A forked child renders the blocks as they come, so on
    leaving the file holds what :func:`write_csv` writes for the rows
    sent.  Open one only where :func:`splits` holds; a child that fails
    raises OSError on leaving.
    """
    start = time.perf_counter()
    width = len(headers)
    rows = 0

    def render(pipe):  # in the child, CSV_BLOCK_ROWS rows per % format
        done = 0
        while data := pipe.read(8 * width * CSV_BLOCK_ROWS):
            block = np.frombuffer(data).reshape(-1, width)
            yield _csv_block(np.column_stack([times[done:done + len(block)], block]))
            done += len(block)

    def send(values):
        nonlocal rows
        rows += len(values) // width
        data = memoryview(struct.pack(f"{len(values)}d", *values))
        # a child that has failed breaks the pipe; its exit status reports it
        with contextlib.suppress(BrokenPipeError):
            while data:
                data = data[sink.write(data):]
        if len(values) < width * CSV_BLOCK_ROWS:
            sink.close()

    with open(path, "w") as fh:
        fh.write(_csv_header(headers))
        with _render_in_a_child(fh, render) as sink:
            yield send
    _log_write("csv", path, (rows, width + 1), "streamed", start)


def _json_member(name: str, values: np.ndarray, lead: str, tail: str = "") -> str:
    """``lead``, then ``"name": [values]`` as ``json.dumps`` writes them, then ``tail``."""
    return f"{lead}{json.dumps(name)}: {json.dumps(values.tolist())}{tail}"


def write_json(traj: Trajectory, path) -> None:
    """Write a trajectory as JSON: time list plus per-column value lists.

    The bytes are those of ``json.dump({"t": ..., "columns": {header:
    column}}, fh, sort_keys=True)`` and a newline, one line in json's
    default layout, written one column at a time; a repeated header keeps
    its last column.
    """
    table = traj.table()
    columns = dict(zip(traj.headers(), range(table.shape[1])))
    pieces = [functools.partial(_json_member, name, table[:, columns[name]], ", " if k else "")
              for k, name in enumerate(sorted(columns))]
    pieces.append(functools.partial(_json_member, "t", traj.times, "}, ", "}\n"))
    _write_table(path, "json", '{"columns": {', pieces, (len(table), len(columns) + 1))
