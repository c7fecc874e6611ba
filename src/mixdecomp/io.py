"""File formats: kernels, partitions, trajectory dumps, JSON and CSV reports.

Kernel format: first non-comment line is the state count n, followed either
by n dense rows of n probabilities or by sparse `i j p` triples (0-indexed)
whose missing row mass is assigned to the diagonal.  n rows of n numbers
are dense, and each must sum to 1 within ``Tolerances.row_sum``; with n = 3
they may also be triples, which are tried when a row sum is off.  Comment
lines start with '#'; lines of the form `# label: NAME` attach state labels
in order.

Trajectory dump (binary): a 16-byte header (magic ``MXDT``, u32 version,
u32 state count, u32 T), then ``T + 1`` little-endian u32 state indices.

JSON reports are strict JSON: non-finite numbers are written as the strings
``"inf"``, ``"-inf"`` and ``"nan"``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLERANCES, MAX_DENSE_STATES
from .decomposition import Partition
from .errors import StateSpaceTooLarge
from .kernel import StochasticKernel


def _fields(path: str | Path, lineno: int, line: str, types: tuple) -> list:
    """The leading fields of a data line read by ``types``, naming file and line if they fail."""
    parts = line.split()
    try:
        if len(parts) < len(types):
            raise ValueError(f"expected {len(types)} fields")
        return [read(v) for read, v in zip(types, parts)]
    except ValueError as exc:
        raise ValueError(f"{path}, line {lineno}: {exc} in {line!r}") from None


def load_kernel(path: str | Path) -> StochasticKernel:
    labels: list[str] = []
    data_lines: list[tuple[int, str]] = []  # (1-based line number, text)
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("label:"):
                labels.append(body.split(":", 1)[1].strip())
            continue
        data_lines.append((lineno, line))
    if not data_lines:
        raise ValueError(f"{path}: no data lines")
    (n,) = _fields(path, *data_lines[0], (int,))
    if n > MAX_DENSE_STATES:
        raise StateSpaceTooLarge(f"{path}: {n} states exceed the dense cap of {MAX_DENSE_STATES}")
    rows = data_lines[1:]
    if len(rows) == n and all(len(r.split()) == n for _, r in rows):
        mat = np.array([_fields(path, k, r, (float,) * n) for k, r in rows])
        off = np.flatnonzero(np.abs(mat.sum(axis=1) - 1.0) > DEFAULT_TOLERANCES.row_sum)
        if off.size:
            k, _ = rows[off[0]]
            total = mat[off[0]].sum()
            bad_sum = ValueError(f"{path}, line {k}: dense row sums to {total:.10g}, not 1")
            if n != 3:
                raise bad_sum
            # three rows of three fields may also be three 'i j p' triples
            try:
                mat = _sparse_rows(path, n, rows)
            except ValueError:
                raise bad_sum from None
    else:
        mat = _sparse_rows(path, n, rows)
    return StochasticKernel(mat, tuple(labels) if len(labels) == n else None)


def _sparse_rows(path: str | Path, n: int, rows: list[tuple[int, str]]) -> np.ndarray:
    """The matrix of ``i j p`` triples, each row's missing mass on its diagonal."""
    mat = np.zeros((n, n))
    for k, r in rows:
        if len(r.split()) != 3:
            raise ValueError(f"{path}, line {k}: expected 'i j p' triple, got {r!r}")
        i, j, p = _fields(path, k, r, (int, int, float))
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{path}, line {k}: state index outside 0..{n - 1} in {r!r}")
        mat[i, j] += p
    np.fill_diagonal(mat, np.diag(mat) + 1.0 - mat.sum(axis=1))
    return mat


def save_kernel(kernel: StochasticKernel, path: str | Path) -> None:
    lines = []
    if kernel.labels:
        lines.extend(f"# label: {s}" for s in kernel.labels)
    lines.append(str(kernel.n_states))
    for row in kernel.rows:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def load_partition(path: str | Path, n_states: int | None = None) -> Partition:
    pairs = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pairs.append((lineno, *_fields(path, lineno, line, (int, int))))
    if not pairs:
        raise ValueError(f"{path}: empty partition file")
    size = n_states if n_states is not None else max(s for _, s, _ in pairs) + 1
    block_of = np.full(size, -1, dtype=int)
    for k, s, b in pairs:
        if not (0 <= s < size and b >= 0):
            raise ValueError(
                f"{path}, line {k}: bad pair '{s} {b}' (states 0..{size - 1}, blocks >= 0)"
            )
        block_of[s] = b
    if (block_of < 0).any():
        missing = np.nonzero(block_of < 0)[0]
        raise ValueError(f"{path}: states without a block: {missing[:8].tolist()}")
    return Partition.from_block_of(block_of)


def save_partition(partition: Partition, path: str | Path) -> None:
    lines = [f"{s} {b}" for s, b in enumerate(partition.block_of)]
    _atomic_write(path, "\n".join(lines) + "\n")


def _atomic_write(path: str | Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode())


def _atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(_plain(payload), indent=2, allow_nan=False) + "\n")


def _plain(obj):
    """JSON-ready copy: numpy values to Python ones, tuples to lists, non-finite floats to strings."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


TRAJ_MAGIC = b"MXDT"


def dump_trajectory(path: str | Path, trajectory: np.ndarray, n_states: int) -> None:
    traj = np.asarray(trajectory, dtype="<u4")
    header = struct.pack("<4sIII", TRAJ_MAGIC, 1, n_states, traj.size - 1)
    _atomic_write_bytes(path, header + traj.tobytes())


def load_trajectory(path: str | Path) -> tuple[np.ndarray, int]:
    raw = Path(path).read_bytes()
    magic, version, n_states, T = struct.unpack("<4sIII", raw[:16])
    if magic != TRAJ_MAGIC or version != 1:
        raise ValueError(f"{path}: not a trajectory dump")
    traj = np.frombuffer(raw[16:], dtype="<u4")
    if traj.size != T + 1:
        raise ValueError(f"{path}: truncated trajectory")
    return traj.astype(np.int64), n_states
