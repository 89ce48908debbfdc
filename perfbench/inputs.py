"""Seeded inputs for the benchmark workloads.

Every input is a clean piecewise-constant signal or image plus Gaussian noise.
The layout is fixed; the noise is drawn from ``(seed, index)``, so one seed
always gives the same files and each request of a run gets its own draw.
The program under test only ever sees the files written here.
"""

from __future__ import annotations

import os

import numpy as np

NOISE_SIGMA = 0.1
MAXVAL = 255
_STEP_LEVELS = np.array([0.2, 0.8, 0.4, 1.0, 0.1, 0.6, 0.3, 0.9])


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def noisy_steps(seed: int, index: int, n: int):
    """(clean, noisy) 1D signal of ``n`` samples: eight equal-width steps."""
    clean = np.repeat(_STEP_LEVELS, -(-n // _STEP_LEVELS.size))[:n]
    return clean, clean + _rng(seed, index).normal(0.0, NOISE_SIGMA, n)


def noisy_blocks(seed: int, index: int, n: int):
    """(clean, noisy) n x n image of rectangular blocks at two levels, the
    noisy one quantized to ``MAXVAL`` levels as a PGM reader returns it."""
    y, x = (np.mgrid[0:n, 0:n] + 0.5) / n
    clean = 0.5 + 0.3 * np.sign(np.sin(7.0 * y) * np.sin(5.0 * x))
    noisy = clean + _rng(seed, index).normal(0.0, NOISE_SIGMA, (n, n))
    pixels = np.clip(np.rint(noisy * MAXVAL), 0, MAXVAL).astype(np.int64)
    return clean, pixels


def write_csv(path: str, values) -> int:
    """One value per line at full precision; returns the bytes written."""
    text = "".join(format(float(v), ".17g") + "\n" for v in values)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return os.path.getsize(path)


def write_pgm(path: str, pixels: np.ndarray, raw: bool) -> int:
    """P5 (raw) or P2 (ASCII) PGM with maxval ``MAXVAL``; returns the bytes
    written."""
    rows, cols = pixels.shape
    header = f"{'P5' if raw else 'P2'}\n{cols} {rows}\n{MAXVAL}\n".encode("ascii")
    if raw:
        body = pixels.astype(np.uint8).tobytes()
    else:
        body = "".join(" ".join(map(str, row)) + "\n"
                       for row in pixels.tolist()).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + body)
    return os.path.getsize(path)
