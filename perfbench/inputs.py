"""Seeded inputs of the three workloads, written as files the CLI reads.

Every input is a pure function of the run seed: ``numpy.random.default_rng``
draws the per-input generator seeds and hole positions, and the grids come
from the program's own seeded generators.  ``build`` returns the workload as a
list of rounds; a round is the fixed group of ops the closed loop always runs
whole, so the share of failed ops is the same in every run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from logcvx import generators, io as lio
from logcvx.core import EXP, LOG, SequenceGrid, order_array, outer_shell_mask
from logcvx.matrices import WeightMatrix

ROUNDS = 8                 # distinct rounds per run; the loop cycles through them
HOLE_SHARE = 0.08          # share of interior entries set to +inf (minorant)
MINORANT_ROUND = ("2d", "2d", "2d", "3d")
MINORANT_BOX = {"2d": (10, 10), "3d": (4, 4, 4)}
CHECK_ROUND = ("convex", "notjoint", "convex", "linebreak")
CHECK_BOX = (6, 6)
S_POINTS = 600
RELATION_BOX = (12, 12)
LEVELS = (1.0, 2.0, 3.0)


@dataclass(frozen=True)
class Op:
    """One CLI command; ``key`` names its input, ``files`` are the input paths."""

    key: str
    family: str
    argv: tuple[str, ...]
    files: tuple[str, ...]


def _write(path: Path, text: str) -> str:
    path.write_text(text + "\n", encoding="utf-8")
    return str(path)


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def holed_grid(box: tuple[int, ...], seed: int, rng: np.random.Generator) -> SequenceGrid:
    """random_grid on the LOG scale with HOLE_SHARE of the entries off the
    outer shell (the origin excluded) set to +inf."""
    a = generators.random_grid(box, seed, scale=LOG).flat.copy()
    interior = np.flatnonzero(~outer_shell_mask(box))[1:]
    holes = rng.choice(interior, round(HOLE_SHARE * interior.size), replace=False)
    a[holes] = math.inf
    return SequenceGrid(box, a, LOG)


def line_breaks(a: np.ndarray) -> bool:
    """True when 2 a_alpha > a_{alpha-e_j} + a_{alpha+e_j} somewhere (by more than 1e-9)."""
    for j in range(a.ndim):
        A = np.moveaxis(a, j, 0)
        if (2.0 * A[1:-1] > A[:-2] + A[2:] + 1e-9).any():
            return True
    return False


def check_grid(family: str, rng: np.random.Generator) -> SequenceGrid:
    """A normalized LOG grid of one of the three check families."""
    if family == "convex":
        return generators.convex_random_grid(CHECK_BOX, _sub_seed(rng))
    if family == "notjoint":
        base = generators.notconvex_grid(CHECK_BOX, scale=LOG)
        cvx = generators.convex_random_grid(CHECK_BOX, _sub_seed(rng))
        return SequenceGrid(CHECK_BOX, base.flat + cvx.flat, LOG)
    while True:  # linebreak: redraw until the line condition fails somewhere
        g = generators.random_grid(CHECK_BOX, _sub_seed(rng), scale=LOG)
        if line_breaks(g.values):
            return g


def weight_matrix(base: np.ndarray, offsets, raise_by: float) -> WeightMatrix:
    """Ladder exp(base + (c_i + raise_by)|alpha|), one level per offset c_i."""
    orders = order_array(RELATION_BOX)
    grids = tuple(SequenceGrid(RELATION_BOX, np.exp(base + (c + raise_by) * orders), EXP)
                  for c in offsets)
    return WeightMatrix(LEVELS, grids)


def build(workload: str, seed: int, workdir: Path) -> list[list[Op]]:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``."""
    rng = np.random.default_rng([seed, ("minorant", "check", "relation").index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    rounds: list[list[Op]] = []
    for r in range(ROUNDS):
        ops = []
        if workload == "minorant":
            for i, family in enumerate(MINORANT_ROUND):
                key = f"m{r}{i}"
                g = holed_grid(MINORANT_BOX[family], _sub_seed(rng), rng)
                path = _write(workdir / f"{key}.json", lio.write_grid(g))
                ops.append(Op(key, family, ("minorant", path, "--json"), (path,)))
        elif workload == "check":
            for i, family in enumerate(CHECK_ROUND):
                key = f"c{r}{i}"
                path = _write(workdir / f"{key}.json", lio.write_grid(check_grid(family, rng)))
                ops.append(Op(key, family,
                              ("check", path, "--s-points", str(S_POINTS), "--json"), (path,)))
        else:
            key = f"r{r}"
            base = generators.convex_random_grid(RELATION_BOX, _sub_seed(rng)).flat
            offsets = np.cumsum(rng.uniform(0.1, 0.5, size=len(LEVELS))) - 0.1
            m_path = _write(workdir / f"{key}M.json",
                            lio.write_matrix(weight_matrix(base, offsets, 0.0)))
            n_path = _write(workdir / f"{key}N.json",
                            lio.write_matrix(weight_matrix(base, offsets, rng.uniform(0.05, 0.2))))
            ops.append(Op(key, "pair", ("matrix", "search-relation", m_path, n_path,
                                        "--kind", "triangle", "--json"), (m_path, n_path)))
        rounds.append(ops)
    return rounds
