"""Oracles the tests share: per-state lists and dense views of block matrices."""

import numpy as np

from gcshelm import assembly_solver as asm
from gcshelm import gaussian_states as gs
from gcshelm.phase_space import lattice_point


def states_from_index_set(index_set):
    """Coherent states sitting at the lattice points of an index set."""
    spec = index_set.lattice
    return [
        gs.CoherentState(spec.hbar, lattice_point(p.m, spec), lattice_point(p.n, spec))
        for p in index_set.members
    ]


def dense(matrix):
    """The Q x N array of an ``asm.BlockMatrix``, zero outside its blocks."""
    out = np.zeros(matrix.shape, dtype=complex)
    for rows, cols, block in matrix.blocks:
        out[rows, cols] = block
    return out


def one_block(a):
    """A dense array as an ``asm.BlockMatrix`` of one block."""
    q, n = a.shape
    return asm.BlockMatrix((q, n), ((slice(0, q), slice(0, n), np.asarray(a, dtype=complex)),))
