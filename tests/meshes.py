"""Hard-coded test meshes: the smallest cases the mesh, FEM and BEM tests need.

Like ``multimag.shapes``, every builder returns a :class:`~multimag.mesh.TetMesh`
whose node ordering is reproducible run to run.
"""

import itertools

import numpy as np

from multimag import TetMesh


def two_tets() -> TetMesh:
    """Two tets sharing one interior face; smallest mesh with an interior face."""
    nodes = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0],
        ]
    )
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    return TetMesh(nodes, tets)


def sliver_tet() -> TetMesh:
    """Nearly flat tet with obtuse dihedral angles.

    Produces positive off-diagonal stiffness entries, i.e. a mesh that fails
    the weak-acuteness angle check.
    """
    nodes = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, 1.0, 0.0],
            [0.5, 0.5, 0.02],
        ]
    )
    tets = np.array([[0, 1, 2, 3]])
    return TetMesh(nodes, tets)


def kuhn_cube(n: int = 1, origin=(0.0, 0.0, 0.0), size: float = 1.0) -> TetMesh:
    """Axis-aligned cube, each grid cell split into 6 Kuhn tetrahedra.

    The Kuhn (Freudenthal) pattern is identical in every cell, hence
    conforming, and all dihedral angles are nonobtuse, so the mesh satisfies
    the weak-acuteness angle condition.

    Args:
        n: grid cells per axis; (n+1)^3 nodes, 6 n^3 tets.
        origin: minimum corner.
        size: edge length of the whole cube.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    h = size / n
    axis = np.arange(n + 1) * h
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    nodes = grid.reshape(-1, 3) + np.asarray(origin, dtype=np.float64)

    def node_id(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    steps = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
    tets = []
    for ci, cj, ck in itertools.product(range(n), repeat=3):
        for perm in itertools.permutations((0, 1, 2)):
            path = [(ci, cj, ck)]
            for axis_id in perm:
                di, dj, dk = steps[axis_id]
                last = path[-1]
                path.append((last[0] + di, last[1] + dj, last[2] + dk))
            tets.append([node_id(*p) for p in path])
    return TetMesh(nodes, np.array(tets, dtype=np.int64))
