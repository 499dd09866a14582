"""Classical RK4 on the flow in deviation coordinates, as stage coefficients
and, for linear flows, as composed per-mode step maps.

Both integration paths of `dynamics` step

    xdot = a d,   ddot = -b d + F

with a = e^alpha and b = kappa + e^alpha on the half-step grid.  Both take
the schedule's coefficients one chunk of steps at a time, sampled on that
chunk's grid points only (`dynamics._CoefficientStream`).  Each RK4 stage
point and the step update are linear in d and the stages' forcings, with
coefficients built per chunk (`_rk4_stage_coefficients`); the stepping loop
folds x and the forcings' scale into them.  A linear flow split into 2x2
modes has the forcing F = -e^(alpha - eta) lam u per mode, so each step is a
linear map per mode, built from the same coefficients (`_rk4_step_maps`).
Every entry of such a map is quadratic in lam, so the maps are built at
three nodes at most, per run of steps from that run's coefficients, and
interpolated to every mode (`_map_nodes`); they are composed per block of
steps between check points, and the blocks are walked with prefix products
inside groups of consecutive blocks (`_walk`, `_composed_maps`).
"""

from __future__ import annotations

import numpy as np


def _rk4_stage_coefficients(ea, kappa, hstep):
    """RK4 on xdot = a d, ddot = -b d + F as coefficients of m steps.

    a = e^alpha and b = kappa + e^alpha at the steps' 2m + 1 half-step grid
    points, given as `ea` and `kappa`; step i has its stages at points 2i,
    2i + 1 and 2i + 2.
    Stage s (s = 1..4) sits at (x + P[0] @ Y, P[1] @ Y) for Y = [d, F_1 ..
    F_(s-1)] and the step maps (x, d) to (x + U[0] @ Y, U[1] @ Y) for Y =
    [d, F_1 .. F_4], where F_s is the forcing at stage s.  Returns the stage
    coefficients P of stages 2, 3 and 4, of shapes (m, 2, 2), (m, 2, 3) and
    (m, 2, 4), and U, of shape (m, 2, 5), for the m steps.  The step maps
    use them as they are; the stepping loop folds x and the forcings' scale
    into them (`_folded_stage_coefficients`).
    """
    a, b = ea, kappa + ea
    j = 2 * np.arange(ea.size // 2)
    half = 0.5 * hstep
    basis = np.eye(5)
    points = (j, j + 1, j + 1, j + 2)  # each stage's grid point in the chunk
    # d at stage 1 as a row over [d, F_1 .. F_4]; its x - x_step is 0
    D = np.broadcast_to(basis[0], (j.size, 5))
    stages, kx_sum, kd_sum = [], 0.0, 0.0
    for s, (c, w) in enumerate(zip((half, half, hstep, None), (1.0, 2.0, 2.0, 1.0))):
        kx = a[points[s], None] * D
        kd = basis[s + 1] - b[points[s], None] * D
        kx_sum = kx_sum + w * kx
        kd_sum = kd_sum + w * kd
        if c is not None:  # the next stage's point
            X, D = c * kx, basis[0] + c * kd
            stages.append(np.stack([X[:, : s + 2], D[:, : s + 2]], axis=1))
    sixth = hstep / 6.0
    U = np.stack([sixth * kx_sum, basis[0] + sixth * kd_sum], axis=1)
    return (*stages, U)


def _folded_stage_coefficients(ea, kappa, scale, hstep):
    """`_rk4_stage_coefficients` of m steps over Y = [x, d, G_1 .. G_4], where
    F_s = -scale G_s at stage s's grid point; the arguments are given at the
    steps' 2m + 1 grid points.

    Stage s sits at P @ Y[:s + 1] and the step maps (x, d) to U @ Y: x enters
    with coefficient 1, and each G_s column is the F_s column times -scale.
    Returns the folded P of stages 2, 3 and 4, of shapes (m, 2, 3), (m, 2, 4)
    and (m, 2, 5), and U, of shape (m, 2, 6), for the m steps.
    """
    j = 2 * np.arange(ea.size // 2)
    # -scale at each stage's grid point, one column per stage
    neg_scale = -np.stack([scale[j], scale[j + 1], scale[j + 1], scale[j + 2]], axis=1)
    x_col = np.broadcast_to([[1.0], [0.0]], (j.size, 2, 1))
    folded = []
    for C in _rk4_stage_coefficients(ea, kappa, hstep):
        n_forcings = C.shape[2] - 1
        G = C[:, :, 1:] * neg_scale[:, None, :n_forcings]
        folded.append(np.concatenate((x_col, C[:, :, :1], G), axis=2))
    return folded


# Steps per run of node maps, and step-modes per chunk of expanded maps:
# they bound the transient memory of the map build and of the walk.
_NODE_STEPS = 512
_MAP_CHUNK = 4096


def _rk4_step_maps(ea, K, ema, lam, hstep):
    """RK4 step maps y -> M y of m steps, for each eigenvalue in lam, from
    e^alpha, K and e^(alpha - eta) at the steps' 2m + 1 grid points.

    Mode i is the stepping loop's flow on y = (u_i, d_i) with the forcing
    F = g u, g = -e^(alpha - eta) lam_i (see `dynamics._modal_form`).  The basis
    states (1, 0) and (0, 1) are pushed through the loop's own stage
    coefficients (`_rk4_stage_coefficients`): stage s sits at
    u_s = u + sum_k P[0, k] Y_k with Y = [d, F_1 .. F_(s-1)] and F_s = g_s u_s,
    and the states the step reaches are M's columns.  The arithmetic runs
    entrywise on (steps, lam.size) arrays.  Returns M of shape
    (2, 2, steps, lam.size).
    """
    *P, U = _rk4_stage_coefficients(ea, K, hstep)
    j = 2 * np.arange(ea.size // 2)
    g = [-ema[p, None] * lam for p in (j, j + 1, j + 1, j + 2)]

    def row(C, Y):  # sum_k C[:, k] Y_k
        return sum(C[:, k, None] * y for k, y in enumerate(Y))

    M = np.empty((2, 2, j.size, lam.size))
    for col, (u, d) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        Y = [d, g[0] * u]
        for gs, Ps in zip(g[1:], P):
            Y.append(gs * (u + row(Ps[:, 0], Y)))
        M[0, col] = u + row(U[:, 0], Y)
        M[1, col] = row(U[:, 1], Y)
    return M


def _map_nodes(lam):
    """Nodes and weights W of shape (lam.size, nodes) such that
    q(lam_i) = sum_k W[i, k] q(nodes_k) for every q quadratic in lam.

    Each entry of a step map is such a q: lam enters only through the
    forcing, which feeds u into d, and a second factor needs d fed back into
    u by a later stage, so four stages reach lam^2 at most.  The nodes are
    the distinct eigenvalues when there are at most three, and W then picks
    each mode's own node exactly; else lam_min, the midpoint and lam_max.
    """
    nodes = np.array(sorted(set(lam.tolist())))  # np.unique would import numpy.ma
    if nodes.size > 3:
        nodes = np.array([nodes[0], 0.5 * (nodes[0] + nodes[-1]), nodes[-1]])
    W = np.ones((lam.size, nodes.size))
    for k, node in enumerate(nodes):
        for other in np.delete(nodes, k):
            W[:, k] *= (lam - other) / (node - other)
    return nodes, W


def _product(A, B):
    """A B for 2x2 maps stored entrywise as (2, 2, ...) arrays."""
    return A[:, 0, None] * B[None, 0] + A[:, 1, None] * B[None, 1]


def _apply(A, y):
    """A y for 2x2 maps stored as (2, 2, ...) and 2-vectors as (2, ...)."""
    return A[:, 0] * y[0] + A[:, 1] * y[1]


def _compose_blocks(M, starts, lengths):
    """Compose the step maps M[:, :, k] of each block [start, start + length)
    into one map."""
    Mb = np.take(M, starts, axis=2)  # contiguous, unlike M[:, :, starts]
    for j in range(1, int(lengths.max())):
        live = np.flatnonzero(lengths > j)
        Mb[:, :, live] = _product(np.take(M, starts[live] + j, axis=2), np.take(Mb, live, axis=2))
    return Mb


def _walk(M, starts, lengths, y):
    """The states after each block [start, start + length) of the step maps
    M from y, of shape (2, n); returns them as (2, blocks, n).

    The blocks are cut into groups of about sqrt(blocks).  With the position
    in the group as the outer index, one product per position extends the
    prefix products of every group at once.  y is then carried across the
    group ends in order, and each group applies its prefix products to the
    state it starts from.  A walk that overflows is redone block by block,
    so a state is non-finite only where the step-by-step walk makes it so.
    """
    blocks, n = starts.size, M.shape[-1]
    size = int(np.ceil(np.sqrt(blocks)))
    groups = -(-blocks // size)
    # block g * size + i goes to [i, g]; the last block fills the last group
    order = np.minimum(size * np.arange(groups) + np.arange(size)[:, None], blocks - 1).ravel()
    P = _compose_blocks(M, starts[order], lengths[order]).reshape(2, 2, size, groups * n)
    for i in range(1, size):
        P[:, :, i] = _product(P[:, :, i], P[:, :, i - 1])
    ends = P[:, :, -1].reshape(2, 2, groups, n)
    Y0 = np.empty((2, groups, n))
    for g in range(groups):
        Y0[:, g] = y
        y = _apply(ends[:, :, g], y)
    Y = _apply(P, Y0.reshape(2, 1, groups * n)).reshape(2, size, groups, n)
    Y = Y.transpose(0, 2, 1, 3).reshape(2, groups * size, n)[:, :blocks]
    if not np.isfinite(Y).all():
        Mb = _compose_blocks(M, starts, lengths)
        y = Y0[:, 0]
        for b in range(blocks):
            Y[:, b] = y = _apply(Mb[:, :, b], y)
    return Y


def _runs(events, b0, b1, steps):
    """Cut events[b0:b1] into runs that end within `steps` steps of the last
    run's end, or hold one event that alone ends further; yields each run's
    (b0, b1, start step)."""
    start = events[b0 - 1] if b0 else 0
    while b0 < b1:
        end = min(b1, max(b0 + 1, int(np.searchsorted(events, start + steps, "right"))))
        yield b0, end, start
        b0, start = end, events[end - 1]


def _composed_maps(modes, coefficients, hstep, x, z, events):
    """RK4 on a linear flow as composed per-mode linear maps in deviation
    coordinates; yields the states after the steps listed in `events` as one
    block (steps, X, Z) per chunk.

    Each block of steps ends at an event.  The step maps are built at the
    nodes of `_map_nodes` per run of at least `_NODE_STEPS` steps k0..k1-1,
    from `coefficients(k0, k1)`: (e^alpha, K, e^(alpha - eta)) at grid points
    2 k0 .. 2 k1 (see `dynamics._CoefficientStream`).  They are then
    expanded to every mode, composed per block and walked (`_walk`) per chunk
    of at most `_MAP_CHUNK` step-modes (or one block), so no temporary grows
    with the horizon.  RK4 commutes with the linear change of variables, so
    this is the stepping loop's method and differs from it by round-off only;
    a start at the rest point stays there exactly.
    """
    S, lam, x_r, to_modes = modes
    nodes, W = _map_nodes(lam)
    y = np.stack([to_modes @ (x - x_r), to_modes @ (z - x)])
    span = max(1, _MAP_CHUNK // lam.size)
    for a0, a1, k0 in _runs(events, 0, events.size, max(_NODE_STEPS, span)):
        N = _rk4_step_maps(*coefficients(k0, events[a1 - 1]), nodes, hstep)
        for b0, b1, s0 in _runs(events, a0, a1, span):
            ev = events[b0:b1]
            st = np.concatenate(([s0], ev[:-1]))
            Y = _walk(N[:, :, s0 - k0 : ev[-1] - k0] @ W.T, st - s0, ev - st, y)
            y = Y[:, -1]
            X = x_r + Y[0] @ S.T
            yield ev, X, X + Y[1] @ S.T
