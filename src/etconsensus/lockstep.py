"""The step loop's core: prepared runs joined as one run over the disjoint union of their graphs.

A single run is the union of one. Every row carries the arithmetic its run
does alone, so each member steps bit for bit as it would alone.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .errors import UsageError
from .graph import Graph
from .integrate import stage_buffers


class Lockstep(SimpleNamespace):
    """What the step loop reads: the rows of B prepared runs and their coefficients.

    Rows are agents, every run's N laid end to end: agent i of run b is row
    b N + i, and ``member_rows[b]`` is the slice of run b's rows. The
    disagreement layout takes the rows in group order: by closed
    neighbourhood size k, then by row. ``flat_idx`` joins their closed
    neighbourhoods, each in agent order, and ``flat_own`` repeats each row
    k times, so ``xhat[flat_idx] - xhat[flat_own]`` holds every difference
    xhat_j - xhat_i. The buffers ``diffs`` (len(flat_idx), n) for the
    differences and ``sums`` (R, n) for the sums, in group order, are
    allocated once, with the core. ``blocks`` has one ``(coeffs, d, w)`` entry
    per k: the group's Laplacian entries as (g, 1, k), its (g, k, n) view of
    ``diffs`` and its (g, 1, n) view of ``sums``. ``inv`` maps each row to its
    place in group order.
    ``Q`` is the runs' shared ``TriggerParams.Q`` = P B B' P, the matrix
    behind every trigger quadratic form; ``BtPt`` and ``Bt`` are (B'P)' and
    B'. The trigger coefficients are per row: ``s_coeff``, ``sig_theta`` =
    sigma theta_coeff, ``two_kappa`` = 2 kappa and ``xi``; ``neg_kappa`` =
    -kappa is a column over the rows.

    The step's other buffers, none of which a step hands out: ``y`` takes
    [x; xhat] and ``stages`` are the integrator's. ``field(y, out)`` writes
    f(y, theta) (theta_true on the true rows, theta_hat below) plus a drive
    that is -0.0, which leaves every float as it is, but on the plant rows
    ``plant_drive``, where each step writes B u, then -0.0 again into the
    leader rows ``leader_drive``. ``ewQ`` holds [eQ; wQ], ``prods`` each of
    them times each of e and w, and ``forms`` their row sums, with the views
    ``eQe``, ``wQe`` and ``wQw`` (e'Qw is formed too and not read).
    """


def closed_neighbourhoods(graph: Graph) -> list:
    """Each agent's closed neighbourhood, sorted by id: the nonzero entries of its Laplacian row."""
    return [sorted({i, *graph.neighbours(i).tolist()}) for i in range(graph.n_agents)]


def layout(members: list, coeffs: list, n: int) -> dict:
    """The flat disagreement layout of rows with closed neighbourhoods ``members``.

    ``coeffs[r]`` holds row r's Laplacian entries, aligned with ``members[r]``.
    """
    order = sorted(range(len(members)), key=lambda r: len(members[r]))
    flat_idx = np.array([j for r in order for j in members[r]], dtype=np.intp)
    diffs = np.empty((len(flat_idx), n))
    sums = np.empty((len(members), n))
    blocks = []
    start = first = 0
    for k in sorted({len(m) for m in members}):
        rows = [r for r in order if len(members[r]) == k]
        g = len(rows)
        blocks.append((
            np.array([coeffs[r] for r in rows])[:, None, :],
            diffs[start : start + g * k].reshape(g, k, n),
            sums[first : first + g].reshape(g, 1, n),
        ))
        start += g * k
        first += g
    inv = np.empty(len(members), dtype=np.intp)
    inv[order] = np.arange(len(members))
    return dict(
        flat_idx=flat_idx,
        flat_own=np.repeat(order, [len(members[r]) for r in order]),
        diffs=diffs,
        sums=sums,
        blocks=tuple(blocks),
        inv=inv,
    )


# What the members of one lockstep batch must share: the name given on a
# mismatch and the config's value, read before anything is derived.
_SHARED = (
    ("model", lambda c: c.model),
    ("integrator", lambda c: c.integrator),
    ("h", lambda c: c.h),
    ("duration/h", lambda c: c.n_steps),
    ("n_agents", lambda c: c.n_agents),
    ("P", lambda c: np.asarray(c.P, dtype=float).tobytes()),
)


def batch_key(cfg) -> tuple:
    """A config's values that ``lockstep`` needs its members to share, as a tuple."""
    return tuple(get(cfg) for _, get in _SHARED)


def lockstep(preps) -> Lockstep:
    """The step-loop core of prepared runs: their disjoint union, stepped as one run.

    Edges, x0, parameters and gains may differ between the members; model,
    integrator, h, step count, N and P must not (UsageError). Agent i of
    member b becomes row b N + i, so each member's rows are its agents in
    order, every neighbourhood product runs over the same terms in the same
    order as in the member's own layout, and a single run's rows are its
    agents.
    """
    preps = list(preps)
    first = preps[0]
    for (name, _), values in zip(_SHARED, zip(*(batch_key(p.cfg) for p in preps))):
        if len(set(values)) > 1:
            raise UsageError(f"runs stepped in lockstep must share {name}")
    n_members, n_agents = len(preps), first.graph.n_agents
    owner = np.repeat(np.arange(n_members), n_agents)
    members, coeffs = [], []
    for b, p in enumerate(preps):
        for i, neighbourhood in enumerate(closed_neighbourhoods(p.graph)):
            members.append([b * n_agents + j for j in neighbourhood])
            coeffs.append(p.lap.L[i, neighbourhood])
    params = [p.params for p in preps]
    kappa = np.array([q.kappa for q in params])
    theta = np.stack([np.stack((p.model.theta_true, p.model.theta_hat)) for p in preps])
    theta_rows = np.concatenate((theta[owner, 0], theta[owner, 1]))
    f = first.model.f
    n_rows, n = len(owner), first.model.state_dim
    drive = np.full((2 * n_rows, n), -0.0)
    ewQ, forms = np.empty((2, n_rows, n)), np.empty((2, 2, n_rows))

    def field(y: np.ndarray, out: np.ndarray) -> None:
        f(y, theta_rows, out)
        np.add(out, drive, out)

    return Lockstep(
        x0=np.concatenate([p.x0 for p in preps]),
        **layout(members, coeffs, n),
        Q=first.params.Q,
        BtPt=first.params.BtP.T,
        Bt=first.model.B.T,
        neg_kappa=(-kappa)[owner, None],
        two_kappa=(2.0 * kappa)[owner],
        s_coeff=np.concatenate([q.s_coeff for q in params]),
        sig_theta=np.concatenate([q.sigma * q.theta_coeff for q in params]),
        xi=np.array([q.xi for q in params])[owner],
        y=np.empty((2 * n_rows, n)),
        stages=stage_buffers((2 * n_rows, n)),
        field=field,
        plant_drive=drive[:n_rows],
        leader_drive=drive[:n_rows:n_agents],
        ewQ=ewQ,
        ewQ_by=ewQ[:, None],
        prods=np.empty((2, 2, n_rows, n)),
        forms=forms,
        eQe=forms[0, 0],
        wQe=forms[1, 0],
        wQw=forms[1, 1],
        h=first.cfg.h,
        integrator=first.cfg.integrator,
        n_steps=first.cfg.n_steps,
        member_rows=tuple(slice(b * n_agents, (b + 1) * n_agents) for b in range(n_members)),
    )
