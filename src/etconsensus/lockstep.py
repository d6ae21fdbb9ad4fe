"""Several prepared runs stepped as one: the disjoint union of their graphs.

The step loop reads a prepared run's rows (its agents), their disagreement
layout and their per-row coefficients (see ``simulator.Prepared``).
``lockstep`` joins several prepared runs into one ``Lockstep`` with the same
attributes, whose every row carries the arithmetic its run does alone, so
each member steps bit for bit as it would alone.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .errors import UsageError
from .graph import Graph


class Lockstep(SimpleNamespace):
    """The union of B prepared runs, with the step-loop attributes of a ``Prepared``.

    Rows are agents: the B leaders first (rows 0..B-1), then every run's
    followers in run order, so the control term goes to one contiguous
    slice ``[leaders:]``; ``member_rows`` gives each run's rows in agent
    order. ``two_kappa``, ``xi`` and ``neg_kappa`` are per-row vectors here
    (``neg_kappa`` a column over the followers), scalars in a ``Prepared``.
    """


def closed_neighbourhoods(graph: Graph) -> list:
    """Each agent's closed neighbourhood, sorted by id: the nonzero entries of its Laplacian row."""
    return [sorted({i, *graph.neighbours(i).tolist()}) for i in range(graph.n_agents)]


def layout(members: list, coeffs: list, n: int) -> dict:
    """The flat disagreement layout of rows with closed neighbourhoods ``members``.

    ``coeffs[r]`` holds row r's Laplacian entries, aligned with ``members[r]``.
    """
    order = sorted(range(len(members)), key=lambda r: len(members[r]))
    blocks = []
    start = first = 0
    for k in sorted({len(m) for m in members}):
        rows = [r for r in order if len(members[r]) == k]
        g = len(rows)
        blocks.append((
            slice(start, start + g * k),
            slice(first, first + g),
            (g, k, n),
            np.array([coeffs[r] for r in rows])[:, None, :],
        ))
        start += g * k
        first += g
    inv = np.empty(len(members), dtype=np.intp)
    inv[order] = np.arange(len(members))
    return dict(
        flat_idx=np.array([j for r in order for j in members[r]], dtype=np.intp),
        flat_own=np.repeat(order, [len(members[r]) for r in order]),
        blocks=tuple(blocks),
        inv=inv,
    )


# What the members of one lockstep batch must share, with the field named on a mismatch.
_SHARED = (
    ("model", lambda p: p.cfg.model),
    ("integrator", lambda p: p.integrator),
    ("h", lambda p: p.h),
    ("duration/h", lambda p: p.n_steps),
    ("n_agents", lambda p: p.graph.n_agents),
    ("P", lambda p: p.cert.P.tobytes()),
)


def batch_key(prep) -> tuple:
    """Runs with equal keys can step in lockstep: same model, integrator, h, steps, N and P."""
    return tuple(get(prep) for _, get in _SHARED)


def lockstep(preps) -> Prepared | Lockstep:
    """The disjoint union of prepared runs, stepped as one run.

    Edges, x0, parameters and gains may differ between the members; what
    ``batch_key`` holds must not. Agent i of member b becomes row b for the
    leader and B + b (N - 1) + i - 1 for a follower; that map keeps each
    member's agent order, so every neighbourhood product runs over the same
    terms in the same order as in the member's own layout. A batch of one is
    the member itself.
    """
    preps = list(preps)
    first = preps[0]
    if len(preps) == 1:
        return first
    for name, get in _SHARED:
        if any(get(p) != get(first) for p in preps):
            raise UsageError(f"runs stepped in lockstep must share {name}")
    n_members, n_agents = len(preps), first.graph.n_agents

    def place(b: int, i: int) -> int:
        return b if i == 0 else n_members + b * (n_agents - 1) + i - 1

    def rows(arrays) -> np.ndarray:
        a = np.stack(arrays)
        return np.concatenate((a[:, 0], a[:, 1:].reshape(-1, *a.shape[2:])))

    order = [(b, 0) for b in range(n_members)]
    order += [(b, i) for b in range(n_members) for i in range(1, n_agents)]
    neighbourhoods = [closed_neighbourhoods(p.graph) for p in preps]
    members = [[place(b, j) for j in neighbourhoods[b][i]] for b, i in order]
    coeffs = [preps[b].lap.L[i, neighbourhoods[b][i]] for b, i in order]
    return Lockstep(
        x0=rows([p.x0 for p in preps]),
        **layout(members, coeffs, first.model.state_dim),
        theta_rows=np.concatenate((
            rows([p.theta_rows[:n_agents] for p in preps]),
            rows([p.theta_rows[n_agents:] for p in preps]),
        )),
        Q=first.Q,
        BtPt=first.BtPt,
        Bt=first.Bt,
        neg_kappa=np.repeat([p.neg_kappa for p in preps], n_agents - 1)[:, None],
        two_kappa=rows([np.full(n_agents, p.two_kappa) for p in preps]),
        s_coeff=rows([p.s_coeff for p in preps]),
        sig_theta=rows([p.sig_theta for p in preps]),
        xi=rows([np.full(n_agents, p.xi) for p in preps]),
        f=first.f,
        h=first.h,
        integrator=first.integrator,
        n_steps=first.n_steps,
        leaders=n_members,
        member_rows=tuple(
            np.array([place(b, i) for i in range(n_agents)]) for b in range(n_members)
        ),
    )
