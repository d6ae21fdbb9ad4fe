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

    Rows are agents: the B leaders first (rows 0..B-1), then every run's
    followers in run order, so the control term goes to one contiguous
    slice ``[leaders:]``; ``member_rows`` gives each run's rows in agent
    order. The disagreement layout takes the rows in group order: by closed
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
    -kappa is a column over the followers.

    The step's other buffers, none of which a step hands out: ``y`` takes
    [x; xhat] and ``stages`` are the integrator's. ``field(y, out)`` writes
    f(y, theta) (theta_true on the true rows, theta_hat below) plus a drive
    that is -0.0, which leaves every float as it is, but on the follower
    plant rows ``drive_rows``, where each step writes B u. ``ewQ`` holds
    [eQ; wQ], ``prods`` each of them times each of e and w, and ``forms``
    their row sums, with the views ``eQe``, ``wQe`` and ``wQw`` (e'Qw is
    formed too and not read).
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
    member b becomes row b for the leader and B + b (N - 1) + i - 1 for a
    follower; that map keeps each member's agent order, so every
    neighbourhood product runs over the same terms in the same order as in
    the member's own layout, and a single run's rows are its agents.
    """
    preps = list(preps)
    first = preps[0]
    for (name, _), values in zip(_SHARED, zip(*(batch_key(p.cfg) for p in preps))):
        if len(set(values)) > 1:
            raise UsageError(f"runs stepped in lockstep must share {name}")
    n_members, n_agents = len(preps), first.graph.n_agents

    def place(b: int, i: int) -> int:
        return b if i == 0 else n_members + b * (n_agents - 1) + i - 1

    order = [(b, 0) for b in range(n_members)]
    order += [(b, i) for b in range(n_members) for i in range(1, n_agents)]
    owner, agent = (np.array(col) for col in zip(*order))
    neighbourhoods = [closed_neighbourhoods(p.graph) for p in preps]
    members = [[place(b, j) for j in neighbourhoods[b][i]] for b, i in order]
    coeffs = [preps[b].lap.L[i, neighbourhoods[b][i]] for b, i in order]
    params = [p.params for p in preps]
    kappa = np.array([q.kappa for q in params])
    theta = np.stack([np.stack((p.model.theta_true, p.model.theta_hat)) for p in preps])
    theta_rows = np.concatenate((theta[owner, 0], theta[owner, 1]))
    f = first.model.f
    n_rows, n = len(order), first.model.state_dim
    drive = np.full((2 * n_rows, n), -0.0)
    ewQ, forms = np.empty((2, n_rows, n)), np.empty((2, 2, n_rows))

    def field(y: np.ndarray, out: np.ndarray) -> None:
        f(y, theta_rows, out)
        np.add(out, drive, out)

    return Lockstep(
        x0=np.stack([p.x0 for p in preps])[owner, agent],
        **layout(members, coeffs, n),
        Q=first.params.Q,
        BtPt=first.params.BtP.T,
        Bt=first.model.B.T,
        neg_kappa=(-kappa)[owner[n_members:], None],
        two_kappa=(2.0 * kappa)[owner],
        s_coeff=np.stack([q.s_coeff for q in params])[owner, agent],
        sig_theta=np.stack([q.sigma * q.theta_coeff for q in params])[owner, agent],
        xi=np.array([q.xi for q in params])[owner],
        y=np.empty((2 * n_rows, n)),
        stages=stage_buffers((2 * n_rows, n)),
        field=field,
        drive_rows=drive[n_members:n_rows],
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
        leaders=n_members,
        member_rows=tuple(
            np.array([place(b, i) for i in range(n_agents)]) for b in range(n_members)
        ),
    )
