"""Joint key-management and data-scheduling controller for keyed networks.

Each edge holds a key store that one-time-pad encryption drains and on-slot
key generation refills; each node holds per-destination data queues, and
``ScheduleConfig.build`` derives once every constant and per-edge column a
slot reads. Every slot the controller, knowing only the current queues and
key stores:

1. turns key generation on wherever the store sits below its target level,
2. admits new data per commodity by weighing utility gain against backlog,
3. spends keys on each edge when the backlog differential justifies it,
4. serves the single best-weighted commodity on each edge at full rate,
5. applies the resulting transfers, admissions, and key-store movements.

The controller never looks ahead and never solves a global program, yet its
greedy slot-wise choices certify hard bounds: queues never exceed
``beta * V + R_max``, key stores never exceed ``theta + K_max``, consumption
never outruns the store, and the per-slot drift inequality audited by
``drift_audit`` holds for any bounded decision, not just the controller's.

Amounts default to integers (bits per slot) so every audit is an exact
integer comparison; runs with a logarithmic utility or a rate function use
floats, and their audits allow a rounding tolerance of ``_FLOAT_RTOL``
relative to the bound each compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import add, index, le, mul, sub
from random import Random
from typing import Callable, Mapping

from .graph_core import Network

__all__ = [
    "DriftAudit",
    "LinkParams",
    "NetworkState",
    "ScheduleConfig",
    "ServedFlow",
    "SlotAudit",
    "StateInvariantError",
    "StepDecision",
    "Utility",
    "admit",
    "drift_audit",
    "initial_state",
    "key_consumption",
    "step",
]

Num = int | float

# float audits allow this much rounding, relative to the bound compared
# against: a slack or a bound of size b tolerates an overshoot of b * 1e-12
_FLOAT_RTOL = 1e-12


class StateInvariantError(RuntimeError):
    """A certified state bound failed. This must never fire."""


def _require_number(x: object, name: str, integer: bool = False) -> None:
    """``x`` must be a real number as ``math.isfinite`` takes one, or with

    ``integer`` an integer as ``range`` takes one. A bool is an int to
    Python, and would pass as the exact integer 0 or 1, so it is refused.
    """
    try:
        if isinstance(x, bool):
            raise TypeError
        index(x) if integer else math.isfinite(x)
    except TypeError:
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {x!r}") from None
    except OverflowError:  # an int past the largest float
        raise ValueError(f"{name} is too large for a float, got an integer of {x.bit_length()} bits") from None


def _require_positive_finite(x: Num, name: str) -> None:
    _require_number(x, name)
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


@dataclass(frozen=True)
class LinkParams:
    """Per-edge constants: key generation rate ``K`` per on-slot, the key

    spend ceiling ``P_max``, the key-to-data efficiency ``delta``, and the
    transmission rate ``mu_of_P`` as a function of keys spent, which may
    not exceed ``delta * P`` at ``P_max``. ``mu_of_P=None`` means one-time
    pad: rate equals keys spent whatever ``delta`` is, so there ``delta``
    only raises the key-store target ``theta``.
    """

    K: Num
    P_max: Num
    delta: Num = 1
    mu_of_P: Callable[[Num], Num] | None = None

    def __post_init__(self) -> None:
        for name in ("K", "P_max", "delta"):
            _require_number(getattr(self, name), name)
        if not all(math.isfinite(x) for x in (self.K, self.P_max, self.delta)):
            raise ValueError("K, P_max and delta must be finite")
        if self.K < 0 or self.P_max < 0:
            raise ValueError("K and P_max must be non-negative")
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        if self.mu_of_P is not None:
            if self.mu_of_P(0) != 0:
                raise ValueError("mu_of_P(0) must be 0")
            if self.mu_of_P(self.P_max) > self.delta * self.P_max:
                raise ValueError("mu_of_P exceeds delta * P at P_max")

    def rate(self, P: Num) -> Num:
        return P if self.mu_of_P is None else self.mu_of_P(P)


@dataclass(frozen=True)
class Utility:
    """Concave admission utility. ``linear``: w*r. ``log1p``: w*ln(1+r)."""

    kind: str
    w: Num

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "log1p"):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        _require_positive_finite(self.w, "utility weight")

    def value(self, r: Num) -> Num:
        if self.kind == "linear":
            return self.w * r
        return self.w * math.log1p(r)

    def marginal(self, r: Num) -> Num:
        if self.kind == "linear":
            return self.w
        return self.w / (1 + r)


def _check_problem(
    network: Network, commodities: Mapping[tuple[str, str], Utility], R_max: Num
) -> dict[str, LinkParams]:
    """The link parameters by edge id, after checking what the controller and

    the static oracle both assume: at least one commodity, each between two
    distinct nodes; link parameters on every edge; a positive finite R_max.
    """
    if not commodities:
        raise ValueError("at least one commodity is required")
    for src, dst in commodities:
        network.require_node(src)
        network.require_node(dst)
        if src == dst:
            raise ValueError(f"commodity {src!r}->{dst!r} has equal endpoints")
    links = {}
    for e in network.edges:
        if e.link_params is None:
            raise ValueError(f"edge {e.id!r} has no link parameters")
        links[e.id] = e.link_params
    _require_positive_finite(R_max, "R_max")
    return links


@dataclass(frozen=True)
class ScheduleConfig:
    """A network with link parameters, the commodity set, and everything

    the controller, its audits and a run read, derived once by ``build``.
    ``theta`` is the per-edge key-store target ``delta*beta*V + P_max``;
    ``gamma`` the scheduling margin ``R_max + d_max*mu_max``; ``B2`` twice
    the drift constant ``B``, the form the drift audit compares in, and an
    integer in exact mode; ``B_tilde`` the utility-gap constant. ``exact``
    marks runs whose quantities are all integers, enabling exact audits.
    ``dests`` are the commodity destinations in label order; a node's queue
    for itself as destination must stay empty. ``pairs`` are the
    commodities in label order, and ``queue_bound`` is ``beta*V + R_max``.

    ``queues`` are the queue keys, node by node and then in ``dests`` order.
    Every state of a run keys its queues by these very tuples, and ``edges``
    and ``utilities`` hold the same objects, so lookups hit by identity.
    ``eids``, ``K`` and each store's range ``[store_lo, store_hi]`` (``[0,
    theta + K_max]``, widened in float mode by ``_FLOAT_RTOL`` of the bound)
    follow network edge order, and so does ``edges``: per edge its id,
    ``P_max``, ``theta``, its link parameters if it has a rate function
    (None for a one-time-pad link) and one lane per destination in ``dests``
    order. A lane holds the lower and the higher label's queue key and the
    two flows over the edge at ``P_max``, the rate a one-time-pad link
    always serves at: lower to higher label, then back. ``utilities`` holds
    (pair, utility, ``V * w`` if linear else None) in ``pairs`` order.
    """

    network: Network
    commodities: dict[tuple[str, str], Utility]
    tie_mode: str
    V: Num
    R_max: Num
    beta: Num
    gamma: Num
    theta: dict[str, Num]
    K_max: Num
    B2: Num
    B_tilde: float
    exact: bool
    dests: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    queue_bound: Num
    queues: tuple[tuple[str, str], ...]
    eids: tuple[str, ...]
    K: tuple[Num, ...]
    store_lo: tuple[Num, ...]
    store_hi: tuple[Num, ...]
    edges: tuple[tuple[str, Num, Num, LinkParams | None, tuple], ...]
    utilities: tuple[tuple[tuple[str, str], Utility, Num | None], ...]

    @classmethod
    def build(
        cls,
        network: Network,
        commodities: Mapping[tuple[str, str], Utility],
        V: Num,
        R_max: Num,
        tie_mode: str = "random",
    ) -> "ScheduleConfig":
        links = _check_problem(network, commodities, R_max)
        _require_positive_finite(V, "V")
        if tie_mode not in ("random", "lexicographic"):
            raise ValueError(f"unknown tie mode {tie_mode!r}")
        beta = max(u.marginal(0) for u in commodities.values())
        mu_max = max(lp.rate(lp.P_max) for lp in links.values())
        d_max = max(network.degree(v) for v in network.nodes)
        gamma = R_max + d_max * mu_max
        theta = {eid: lp.delta * beta * V + lp.P_max for eid, lp in links.items()}
        n, m = len(network.nodes), len(network.edges)
        P_cap = max(lp.P_max for lp in links.values())
        K_max = max(lp.K for lp in links.values())
        B2 = n * n * (3 * d_max**2 * mu_max**2 + 2 * R_max**2) + m * (P_cap + K_max) ** 2
        ints = [V, R_max, beta, mu_max, gamma, P_cap, K_max, *theta.values()]
        exact = (
            all(isinstance(x, int) for x in ints)
            and all(u.kind == "linear" and isinstance(u.w, int) for u in commodities.values())
            and all(lp.mu_of_P is None for lp in links.values())
            and all(isinstance(lp.K, int) and isinstance(lp.P_max, int) for lp in links.values())
        )

        dests = tuple(sorted({dst for _, dst in commodities}))
        pairs = tuple(sorted(commodities))
        key = {(v, dest): (v, dest) for v in network.nodes for dest in dests}
        edges = []
        for e in network.edges:
            lp = links[e.id]
            lo, hi = (e.u, e.v) if e.u < e.v else (e.v, e.u)
            lanes = tuple(
                (
                    key[(lo, dest)],
                    key[(hi, dest)],
                    ServedFlow(lo, hi, dest, lp.P_max, lp.P_max),
                    ServedFlow(hi, lo, dest, lp.P_max, lp.P_max),
                )
                for dest in dests
            )
            rated = None if lp.mu_of_P is None else lp
            edges.append((e.id, lp.P_max, theta[e.id], rated, lanes))
        tol = 0 if exact else _FLOAT_RTOL  # float mode widens each store range by its rounding tolerance
        bounds = [t + K_max for t in theta.values()]
        return cls(
            network=network,
            commodities=dict(commodities),
            tie_mode=tie_mode,
            V=V,
            R_max=R_max,
            beta=beta,
            gamma=gamma,
            theta=theta,
            K_max=K_max,
            B2=B2,
            B_tilde=B2 / 2 + n * n * gamma * d_max * mu_max,
            exact=exact,
            dests=dests,
            pairs=pairs,
            queue_bound=beta * V + R_max,
            queues=tuple(key),
            eids=tuple(links),
            K=tuple(lp.K for lp in links.values()),
            store_lo=tuple(-tol * b for b in bounds),
            store_hi=tuple(b + tol * b for b in bounds),
            edges=tuple(edges),
            utilities=tuple(
                (key[pair], u, V * u.w if u.kind == "linear" else None) for pair, u in sorted(commodities.items())
            ),
        )

    def store_bound(self, edge_id: str) -> Num:
        return self.theta[edge_id] + self.K_max


@dataclass
class NetworkState:
    """Slot counter, per-(node, destination) queues, per-edge key stores.

    ``certified`` records whether every queue and store sat inside its
    certified range when the state was made: true for the initial state,
    and the result of ``step``'s bounds scan for every state it returns.
    """

    t: int
    Q: dict[tuple[str, str], Num]
    E: dict[str, Num]
    certified: bool


@dataclass(frozen=True)
class ServedFlow:
    """One edge's scheduling outcome: full nominal rate for one commodity.

    ``actual`` is the data really moved, at most nominal and at most what
    the sender held; dummy filler covers the remainder on the wire so keys
    are still spent at the nominal rate.
    """

    src: str
    dst: str
    dest: str
    nominal: Num
    actual: Num


@dataclass(frozen=True)
class StepDecision:
    S: dict[str, int]
    R: dict[tuple[str, str], Num]
    P: dict[str, Num]
    served: dict[str, ServedFlow]


@dataclass(frozen=True)
class SlotAudit:
    availability_ok: bool
    min_key_margin: Num
    delivered: dict[str, Num]
    bounds_checked: bool


def initial_state(cfg: ScheduleConfig) -> NetworkState:
    Q = dict.fromkeys(cfg.queues, 0)
    E = dict.fromkeys(cfg.eids, 0)
    return NetworkState(0, Q, E, certified=True)


def _bounds_violation(state: NetworkState, cfg: ScheduleConfig) -> str | None:
    """The first queue or key store outside its certified range, described

    by entity, value and bound, or None when the state is inside them all.
    Destination queues must be exactly zero. One pass of min, max, any and
    a per-store comparison in edge order clears a state inside its ranges;
    only a real violation is walked entity by entity. Float mode allows
    each bound ``_FLOAT_RTOL`` of itself for rounding.
    """
    q_hi = cfg.queue_bound
    q_tol = 0 if cfg.exact else _FLOAT_RTOL * q_hi
    E = list(map(state.E.__getitem__, cfg.eids))
    Q = state.Q.values()
    if (
        min(Q) >= -q_tol
        and max(Q) <= q_hi + q_tol
        and all(map(le, cfg.store_lo, E))
        and all(map(le, E, cfg.store_hi))
        and not any(map(state.Q.get, zip(cfg.dests, cfg.dests)))
    ):
        return None
    for (node, dest), q in state.Q.items():
        if node == dest:
            if q != 0:
                return f"destination queue ({node},{dest}) = {q}, not 0, entering slot {state.t}"
        elif q < -q_tol or q > q_hi + q_tol:
            return f"queue ({node},{dest}) = {q} outside [0, {q_hi}] entering slot {state.t}"
    for eid, e, lo, hi in zip(cfg.eids, E, cfg.store_lo, cfg.store_hi):
        if e < lo or e > hi:
            return f"key store {eid} = {e} outside [0, {cfg.store_bound(eid)}] entering slot {state.t}"
    return None


def admit(Q: Num, V: Num, utility: Utility, R_max: Num) -> Num:
    """Admission maximizing V*U(R) - Q*R over [0, R_max]; ties take 0.

    Linear utility is bang-bang. The log1p interior optimum V*w/Q - 1 is
    clamped to the box.
    """
    if utility.kind == "linear":
        return R_max if Q < V * utility.w else 0
    if Q <= 0:
        return R_max
    r = V * utility.w / Q - 1
    return min(max(r, 0), R_max)


def key_consumption(W: Num, E: Num, theta: Num, lp: LinkParams) -> Num:
    """Keys to spend: argmax of mu(P)*W + (E - theta)*P over [0, P_max].

    The box constraint is the only constraint; store availability is not
    consulted (it holds anyway, which the availability audit certifies).
    One-time-pad links are bang-bang with ties resolving to 0. Other rate
    functions are searched over integer spends.
    """
    if lp.mu_of_P is None:
        return lp.P_max if W + E - theta > 0 else 0
    best_p: Num = 0
    best_val: Num = 0
    for p in range(int(lp.P_max) + 1):
        val = lp.mu_of_P(p) * W + (E - theta) * p
        if val > best_val:
            best_val, best_p = val, p
    return best_p


def _controller_decision(state: NetworkState, cfg: ScheduleConfig, rng: Random) -> StepDecision:
    """One pass over the config's edges, then its commodities.

    Per edge: generate keys iff the store is strictly below ``theta``. Weigh
    each (sender, receiver, destination) candidate by its backlog
    differential less ``gamma``; the candidates run lower label first, then
    destinations in order. Spend keys by ``key_consumption`` at the largest
    weight W, floored at zero (on a one-time-pad link: ``P_max`` iff
    W + E - theta > 0), and serve the largest positive weight at the whole
    rate, if that rate is positive. A tie goes to the first candidate in
    lexicographic mode and to ``rng.randrange`` over the tied ones in
    random mode. Per commodity: admit by ``admit``, inlined for a linear
    utility.
    """
    Q, E = state.Q, state.E
    gamma = cfg.gamma
    random_ties = cfg.tie_mode == "random"
    S: dict[str, int] = {}
    P: dict[str, Num] = {}
    served: dict[str, ServedFlow] = {}
    for eid, P_max, theta, rated, lanes in cfg.edges:
        e = E[eid]
        S[eid] = 1 if e < theta else 0
        # gamma > 0, so only a lane's direction down its backlog differential
        # can weigh positive. Ties run lower-to-higher flows first, then
        # higher-to-lower, each in lane order: the sort below is stable.
        best, ties = 0, None
        for lo_key, hi_key, up_flow, down_flow in lanes:
            d = Q[lo_key] - Q[hi_key]
            if d > 0:
                w, flow = d - gamma, up_flow
            else:
                w, flow = -d - gamma, down_flow
            if w > best:
                best, ties = w, [flow]
            elif w == best and w > 0:
                ties.append(flow)
        if rated is None:
            P[eid] = mu = P_max if best + e - theta > 0 else 0
        else:
            P[eid] = p = key_consumption(best, e, theta, rated)
            mu = rated.mu_of_P(p)
        if mu > 0 and ties:
            if len(ties) > 1:
                ties.sort(key=lambda flow: flow.src > flow.dst)
            flow = ties[rng.randrange(len(ties))] if random_ties and len(ties) > 1 else ties[0]
            served[eid] = flow if rated is None else ServedFlow(flow.src, flow.dst, flow.dest, mu, mu)
    R: dict[tuple[str, str], Num] = {}
    V, R_max = cfg.V, cfg.R_max
    for pair, u, Vw in cfg.utilities:
        if Vw is None:
            R[pair] = admit(Q[pair], V, u, R_max)
        else:
            R[pair] = R_max if Q[pair] < Vw else 0
    return StepDecision(S=S, R=R, P=P, served=served)


def step(
    state: NetworkState,
    cfg: ScheduleConfig,
    rng: Random,
    decision: StepDecision | None = None,
) -> tuple[NetworkState, StepDecision, SlotAudit]:
    """Run one slot: decide, unless a decision is passed in, then apply.

    A passed-in decision is an injected one. Transfers move real data only:
    an edge whose sender holds less than the nominal rate moves what exists
    (dummy filler pads the wire, so keys are spent at nominal), and only
    such a flow is rebuilt with its smaller ``actual``. Arrivals at a
    commodity's destination leave the system immediately; destination
    queues stay pinned at zero.

    The controller's own flows always move their nominal rate; one that
    moves less raises StateInvariantError. The certified queue and store
    bounds are a preservation property: a controller step from a certified
    state must land inside them, and such steps raise StateInvariantError
    on any violation. Steps with an injected decision, or controller steps
    from a state already pushed outside the set by earlier injections,
    carry no such promise and skip the assert; an injected decision that
    overdraws a key store raises ValueError. Either way the new state is
    scanned once and the result kept as its ``certified``.
    """
    injected = decision is not None
    check_bounds = not injected and state.certified
    if not injected:
        decision = _controller_decision(state, cfg, rng)

    E, S, P = state.E, decision.S, decision.P
    margins = list(map(sub, map(E.__getitem__, cfg.eids), map(P.__getitem__, cfg.eids)))
    min_margin = min(margins)
    if injected and min_margin < 0:
        eid = next(eid for eid, margin in zip(cfg.eids, margins) if margin < 0)
        raise ValueError(
            f"injected decision overdraws key store on edge {eid!r} at slot {state.t}: spends {P[eid]} of {E[eid]}"
        )
    new_E = dict(zip(cfg.eids, map(add, margins, map(mul, map(S.__getitem__, cfg.eids), cfg.K))))

    new_Q = dict(state.Q)
    delivered: dict[str, Num] = dict.fromkeys(cfg.dests, 0)
    served = decision.served
    # sequential allocation in edge-id order: senders can never go negative
    for eid in sorted(served):
        flow = served[eid]
        avail = new_Q[(flow.src, flow.dest)]
        actual = flow.nominal if flow.nominal <= avail else avail
        new_Q[(flow.src, flow.dest)] = avail - actual
        if flow.dst == flow.dest:
            delivered[flow.dest] += actual
        else:
            new_Q[(flow.dst, flow.dest)] += actual
        if actual != flow.actual:
            if not injected:
                raise StateInvariantError(
                    f"controller step moved {actual} of nominal {flow.nominal} "
                    f"on edge {eid} at slot {state.t}"
                )
            if served is decision.served:
                served = dict(served)
            served[eid] = replace(flow, actual=actual)
    for pair, r in decision.R.items():
        new_Q[pair] += r
    if served is not decision.served:
        decision = replace(decision, served=served)

    new_state = NetworkState(state.t + 1, new_Q, new_E, certified=False)
    violation = _bounds_violation(new_state, cfg)
    if violation is not None and check_bounds:
        raise StateInvariantError(violation)
    new_state.certified = violation is None

    audit = SlotAudit(
        availability_ok=min_margin >= 0,
        min_key_margin=min_margin,
        delivered=delivered,
        bounds_checked=check_bounds,
    )
    return new_state, decision, audit


@dataclass(frozen=True)
class DriftAudit:
    """The slot's drift verdict. ``slack`` is ``2B - sum dQ^2 - sum dE^2``:

    twice the margin by which drift-minus-reward stays under its bound, an
    exact integer in exact mode. ``ok`` is ``slack >= 0``, less a rounding
    tolerance scaled to ``2B`` in float mode.
    """

    ok: bool
    slack: Num


def drift_audit(decision: StepDecision, cfg: ScheduleConfig) -> DriftAudit:
    """Check the slot's drift-minus-reward against its constant bound.

    The bound is checked under the nominal dynamics, where every served
    flow moves its full nominal rate: the form in which it holds for every
    bounded decision. There each queue moves by ``dQ`` (its admission, less
    what it sends, plus what it receives; a flow into its own destination
    has no receiving queue, and the bound weighs it against that
    destination's queue, which stays 0) and each key store by
    ``dE = S*K - P``. The
    doubled drift ``sum (Q + dQ)^2 - Q^2 + (g + dE)^2 - g^2`` with key gap
    ``g = E - theta`` expands to ``sum 2*Q*dQ + dQ^2 + 2*g*dE + dE^2``. Its
    linear terms are exactly the backlog and key-gap weights the bound
    grants (``2*Q*R``, ``2*mu*(Q_src - Q_dst)``, ``2*g*(S*K - P)``), and
    the reward ``2*V*U(R)`` stands on both sides, so all of them cancel
    (Neely, *Stochastic Network Optimization*, 2010): the inequality holds
    iff ``2B - sum dQ^2 - sum dE^2 >= 0``. The increments come straight
    from the decision, so no state is read; an injected flow whose sender
    ran short still counts at nominal, and ``step`` refuses a controller
    flow that moves less.
    """
    dQ = dict(decision.R)
    get = dQ.get
    for flow in decision.served.values():
        nominal = flow.nominal
        dest = flow.dest
        src = (flow.src, dest)
        dQ[src] = get(src, 0) - nominal
        if flow.dst != dest:
            dst = (flow.dst, dest)
            dQ[dst] = get(dst, 0) + nominal
    dq = dQ.values()
    slack = cfg.B2 - sum(map(mul, dq, dq))

    S, P = decision.S, decision.P
    for eid, K in zip(cfg.eids, cfg.K):
        dE = S[eid] * K - P[eid]
        slack -= dE * dE
    tol = 0 if cfg.exact else _FLOAT_RTOL * cfg.B2
    return DriftAudit(slack >= -tol, slack)
