"""Workload generation: §VI-A loads plus day-in-the-life traffic models.

The paper uses two workloads:

* **static** — the system is saturated; clients send at a constant rate;
* **dynamic** — "the experiment starts with a single client.  We then
  progressively increase the number of clients up to 10.  Then we
  simulate a load spike, with 50 clients.  At last, the number of
  clients progressively decreases, until there is only one client".

We reproduce the dynamic shape as a piecewise client-count profile
multiplied by a per-client request rate.  A single generator process
produces the aggregate arrival stream, tagging arrivals with client
identities round-robin over the active clients (so per-client fairness
monitoring still sees individual clients).

Beyond the paper, this module ships production-shaped profiles for the
workload registry (:mod:`repro.clients.registry`): a quantized diurnal
sinusoid, a flash crowd, rolling client churn and a heavy-request
payload mix.

Construct profiles through :func:`repro.clients.registry.build_profile`
— the constructors here are the registry's implementation detail
(enforced by ``tools/lint_builders.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.metrics.recorder import window_percentile
from repro.sim.engine import Simulator

from .openloop import OpenLoopClient
from .population import ClientPopulation

__all__ = [
    "RateProfile",
    "static_profile",
    "dynamic_profile",
    "diurnal_profile",
    "flash_crowd_profile",
    "churn_profile",
    "heavy_mix_profile",
    "LoadGenerator",
]


@dataclass(frozen=True)
class RateProfile:
    """A time-varying offered load."""

    rate_fn: Callable[[float], float]  # time -> aggregate requests/second
    active_fn: Callable[[float], int]  # time -> number of active clients
    duration: float
    #: rolling-churn support: maps time to the index of the first client
    #: in the currently-active identity window.  ``None`` (the default)
    #: keeps the classic fixed round-robin assignment.
    window_fn: Optional[Callable[[float], int]] = None
    #: per-request payload mix: a cyclic tuple of ``(payload_size,
    #: exec_cost)`` overrides applied round-robin to generated requests;
    #: ``None`` entries inside a pair fall through to the client/default
    #: values.  ``None`` (the default) sends the plain request mix.
    mix: Optional[Tuple[Tuple[Optional[int], Optional[float]], ...]] = None

    def rate(self, t: float) -> float:
        return max(0.0, self.rate_fn(t))

    def active(self, t: float) -> int:
        return max(1, self.active_fn(t))

    def mean_rate(self, samples: int = 4096) -> float:
        """Time-averaged offered rate over the profile's duration.

        Computed numerically (midpoint rule) so it is exact for the
        piecewise-constant profiles used here up to phase-boundary
        rounding; for a static profile it equals the constant rate.
        """
        if self.duration <= 0 or samples <= 0:
            return 0.0
        step = self.duration / samples
        total = 0.0
        for i in range(samples):
            total += self.rate((i + 0.5) * step)
        return total / samples


def static_profile(rate: float, duration: float, clients: int = 10) -> RateProfile:
    """A saturating constant load."""
    return RateProfile(lambda t: rate, lambda t: clients, duration)


def dynamic_profile(
    per_client_rate: float,
    duration: float,
    ramp_clients: int = 10,
    spike_clients: int = 50,
) -> RateProfile:
    """The paper's spike workload, scaled to ``duration``.

    Phases (fractions of the experiment): ramp 1→10 clients (30 %),
    spike at 50 clients (20 %), ramp 10→1 clients (30 %), with plateaus
    around the spike (20 % combined).
    """

    def clients_at(t: float) -> int:
        x = t / duration
        if x < 0.30:  # ramp up 1 -> ramp_clients
            return 1 + int((ramp_clients - 1) * (x / 0.30))
        if x < 0.40:  # plateau before the spike
            return ramp_clients
        if x < 0.60:  # load spike
            return spike_clients
        if x < 0.70:  # plateau after the spike
            return ramp_clients
        if x <= 1.0:  # ramp down ramp_clients -> 1
            return max(1, ramp_clients - int((ramp_clients - 1) * ((x - 0.70) / 0.30)))
        return 1

    return RateProfile(
        lambda t: clients_at(t) * per_client_rate, clients_at, duration
    )


def diurnal_profile(
    peak_rate: float,
    duration: float,
    clients: int = 10,
    steps: int = 24,
    floor: float = 0.1,
) -> RateProfile:
    """A day-in-the-life sinusoid quantized to ``steps`` constant levels.

    The run maps onto one simulated "day": load starts near the
    ``floor`` fraction of ``peak_rate`` (night), rises through a midday
    peak and falls back, holding each of the ``steps`` piecewise-constant
    hourly levels for one step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    step = duration / steps
    levels = tuple(
        peak_rate * (
            floor
            + (1.0 - floor) * 0.5 * (1.0 - math.cos(2.0 * math.pi * (i + 0.5) / steps))
        )
        for i in range(steps)
    )

    def rate_at(t: float) -> float:
        return levels[min(steps - 1, max(0, int(t / step)))]

    return RateProfile(rate_at, lambda t: clients, duration)


def flash_crowd_profile(
    base_rate: float,
    duration: float,
    clients: int = 10,
    surge: float = 5.0,
    start: float = 0.45,
    end: float = 0.60,
) -> RateProfile:
    """A flash crowd: baseline load with a ``surge``× burst window.

    Outside the burst only a tenth of the declared population is
    active; the burst window activates everyone at ``surge`` times the
    baseline rate — the §VI-A spike generalised to arbitrary
    population sizes.
    """
    if not 0.0 <= start < end <= 1.0:
        raise ValueError("surge window must satisfy 0 <= start < end <= 1")
    lo = start * duration
    hi = end * duration

    def rate_at(t: float) -> float:
        return base_rate * surge if lo <= t < hi else base_rate

    def active_at(t: float) -> int:
        return clients if lo <= t < hi else max(1, clients // 10)

    return RateProfile(rate_at, active_at, duration)


def churn_profile(
    rate: float,
    duration: float,
    clients: int = 10,
    window_fraction: float = 0.1,
) -> RateProfile:
    """Rolling client churn: a sliding window of active identities.

    The offered rate is constant, but the set of identities issuing
    requests rolls through the whole declared population over the run —
    ``window_fraction`` of the population is active at any instant, and
    the window's start index advances linearly with time.  Exercises
    blacklist/fairness state growth under identity turnover.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window_fraction must be in (0, 1]")
    window = max(1, int(clients * window_fraction))
    return RateProfile(
        lambda t: rate,
        lambda t: window,
        duration,
        window_fn=lambda t: int((t / duration) * clients) if duration > 0 else 0,
    )


def heavy_mix_profile(
    rate: float,
    duration: float,
    clients: int = 10,
    heavy_cost: float = 200e-6,
) -> RateProfile:
    """A payload mix with periodic heavy requests (Prime-attack shaped).

    Seven of every eight requests are plain; the sixth carries a 1 KiB
    payload and the eighth a 4 KiB payload with an inflated execution
    cost — the "heavy requests" lever of §VI-C issued as legitimate
    traffic, stressing batching and fairness under mixed request sizes.
    """
    return RateProfile(
        lambda t: rate,
        lambda t: clients,
        duration,
        mix=(
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (1024, None), (None, None), (4096, heavy_cost),
        ),
    )


class LoadGenerator:
    """Drives a pool of open-loop clients according to a profile.

    ``clients`` may be a sequence of :class:`OpenLoopClient` (each
    request goes to one concrete client object) or a single
    :class:`ClientPopulation` (requests carry sampled virtual
    identities).  Either way, one generator process produces the
    aggregate arrival stream.
    """

    def __init__(
        self,
        sim: Simulator,
        clients: Union[Sequence[OpenLoopClient], ClientPopulation],
        profile: RateProfile,
        rng,
        poisson: bool = True,
        send_kwargs: Optional[dict] = None,
    ):
        if isinstance(clients, ClientPopulation):
            self.population: Optional[ClientPopulation] = clients
            # The population quacks like one client for the aggregate
            # accessors below (sent/completed/latencies), so a
            # population run is a one-element pool.
            self.clients = [clients]
        else:
            if not clients:
                raise ValueError("need at least one client")
            self.population = None
            self.clients = list(clients)
        self.sim = sim
        self.profile = profile
        self.rng = rng
        self.poisson = poisson
        self.send_kwargs = send_kwargs or {}
        self._round_robin = 0
        self.generated = 0
        self._process = None

    def start(self):
        self._process = self.sim.process(self._run(), name="load-generator")
        return self._process

    def _run(self):
        start = self.sim.now
        end = start + self.profile.duration
        while self.sim.now < end:
            t = self.sim.now - start
            rate = self.profile.rate(t)
            if rate <= 0:
                yield self.sim.timeout(1e-3)
                continue
            if self.poisson:
                gap = self.rng.expovariate(rate)
            else:
                gap = 1.0 / rate
            if self.sim.now + gap >= end:
                break
            yield self.sim.timeout(gap)
            self._fire(self.sim.now - start)

    def _fire(self, t: float) -> None:
        profile = self.profile
        kwargs = self.send_kwargs
        if profile.mix is not None:
            payload_size, exec_cost = profile.mix[self.generated % len(profile.mix)]
            if payload_size is not None or exec_cost is not None:
                kwargs = dict(kwargs)
                if payload_size is not None:
                    kwargs["payload_size"] = payload_size
                if exec_cost is not None:
                    kwargs["exec_cost"] = exec_cost
        population = self.population
        if population is not None:
            if population.sampling == "uniform":
                population.send_request(None, **kwargs)
            else:
                active = min(profile.active(t), population.size)
                index = self._round_robin % active
                if profile.window_fn is not None:
                    index = (profile.window_fn(t) + index) % population.size
                self._round_robin += 1
                population.send_request(index, **kwargs)
        else:
            active = min(profile.active(t), len(self.clients))
            index = self._round_robin % active
            if profile.window_fn is not None:
                index = (profile.window_fn(t) + index) % len(self.clients)
            self._round_robin += 1
            self.clients[index].send_request(**kwargs)
        self.generated += 1

    # ----------------------------------------------------------- aggregates
    def total_completed(self) -> int:
        return sum(client.completed for client in self.clients)

    def total_sent(self) -> int:
        return sum(client.sent for client in self.clients)

    def mean_latency(self) -> float:
        """Exact mean over every completed request (streaming totals)."""
        total = 0.0
        count = 0
        for client in self.clients:
            total += client.latencies.total
            count += client.latencies.count
        return total / count if count else 0.0

    def latency_percentile(self, p: float) -> float:
        """Percentile over each client's retained sample window."""
        return window_percentile([client.latencies for client in self.clients], p)
