"""Workload driver: runs the paper's application/mobility model.

Two entry points share one engine:

* :func:`generate_trace` -- run the mobile-system simulation *without*
  any protocol and emit the protocol-independent
  :class:`~repro.core.trace.Trace` used by the replay comparison.
* :func:`run_online` -- run the same workload with a checkpointing
  protocol embedded: piggybacks ride real messages and an optional
  non-zero checkpoint latency pauses the host after every checkpoint
  (the paper's robustness check on instantaneous insertion).

Per-host loops (paper Section 5.1):

* **application**: wait Exp(``internal_mean``) (the internal event),
  then communicate -- send to a uniform random other host with
  probability ``p_send``, otherwise perform a receive operation that
  consumes the oldest inbox message (no-op when empty unless
  ``block_on_empty_receive``).
* **mobility**: on entering a cell pre-decide switch (prob
  ``p_switch``, residence Exp(T_i)) or disconnect (residence
  Exp(T_i/3), away Exp(``disconnect_mean``)); disconnected hosts pause
  their application loop and reconnect into the same cell.

Both loops consult the config's registered *workload model*
(:mod:`repro.workload.registry`) for the shaping decisions -- arrival
delays, destination choice, residence scaling.  The default ``"paper"``
model reproduces the hard-coded behaviour above bit-identically.

Events never exist as objects here: the driver feeds each one's fields
into a column *sink* -- an in-memory
:class:`~repro.core.compiled.ColumnBuilder` by default, whose columns
become the returned trace's compiled form.  A third entry point,
:func:`generate_streamed`, runs the same simulation into a
:class:`~repro.core.streamed.StreamingCompiler` instead -- compiled SoA
blocks come out the other side with O(block) staging memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.streamed import StreamedTrace

from repro.core.compiled import (
    CELL_SWITCH,
    DISCONNECT,
    RECEIVE,
    RECONNECT,
    SEND,
    ColumnBuilder,
)
from repro.core.metrics import CheckpointStats, ProtocolRunMetrics
from repro.core.trace import Trace
from repro.des.core import Environment
from repro.des.rng import RandomStreams
from repro.mobility.heterogeneity import residence_means
from repro.mobility.models import MoveKind, PaperMobilityModel, make_cell_chooser
from repro.net.system import MobileSystem, NetworkParams
from repro.protocols.base import CheckpointingProtocol
from repro.workload.config import WorkloadConfig


@dataclass(slots=True)
class OnlineResult:
    """Outcome of an online (protocol-in-the-loop) run."""

    trace: Trace
    protocol: CheckpointingProtocol
    metrics: ProtocolRunMetrics
    system: MobileSystem
    #: Stable-storage bytes reclaimed by online GC (0 when disabled).
    gc_bytes_reclaimed: int = 0
    #: Bytes shipped over the wireless links for checkpoints (full
    #: snapshots, or dirty-page deltas under incremental checkpointing).
    bytes_shipped: int = 0


class _AllOthers:
    """Lazy ascending sequence of every host id except one.

    The destination-candidate set for ``send_to_connected_only=False``:
    ``_AllOthers(n, skip)[k]`` is ``k`` shifted past ``skip``, exactly
    the mapping :meth:`RandomStreams.choice_other` applies -- so the
    paper model's uniform draw over it stays bit-identical to the old
    direct ``choice_other`` call while costing O(1) memory per host
    (a materialized list would be O(n) per sender).
    """

    __slots__ = ("n", "skip")

    def __init__(self, n: int, skip: int):
        self.n = n
        self.skip = skip

    def __len__(self) -> int:
        return self.n - 1

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self.n - 1
        if not 0 <= index < self.n - 1:
            raise IndexError(index)
        return index if index < self.skip else index + 1

    def __iter__(self):
        for index in range(self.n - 1):
            yield index if index < self.skip else index + 1


class _Driver:
    """One simulated run; see module docstring for the model."""

    def __init__(
        self,
        config: WorkloadConfig,
        protocol: Optional[CheckpointingProtocol] = None,
        ckpt_latency: float = 0.0,
        gc_interval: Optional[float] = None,
        sink: Optional[ColumnBuilder] = None,
    ):
        config.validate()
        if ckpt_latency < 0:
            raise ValueError("ckpt_latency must be >= 0")
        if gc_interval is not None and gc_interval <= 0:
            raise ValueError("gc_interval must be positive")
        if protocol is not None and protocol.n_hosts != config.n_hosts:
            raise ValueError(
                f"protocol sized for {protocol.n_hosts} hosts, "
                f"config has {config.n_hosts}"
            )
        self.config = config
        self.protocol = protocol
        self.ckpt_latency = ckpt_latency
        self.env = Environment()
        self.rng = RandomStreams(config.seed)
        self.system = MobileSystem(
            self.env,
            NetworkParams(
                n_hosts=config.n_hosts,
                n_mss=config.n_mss,
                leg_latency=config.leg_latency,
                duplicate_prob=config.duplicate_prob,
                log_messages=config.log_messages_at_mss,
            ),
            self.rng,
        )
        self.mobility = PaperMobilityModel(
            residence_means(
                config.n_hosts,
                config.t_switch,
                config.heterogeneity,
                config.fast_factor,
            ),
            p_switch=config.p_switch,
            disconnect_mean=config.disconnect_mean,
            disconnect_residence_divisor=config.disconnect_residence_divisor,
        )
        self.chooser = make_cell_chooser(config.cell_chooser, config.n_mss)
        # Imported lazily: the registry must stay importable without
        # the driver (and vice versa).
        from repro.workload.registry import make_workload

        self.model = make_workload(config)
        #: Where emitted events go: an in-memory column builder by
        #: default, a caller-supplied one (e.g. a StreamingCompiler)
        #: otherwise.  Events are fed as plain fields, never objects.
        self.sink = (
            ColumnBuilder(config.n_hosts, config.n_mss, config.sim_time)
            if sink is None
            else sink
        )
        self._feed = self.sink.feed
        hosts = range(config.n_hosts)
        self._op_stream = [f"app/op/{h}" for h in hosts]
        self._pages_stream = [f"app/pages/{h}" for h in hosts]
        #: Per-host app-step and cell-switch callbacks, bound once.
        self._app_callback = [partial(self._app_step, h) for h in hosts]
        self._switch_callback = [partial(self._do_switch, h) for h in hosts]
        #: Destination candidates per sender: every other host, or (under
        #: ``send_to_connected_only``) the connected others, rebuilt when
        #: the system's connectivity version moves.
        self._candidates: dict[int, object] = {}
        self._candidates_version = -1
        self._app_paused = [False] * config.n_hosts
        self.n_sends = 0
        self.n_receives = 0
        self.gc_interval = gc_interval
        self.gc_bytes_reclaimed = 0
        #: Checkpoint-transfer pause owed per host (latency + bytes/bw).
        self._pending_pause = [0.0] * config.n_hosts
        #: Incremental-checkpointing machinery (paper Section 2.2).
        self._checkpointers = None
        self._cut_ordinal = [0] * config.n_hosts
        self._last_stored_index: list[Optional[int]] = [None] * config.n_hosts
        self.bytes_shipped = 0
        if protocol is not None:
            if config.incremental_checkpointing:
                from repro.storage.incremental import (
                    HostStateModel,
                    IncrementalCheckpointer,
                )

                self._checkpointers = [
                    IncrementalCheckpointer(
                        HostStateModel(
                            h, n_pages=config.state_pages,
                            page_bytes=config.page_bytes,
                        )
                    )
                    for h in range(config.n_hosts)
                ]
            # Checkpoints persist at the current MSS's stable storage
            # (paper Section 2.2, point (a)); QBC replacements overwrite
            # the record at the same (host, index).
            protocol.storage_hook = self._on_checkpoint
            # The initial checkpoints were taken in the protocol's
            # constructor, before the hook existed: persist them now.
            for ck in protocol.checkpoints:
                self._on_checkpoint(ck.host, ck.index, ck.reason, ck.metadata or {})

    # ------------------------------------------------------------------
    # checkpoint persistence + transfer-cost accounting (online mode)
    # ------------------------------------------------------------------
    def _on_checkpoint(self, host, index, reason, metadata) -> None:
        """Every protocol checkpoint lands here: persist it at the
        current MSS and charge the host the wireless transfer cost."""
        if reason == "rename":
            # metadata-only relabel: store a fresh record at the new
            # index, ship nothing, no pause
            self.system.store_checkpoint(
                host, index, reason, metadata=dict(metadata), size_bytes=0
            )
            self._last_stored_index[host] = index
            return
        incremental = False
        base_index = None
        if self._checkpointers is not None:
            ck = self._checkpointers[host]
            shipped = ck.cut(self._cut_ordinal[host])
            self._cut_ordinal[host] += 1
            if isinstance(shipped, dict):  # full snapshot (first cut)
                size_bytes = len(shipped) * self.config.page_bytes
            else:
                size_bytes = shipped.size_pages * self.config.page_bytes
                incremental = True
                base_index = self._last_stored_index[host]
        else:
            # full checkpointing ships the host's whole modelled state
            size_bytes = self.config.state_pages * self.config.page_bytes
        self.bytes_shipped += size_bytes
        self.system.store_checkpoint(
            host,
            index,
            reason,
            metadata=dict(metadata),
            size_bytes=size_bytes,
            incremental=incremental,
            base_index=base_index,
        )
        self._last_stored_index[host] = index
        pause = self.ckpt_latency
        if self.config.wireless_bandwidth != float("inf"):
            pause += size_bytes / self.config.wireless_bandwidth
        self._pending_pause[host] += pause

    def _ckpt_pause(self, host: int) -> float:
        """Consume the transfer pause owed by *host*."""
        pause = self._pending_pause[host]
        self._pending_pause[host] = 0.0
        return pause

    # ------------------------------------------------------------------
    # application loop
    # ------------------------------------------------------------------
    def _schedule_app(self, host: int, extra: float = 0.0) -> None:
        delay = (
            self.model.arrival_delay(host, self.rng, self.env.now) + extra
        )
        self.env.call_later(delay, self._app_callback[host])

    def _app_step(self, host: int) -> None:
        h = self.system.hosts[host]
        if not h.is_connected:
            self._app_paused[host] = True
            return
        if self._checkpointers is not None and self.config.dirty_pages_per_op:
            # the internal event mutates part of the host's state
            self._checkpointers[host].state.touch_random(
                self.rng.stream(self._pages_stream[host]),
                self.config.dirty_pages_per_op,
            )
        if self.rng.bernoulli(self._op_stream[host], self.config.p_send):
            self._do_send(host)
            self._schedule_app(host, extra=self._ckpt_pause(host))
        else:
            msg = h.try_receive()
            if msg is not None:
                self._consume(host, msg)
                self._schedule_app(host, extra=self._ckpt_pause(host))
            elif self.config.block_on_empty_receive:
                h.wait_receive(lambda m: self._blocked_receive_done(host, m))
            else:
                # Empty inbox: the receive operation is a no-op.
                self._schedule_app(host)

    def _blocked_receive_done(self, host: int, msg) -> None:
        self._consume(host, msg)
        self._schedule_app(host, extra=self._ckpt_pause(host))

    def _send_candidates(self, host: int):
        """Ascending destination ids *host* may send to (possibly empty)."""
        if not self.config.send_to_connected_only:
            others = self._candidates.get(host)
            if others is None:
                others = self._candidates[host] = _AllOthers(
                    self.config.n_hosts, host
                )
            return others
        version = self.system.connectivity_version
        if version != self._candidates_version:
            self._candidates.clear()
            self._candidates_version = version
        others = self._candidates.get(host)
        if others is None:
            others = self._candidates[host] = tuple(
                h for h in self.system.connected_hosts() if h != host
            )
        return others

    def _do_send(self, host: int) -> Optional[int]:
        """One send operation; the sent message's id, or ``None`` when
        the operation was a no-op."""
        others = self._send_candidates(host)
        if not others:
            return None  # nobody reachable: the send operation is a no-op
        now = self.env.now
        dst = self.model.choose_destination(host, others, self.rng, now)
        if dst is None:
            return None  # the model dropped the send: a no-op
        piggyback = {}
        pg_ints = 0
        if self.protocol is not None:
            piggyback = {"pg": self.protocol.on_send(host, dst, now)}
            pg_ints = self.protocol.piggyback_ints
        msg = self.system.send_application(
            host, dst, piggyback=piggyback, piggyback_ints=pg_ints
        )
        self.n_sends += 1
        self._feed(now, SEND, host, msg.msg_id, dst)
        return msg.msg_id

    def _consume(self, host: int, msg) -> None:
        now = self.env.now
        if self.protocol is not None:
            self.protocol.on_receive(host, msg.piggyback["pg"], msg.src, now)
        self.n_receives += 1
        self._feed(now, RECEIVE, host, msg.msg_id, msg.src)

    # ------------------------------------------------------------------
    # mobility loop
    # ------------------------------------------------------------------
    def _enter_cell(self, host: int) -> None:
        decision = self.mobility.decide(host, self.rng)
        # The workload model may stretch/shrink residence (day/night
        # modulation); the paper model's 1.0 leaves it bit-identical.
        residence = decision.residence * self.model.residence_scale(
            host, self.env.now
        )
        if decision.kind is MoveKind.SWITCH:
            self.env.call_later(residence, self._switch_callback[host])
        else:
            self.env.call_later(
                residence,
                partial(self._do_disconnect, host, decision.away_time),
            )

    def _do_switch(self, host: int) -> None:
        now = self.env.now
        old = self.system.hosts[host].mss_id
        new = self.chooser.next_cell(host, old, self.rng)
        self._feed(now, CELL_SWITCH, host, -1, old, new)
        if self.protocol is not None:
            self.protocol.on_cell_switch(host, now, new)
        self.system.switch_cell(host, new)
        self._enter_cell(host)

    def _do_disconnect(self, host: int, away_time: float) -> None:
        self._feed(self.env.now, DISCONNECT, host)
        if self.protocol is not None:
            self.protocol.on_disconnect(host, self.env.now)
        self.system.disconnect(host)
        self.env.call_later(away_time, partial(self._do_reconnect, host))

    def _do_reconnect(self, host: int) -> None:
        self.system.reconnect(host)
        cell = self.system.hosts[host].mss_id
        self._feed(self.env.now, RECONNECT, host, -1, -1, cell)
        if self.protocol is not None:
            self.protocol.on_reconnect(host, self.env.now, cell)
        if self._app_paused[host]:
            self._app_paused[host] = False
            self._schedule_app(host)
        self._enter_cell(host)

    # ------------------------------------------------------------------
    # storage garbage collection (index-based protocols only)
    # ------------------------------------------------------------------
    def _gc_tick(self) -> None:
        from repro.storage.gc import collect_garbage

        cutoff = min(self.protocol.sn)
        self.gc_bytes_reclaimed += collect_garbage(
            [s.storage for s in self.system.stations], cutoff
        )
        self.env.call_later(self.gc_interval, self._gc_tick)

    # ------------------------------------------------------------------
    def _run_sim(self) -> None:
        """Schedule the per-host loops and run the DES to the horizon."""
        for host in range(self.config.n_hosts):
            self._schedule_app(host)
            self._enter_cell(host)
        if self.gc_interval is not None:
            if self.protocol is None or not hasattr(self.protocol, "sn"):
                raise ValueError(
                    "gc_interval needs an index-based protocol (with .sn): "
                    "the recovery-line cutoff comes from min(sn)"
                )
            self.env.call_later(self.gc_interval, self._gc_tick)
        self.env.run(until=self.config.sim_time)
        # The run is over.  The pending agenda and the per-host
        # callbacks reference this driver: drop them so the finished
        # simulation is freed by reference counting, not left for the
        # cyclic garbage collector to find cells later.
        self.env.close()
        self._app_callback = self._switch_callback = ()

    def run(self) -> Trace:
        """Run the simulation; the column-backed trace it emitted."""
        self._run_sim()
        return Trace.from_compiled(self.sink.finish(), self.config.meta())


def generate_trace(config: WorkloadConfig) -> Trace:
    """Simulate the mobile system and return its event trace.

    The trace is protocol-independent (the paper's instantaneous-
    checkpoint assumption) and fully determined by ``config`` including
    its ``seed``.
    """
    return _Driver(config).run()


def generate_streamed(
    config: WorkloadConfig,
    block_events: Optional[int] = None,
) -> "StreamedTrace":
    """Simulate the mobile system, compiling SoA blocks on the fly.

    Equivalent to ``compile_trace(generate_trace(config))`` -- the
    returned :class:`~repro.core.streamed.StreamedTrace` reconstructs a
    bit-identical :class:`~repro.core.compiled.CompiledTrace` -- but
    the driver feeds a :class:`~repro.core.streamed.StreamingCompiler`
    instead of the in-memory column builder, so peak staging memory is
    O(*block_events*) python objects plus the compact numpy output
    blocks.
    """
    from repro.core.streamed import StreamingCompiler

    kwargs = {} if block_events is None else {"block_events": block_events}
    compiler = StreamingCompiler(
        n_hosts=config.n_hosts,
        n_mss=config.n_mss,
        sim_time=config.sim_time,
        **kwargs,
    )
    _Driver(config, sink=compiler)._run_sim()
    return compiler.finish()


def run_online(
    config: WorkloadConfig,
    protocol: CheckpointingProtocol,
    ckpt_latency: float = 0.0,
    gc_interval: Optional[float] = None,
) -> OnlineResult:
    """Run the workload with *protocol* embedded in the simulation.

    ``ckpt_latency`` > 0 makes every checkpoint pause the host's
    application loop by that amount before the next operation -- the
    "non negligible" checkpoint-time scenario of Section 5.1.

    Checkpoints persist in the current MSS's stable storage (including
    the cross-MSS base migration after handoffs).  With ``gc_interval``
    set (index-based protocols only), obsolete records below the
    recovery-line cutoff ``min(sn)`` are reclaimed periodically; the
    reclaimed bytes are reported on the returned system's driver.
    """
    driver = _Driver(
        config, protocol=protocol, ckpt_latency=ckpt_latency,
        gc_interval=gc_interval,
    )
    trace = driver.run()
    metrics = ProtocolRunMetrics(
        protocol=protocol.name,
        stats=CheckpointStats.from_protocol(protocol),
        n_sends=driver.n_sends,
        n_receives=driver.n_receives,
        piggyback_ints_total=driver.n_sends * protocol.piggyback_ints,
        sim_time=config.sim_time,
        seed=config.seed,
    )
    return OnlineResult(
        trace=trace,
        protocol=protocol,
        metrics=metrics,
        system=driver.system,
        gc_bytes_reclaimed=driver.gc_bytes_reclaimed,
        bytes_shipped=driver.bytes_shipped,
    )
