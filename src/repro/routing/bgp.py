"""BGP-style path-vector protocol (paper §3, shortest-path policy).

Modeling choices follow the paper exactly:

* one node = one AS; the best path to each destination is announced to every
  neighbor over a reliable in-order session (TCP abstraction) — routes are
  advertised once, with no periodic refresh;
* a received path containing the receiver is a routing loop and is treated
  as a withdrawal (receiver-side poison, "similar to split horizon with
  poison reverse");
* explicit withdrawal messages are sent when reachability is lost and are
  **exempt** from the MRAI timer;
* announcements to a neighbor are rate-limited by a per-neighbor MRAI timer
  (the vendor-common implementation the paper simulates); a
  per-(neighbor, destination) variant is available for the ablation the
  paper speculates about in §5.2;
* MRAI semantics per the paper's §4.3: "after a router has processed all the
  changed paths and sent out corresponding updates, it turns on the MRAI
  timer" — so every export triggered by one received event goes out in the
  same burst, and only *subsequent* changes are delayed.  Updates for
  different destinations cannot share a message (each destination has its
  own path), which is why one failure fans out into several updates — the
  effect behind the paper's Figure 4 analysis;
* preference: shortest path, ties broken by lowest next-hop id.

Two parameterizations reproduce the paper's curves: ``BgpConfig.standard()``
(MRAI ~U(25,35), mean 30 s) and ``BgpConfig.fast()`` (MRAI ~U(2.5,3.5), mean
3 s — the paper's specially parameterized variant, named BGP-3 here).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional

from ..net.network import Network
from ..net.node import Node
from ..sim.rng import RngStreams
from ..sim.timers import OneShotTimer
from ..topology.graph import Topology, all_shortest_path_trees, destination_path_trees
from .base import SessionProtocol
from .damping import DampingConfig, RouteDampener
from .messages import PathVectorUpdate, PathVectorWithdrawal
from .rib import PathAttr

__all__ = ["BgpConfig", "BgpProtocol"]

#: ``network -> (topology, dests, {node: {dest: PathAttr}})``: the warm-start
#: paths, built once per network and shared by its routers.  Weak keys, so
#: the paths are freed with the network rather than kept per topology.
_WARM_PATHS: weakref.WeakKeyDictionary[Network, tuple] = weakref.WeakKeyDictionary()


def _warm_paths(
    network: Network, topology: Topology, dests: Optional[Iterable[int]]
) -> dict[int, dict[int, PathAttr]]:
    """Every node's warm-start path (``[node, ..., dest]``) to each destination.

    With ``dests`` (10k-node sharded runs) only paths toward those
    destinations are built, from destination-rooted trees: one Dijkstra per
    destination instead of one per router.  The result is prefix-closed and
    loop-free but not byte-identical to the unrestricted table, whose
    tie-breaks are source-rooted.
    """
    wanted = None if dests is None else frozenset(dests)
    entry = _WARM_PATHS.get(network)
    if entry is None or entry[0] is not topology or entry[1] != wanted:
        if wanted is None:
            trees = all_shortest_path_trees(topology)
        else:
            trees = {}
            for dest, tree in destination_path_trees(topology, wanted).items():
                for node, path in tree.items():
                    trees.setdefault(node, {})[dest] = path
        table = {
            node: {dest: PathAttr(tuple(path)) for dest, path in found.items()}
            for node, found in trees.items()
        }
        entry = _WARM_PATHS[network] = (topology, wanted, table)
    return entry[2]


@dataclass(frozen=True)
class BgpConfig:
    """MRAI parameterization and implementation options."""

    mrai_base: float = 30.0
    mrai_jitter: float = 5.0
    per_destination_mrai: bool = False
    withdrawals_exempt: bool = True
    #: Sender-side loop detection: do not announce a path to a neighbor that
    #: appears in it (advertise a withdrawal instead).  Off by default — the
    #: paper models receiver-side detection only; SSLD is this package's
    #: ablation of that choice.
    sender_side_loop_detection: bool = False
    #: Optional RFC 2439 route flap damping (see repro.routing.damping).
    damping: Optional[DampingConfig] = None
    label: str = "bgp"

    def __post_init__(self) -> None:
        if self.mrai_base < 0:
            raise ValueError("mrai_base must be >= 0")
        if not 0 <= self.mrai_jitter <= self.mrai_base:
            raise ValueError("mrai_jitter out of range")

    @classmethod
    def standard(cls) -> "BgpConfig":
        """RFC-recommended ~30 s average MRAI."""
        return cls()

    @classmethod
    def fast(cls) -> "BgpConfig":
        """The paper's ~3 s average MRAI variant (named BGP-3 here)."""
        return cls(mrai_base=3.0, mrai_jitter=0.5, label="bgp3")


class BgpProtocol(SessionProtocol):
    """Path-vector speaker bound to one node."""

    name = "bgp"

    def __init__(
        self,
        node: Node,
        rng_streams: RngStreams,
        network: Network,
        config: Optional[BgpConfig] = None,
    ) -> None:
        self.config = config or BgpConfig.standard()
        self.name = self.config.label
        super().__init__(node, rng_streams, network)
        self.rib_in: dict[int, dict[int, PathAttr]] = {}
        self.rib_out: dict[int, dict[int, PathAttr]] = {}
        self.best: dict[int, PathAttr] = {}
        self._mrai_timers: dict[Hashable, OneShotTimer] = {}
        self._mrai_pending: dict[Hashable, set[int]] = {}
        # Per-event export batches ("process all changed paths, send the
        # updates, then turn on MRAI").
        self._batch_announce: dict[int, set[int]] = {}
        self._batch_withdraw: dict[int, set[int]] = {}
        self._dampener: Optional[RouteDampener] = None
        if self.config.damping is not None:
            self._dampener = RouteDampener(
                self.sim, self.config.damping, on_reuse=self._damping_reuse
            )

    # --------------------------------------------------------------- lifecycle

    def start(self) -> None:
        for nbr in self.node.up_neighbors():
            self._open_session(nbr)
        for nbr in self.node.up_neighbors():
            self._export(nbr, self.node.id)
        self._flush_batch()

    def warm_start(
        self, topology: Topology, dests: Optional[Iterable[int]] = None
    ) -> None:
        # Paths come from one table per network (see _warm_paths), shared by
        # reference: rib_in[nbr] holds the neighbor's own path objects, and
        # rib_out[nbr] this router's, which equal best.prepend(me).
        me = self.node.id
        paths = _warm_paths(self.network, topology, dests)
        mine = paths.get(me, {})
        for dest, attr in mine.items():
            if dest != me:
                hop = attr.nodes[1]
                self.best[dest] = paths[hop][dest]  # trees are suffix-closed
                self.node.set_next_hop(dest, hop)
        ssld = self.config.sender_side_loop_detection
        for nbr in self.node.up_neighbors():
            self._open_session(nbr)
            self.rib_in[nbr] = {
                dest: attr
                for dest, attr in paths.get(nbr, {}).items()
                if me not in attr.nodes
            }
            # What we have already advertised to this neighbor (SSLD: a path
            # through nbr never was).
            out = self.rib_out[nbr] = (
                {dest: attr for dest, attr in mine.items() if nbr not in attr.nodes}
                if ssld
                else dict(mine)
            )
            out.setdefault(me, PathAttr((me,)))

    def _open_session(self, neighbor: int) -> bool:
        self.rib_in.setdefault(neighbor, {})
        self.rib_out.setdefault(neighbor, {})
        return super()._open_session(neighbor)

    # ------------------------------------------------------------------ events

    def handle_message(self, payload: Any, from_node: int) -> None:
        if from_node not in self._channels:
            return  # session no longer exists
        if isinstance(payload, PathVectorUpdate):
            self._handle_announcement(payload, from_node)
        elif isinstance(payload, PathVectorWithdrawal):
            self._handle_withdrawal(payload, from_node)
        else:
            raise TypeError(f"bgp got unexpected payload {type(payload).__name__}")
        self._flush_batch()

    def _handle_announcement(self, update: PathVectorUpdate, from_node: int) -> None:
        for dest in update.dests:
            if dest == self.node.id:
                continue
            if update.path.contains(self.node.id):
                # Loop detected: treat as a withdrawal (paper's §3 choice).
                removed = self.rib_in[from_node].pop(dest, None)
                if removed is not None:
                    self._record_flap(from_node, dest, withdrawal=True)
                    if self._reselect(dest):
                        self._export_all(dest)
                continue
            previous = self.rib_in[from_node].get(dest)
            self.rib_in[from_node][dest] = update.path
            if previous is not None and previous != update.path:
                self._record_flap(from_node, dest, withdrawal=False)
            if self._reselect(dest):
                self._export_all(dest)

    def _handle_withdrawal(self, withdrawal: PathVectorWithdrawal, from_node: int) -> None:
        for dest in withdrawal.dests:
            removed = self.rib_in[from_node].pop(dest, None)
            if removed is not None:
                self._record_flap(from_node, dest, withdrawal=True)
                if self._reselect(dest):
                    self._export_all(dest)

    # ----------------------------------------------------------- flap damping

    def _record_flap(self, neighbor: int, dest: int, withdrawal: bool) -> None:
        if self._dampener is None:
            return
        key = (neighbor, dest)
        if withdrawal:
            self._dampener.record_withdrawal(key)
        else:
            self._dampener.record_readvertisement(key)

    def _damping_reuse(self, key) -> None:
        _, dest = key
        with self.route_cause("damping_reuse", dest):
            if self._reselect(dest):
                self._export_all(dest)
        self._flush_batch()

    def handle_link_down(self, neighbor: int) -> None:
        self._close_session(neighbor)
        if self._dampener is not None:
            self._dampener.forget(neighbor)
        lost = self.rib_in.pop(neighbor, {})
        self.rib_out.pop(neighbor, None)
        self._batch_announce.pop(neighbor, None)
        self._batch_withdraw.pop(neighbor, None)
        for key in list(self._mrai_timers):
            if key == neighbor or (isinstance(key, tuple) and key[0] == neighbor):
                self._mrai_timers.pop(key).cancel()
                self._mrai_pending.pop(key, None)
        for dest in sorted(lost):
            if self._reselect(dest):
                self._export_all(dest)
        self._flush_batch()

    def handle_link_up(self, neighbor: int) -> None:
        self._open_session(neighbor)
        self._export(neighbor, self.node.id)
        for dest in sorted(self.best):
            self._export(neighbor, dest)
        self._flush_batch()

    # --------------------------------------------------------------- selection

    def _reselect(self, dest: int) -> bool:
        """Re-run best-path selection for ``dest``; True if the best changed."""
        candidates = []
        for nbr in sorted(self._channels):
            path = self.rib_in.get(nbr, {}).get(dest)
            if path is None:
                continue
            if self._dampener is not None and self._dampener.is_suppressed((nbr, dest)):
                continue  # damped: present in rib_in but unusable
            candidates.append(path)
        new_best = min(candidates, key=PathAttr.preference_key, default=None)
        old_best = self.best.get(dest)
        if new_best == old_best:
            return False
        if new_best is None:
            del self.best[dest]
            self.node.set_next_hop(dest, None)
        else:
            self.best[dest] = new_best
            self.node.set_next_hop(dest, new_best.first_hop)
        return True

    def route_metric(self, dest: int) -> Optional[int]:
        if dest == self.node.id:
            return 0
        best = self.best.get(dest)
        return None if best is None else len(best)

    # ------------------------------------------------------------------ export

    def _export_all(self, dest: int) -> None:
        for nbr in sorted(self._channels):
            self._export(nbr, dest)

    def _export(self, neighbor: int, dest: int) -> None:
        """Queue neighbor's view of ``dest`` for synchronization at the end of
        the current event; withdrawals bypass MRAI, announcements respect it."""
        if neighbor not in self._channels:
            return
        export_path = self._export_path(dest, neighbor)
        if export_path == self.rib_out.setdefault(neighbor, {}).get(dest):
            return
        if export_path is None and self.config.withdrawals_exempt:
            self._batch_withdraw.setdefault(neighbor, set()).add(dest)
            self._batch_announce.get(neighbor, set()).discard(dest)
            return
        # Announcement (or non-exempt withdrawal): held while MRAI is running.
        key = self._mrai_key(neighbor, dest)
        timer = self._mrai_timers.get(key)
        if timer is not None and timer.running:
            self._mrai_pending.setdefault(key, set()).add(dest)
            return
        self._batch_announce.setdefault(neighbor, set()).add(dest)
        self._batch_withdraw.get(neighbor, set()).discard(dest)

    def _export_path(self, dest: int, neighbor: Optional[int] = None) -> Optional[PathAttr]:
        if dest == self.node.id:
            return PathAttr.of((self.node.id,))
        best = self.best.get(dest)
        if best is None:
            return None
        if (
            neighbor is not None
            and self.config.sender_side_loop_detection
            and best.contains(neighbor)
        ):
            return None  # SSLD: the neighbor would discard it anyway
        return best.prepend(self.node.id)

    def _mrai_key(self, neighbor: int, dest: int) -> Hashable:
        if self.config.per_destination_mrai:
            return (neighbor, dest)
        return neighbor

    def _flush_batch(self) -> None:
        """Send every export queued during this event, then arm MRAI."""
        withdraws, self._batch_withdraw = self._batch_withdraw, {}
        announces, self._batch_announce = self._batch_announce, {}
        for nbr in sorted(withdraws):
            dests = [
                d
                for d in sorted(withdraws[nbr])
                if self._export_path(d, nbr) is None
                and d in self.rib_out.setdefault(nbr, {})
            ]
            if dests:
                self._send_withdrawal(nbr, dests)
        for nbr in sorted(announces):
            sent_dests = []
            for dest in sorted(announces[nbr]):
                if self._send_current(nbr, dest):
                    sent_dests.append(dest)
            if not sent_dests:
                continue
            if self.config.per_destination_mrai:
                for dest in sent_dests:
                    self._start_mrai((nbr, dest), nbr)
            else:
                self._start_mrai(nbr, nbr)

    def _send_current(self, neighbor: int, dest: int) -> bool:
        """Synchronize the neighbor's view of ``dest`` right now (announce or
        withdraw); returns True if something was sent."""
        if neighbor not in self._channels:
            return False
        advertised = self.rib_out.setdefault(neighbor, {})
        export_path = self._export_path(dest, neighbor)
        if export_path == advertised.get(dest):
            return False
        if export_path is None:
            self._send_withdrawal(neighbor, [dest])
            return True
        update = PathVectorUpdate(path=export_path, dests=(dest,))
        if not self._send_reliable(neighbor, update):
            return False
        advertised[dest] = export_path
        return True

    def _send_withdrawal(self, neighbor: int, dests: list[int]) -> None:
        if neighbor not in self._channels:
            return
        advertised = self.rib_out.setdefault(neighbor, {})
        for dest in dests:
            advertised.pop(dest, None)
        message = PathVectorWithdrawal(dests=tuple(sorted(dests)))
        self._send_reliable(neighbor, message, len(dests), is_withdrawal=True)

    def _start_mrai(self, key: Hashable, neighbor: int) -> None:
        if self.config.mrai_base <= 0:
            return
        timer = self._mrai_timers.get(key)
        if timer is None:
            timer = OneShotTimer(self.sim, lambda: self._mrai_expired(key, neighbor))
            self._mrai_timers[key] = timer
        delay = (
            self.rng.uniform(
                self.config.mrai_base - self.config.mrai_jitter,
                self.config.mrai_base + self.config.mrai_jitter,
            )
            if self.config.mrai_jitter > 0
            else self.config.mrai_base
        )
        timer.start(delay)

    def _mrai_expired(self, key: Hashable, neighbor: int) -> None:
        pending = self._mrai_pending.pop(key, None)
        if not pending or neighbor not in self._channels:
            return
        sent_any = False
        for dest in sorted(pending):
            if self._send_current(neighbor, dest):
                sent_any = True
        if sent_any:
            self._start_mrai(key, neighbor)
