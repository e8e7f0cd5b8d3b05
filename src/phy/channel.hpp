// Unit-disk broadcast radio channel with receiver-side collision semantics.
//
// Model (documented in DESIGN.md §5):
//  * A transmission is heard by every attached node within `radiusMeters`
//    of the transmitter at transmission start (mobility during one ~2.4 ms
//    frame is negligible at vehicular speeds).
//  * Any overlap of two frames at a receiver corrupts both there (no
//    capture); a node transmitting during any part of an incoming frame
//    loses that frame (half-duplex). Corrupted frames still assert energy:
//    carrier-sense stays busy for their whole duration.
//  * Hidden terminals arise naturally: a node out of range of an ongoing
//    transmission senses an idle medium and may transmit into a common
//    receiver.
//
// The channel is also the position oracle: it reads node positions from one
// PositionSource and exposes range queries used by the world's connectivity
// snapshots.
//
// Range resolution (DESIGN.md §7.1): queries go through an anchored uniform
// grid (cell size = radio radius + skin). Each node's cell is fixed by its
// anchor, the position it had at the last full rebuild; the cells are
// rebuilt when a node strays almost a skin from its anchor or a node
// attaches. A new simulation-time epoch only marks the epoch with the
// position source. A query then reads its centre, and of the occupants of
// the cells it scans only those whose anchor cannot settle whether they
// are in range. Every node is read (verified against its anchor) only once
// the source's speed bound can no longer show that all nodes stay within
// the margin. So `transmit`/`nodesInRange` examine only the 3x3 cell
// neighborhood and read few of its nodes, not every node per query or per
// epoch. `setGridEnabled(false)` restores the exhaustive O(N)
// scan; both paths visit candidates in ascending node id, and each node
// sees the same epochs either way, so a run is bit-identical under either.
//
// Frame-centric reception (DESIGN.md §11.6): one transmitted frame is one
// pooled air-frame record holding the Frame once plus a per-receiver entry
// {id, verdict}, and exactly two scheduler events — a
// carrier-sense batch at txStart + carrierSenseDelay and an end batch at
// txEnd that completes every reception, then the transmission. Each batch
// walks the receivers in ascending id, which is the order the per-receiver
// events it replaces fired in. A listener may re-enter transmit() from any
// callback of a batch: records never move once created (deque storage) and
// the batch re-reads each entry by index just before acting on it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "audit/audit.hpp"
#include "geom/vec2.hpp"
#include "net/packet.hpp"
#include "phy/drop.hpp"
#include "phy/params.hpp"
#include "sim/scheduler.hpp"
#include "util/assert.hpp"

#if MANET_AUDIT_ENABLED
#include "audit/invariants.hpp"
#endif

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::phy {

/// A frame on the air.
struct Frame {
  net::HostId src = net::kInvalidHost;
  /// Transmitter position at tx start. Stands in for the GPS coordinate the
  /// location-based schemes assume is carried in the packet header.
  geom::Vec2 srcPos{};
  std::size_t bytes = 0;
  net::Packet packet;
  sim::TimePoint txStart{};
  sim::TimePoint txEnd{};
};

/// Where a Channel reads node positions (DESIGN.md §7.1). Positions need
/// not be pure functions of time (RandomRoam integrates once per query), so
/// the channel fixes which times each node is asked for: every epoch (an
/// instant in which a range query runs) is marked with markEpoch(), and
/// each attached node must see every marked epoch, in order, before a read
/// returns its position, possibly later than the epoch itself. A source
/// that evaluates nodes when asked (the default) meets this because the
/// channel then reads every node at every epoch: it does so whenever the
/// source gives no speed bound. positionsOf() reads batches (ascending id),
/// positionOf() single nodes. Every mobility model answers a repeat query
/// at the same time unchanged.
class PositionSource {
 public:
  virtual ~PositionSource() = default;
  /// Current position of node `id`.
  virtual geom::Vec2 positionOf(net::HostId id) = 0;
  /// Current position of every node in `ids` (ascending), evaluated in that
  /// order and written to the id-indexed `out[id]`.
  virtual void positionsOf(std::span<const net::HostId> ids,
                           std::span<geom::Vec2> out) = 0;
  /// Records that the channel queries at time `t` (the current time, later
  /// than any earlier mark).
  virtual void markEpoch(sim::TimePoint /*t*/) {}
  /// Upper bound on every node's speed, in m/s (+inf: none known).
  virtual double maxSpeedMps() const {
    return std::numeric_limits<double>::infinity();
  }
};

class Channel {
 public:
  /// Callbacks into the MAC of one attached node. All calls are synchronous
  /// with channel state already updated.
  class Listener {
   public:
    virtual ~Listener() = default;
    /// Carrier went busy (0 -> >0 overlapping in-range transmissions).
    virtual void onMediumBusy() {}
    /// Carrier went idle (back to 0).
    virtual void onMediumIdle() {}
    /// A frame addressed to the broadcast medium finished arriving.
    /// `drop` = kNone when intact; otherwise why the FCS would fail
    /// (collision or half-duplex loss).
    virtual void onFrameReceived(const Frame& frame, DropReason drop) = 0;
    /// This node's own transmission just ended (channel state updated).
    virtual void onTxComplete() {}
  };

  using PositionFn = std::function<geom::Vec2()>;

  /// A channel whose nodes bring their own position callbacks, given to
  /// attach(id, listener, position).
  Channel(sim::Scheduler& scheduler, PhyParams params);
  /// A channel that reads every node's position from `source`, which must
  /// outlive it; nodes join with attach(id, listener).
  Channel(sim::Scheduler& scheduler, PhyParams params,
          PositionSource& source);
  /// Audited builds verify the begin/end reception ledger here.
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers a node whose position is `position()`. Only on a channel
  /// built without a PositionSource. `id` values must be dense (0..N-1) and
  /// unique.
  void attach(net::HostId id, Listener* listener, PositionFn position);
  /// Registers a node positioned by the channel's PositionSource.
  void attach(net::HostId id, Listener* listener);

  /// Starts transmitting `packet` from `src` now. The caller (MAC) must not
  /// already be transmitting. Returns the transmission end time.
  sim::TimePoint transmit(net::HostId src, net::Packet packet,
                          std::size_t bytes);

  /// True when node `id` senses energy (including its own transmission).
  bool carrierBusy(net::HostId id) const;

  /// True while node `id` is transmitting.
  bool isTransmitting(net::HostId id) const;

  /// Current position of node `id`.
  geom::Vec2 positionOf(net::HostId id) const;

  /// All attached node ids within `radiusMeters` of node `id` (excl. itself),
  /// in ascending id order.
  std::vector<net::HostId> nodesInRange(net::HostId id) const;

  /// As above, but overwriting `out` (capacity reuse for hot callers — the
  /// same resolution path transmit() runs per frame).
  void nodesInRange(net::HostId id, std::vector<net::HostId>& out) const;

  /// Number of attached nodes within range of `id` (excl. itself) without
  /// materializing the list — the oracle neighbor-count `n` the adaptive
  /// schemes query on every rebroadcast decision.
  std::size_t inRangeCount(net::HostId id) const;

  /// Positions of all attached nodes, indexed by node id.
  std::vector<geom::Vec2> snapshotPositions() const;

  /// Number of nodes reachable from `source` over links of length <=
  /// `radiusMeters`, directly or over any number of hops, excluding
  /// `source`: RE's denominator `e` (paper, footnote 2).
  std::size_t reachableCount(net::HostId source) const;

  std::size_t nodeCount() const { return nodes_.size(); }
  const PhyParams& params() const { return params_; }

  // --- statistics (monotone counters over the whole run) ---
  std::uint64_t framesTransmitted() const { return framesTransmitted_; }
  std::uint64_t framesDelivered() const { return framesDelivered_; }
  /// Receptions lost to collisions or half-duplex conflicts.
  std::uint64_t framesCorrupted() const { return framesCorrupted_; }
  /// Always 0: kept because bench/perf reads them (ROADMAP item 10).
  std::uint64_t framesLostToFault() const { return 0; }
  std::uint64_t framesDroppedHostDown() const { return 0; }

  /// Test/ablation hook: when disabled, overlapping frames are all delivered
  /// intact (perfect-PHY model used by bench/abl_collision_model).
  void setCollisionsEnabled(bool enabled) { collisionsEnabled_ = enabled; }

  /// Differential-testing hook: when disabled, range queries fall back to the
  /// exhaustive all-nodes scan instead of the spatial grid. Either setting
  /// yields identical simulations (same candidates, same order).
  void setGridEnabled(bool enabled) { gridEnabled_ = enabled; }
  bool gridEnabled() const { return gridEnabled_; }

 private:
  friend struct manet::ckpt::StateAccess;
  /// One receiver's view of an air frame.
  struct RxEntry {
    net::HostId id;
    DropReason reason = DropReason::kNone;  // first corruption cause wins
  };
  /// A frame on the air and its receivers, ascending by id. Pooled: a slot
  /// is recycled (with its entry capacity) after its end batch.
  struct AirFrame {
    Frame frame;
    std::vector<RxEntry> rx;
  };
  /// A reception in flight at one node: entry `index` of air frame `frame`.
  struct RxRef {
    std::uint32_t frame = 0;
    std::uint32_t index = 0;
    bool operator==(const RxRef&) const = default;
  };
  /// The PositionSource behind attach(id, listener, position): one
  /// callback per node.
  class CallbackPositions final : public PositionSource {
   public:
    void set(net::HostId id, PositionFn fn);
    geom::Vec2 positionOf(net::HostId id) override {
      return fns_[id.value()]();
    }
    void positionsOf(std::span<const net::HostId> ids,
                     std::span<geom::Vec2> out) override {
      for (const net::HostId id : ids) out[id.value()] = fns_[id.value()]();
    }

   private:
    std::vector<PositionFn> fns_;
  };
  struct Node {
    Listener* listener = nullptr;
    bool attached = false;
    bool transmitting = false;
    int busyCount = 0;  // overlapping in-range transmissions incl. own
    std::vector<RxRef> activeRx;  // in arrival order
  };

  /// Anchored uniform-cell spatial index over the attached nodes' positions.
  /// A full rebuild buckets every node by its current position, which
  /// becomes its anchor, into cells of size r + skin. While every node stays
  /// within a skin of its anchor, a disk of radius r still lies inside the
  /// 3x3 neighborhood of its center's cell, so later epochs keep the cells.
  /// Every node is within `slack` of its anchor, so an occupant whose anchor
  /// lies more than `slack` inside or outside a query disk is decided
  /// without its position; the others, and query centres, are read once per
  /// epoch into their slot (`slotEpoch`). Verification reads every node in
  /// one batch,
  /// measures the largest distance from an anchor and the population bbox,
  /// and rebuilds the cells once some node is farther than
  /// kEscapeFraction * skin from its anchor, or a node attached. It runs at
  /// an epoch only when `verifiedDrift` plus the source's speed bound times
  /// the time since `verifiedAt` exceeds that margin; a source without a
  /// bound is verified at every epoch. CSR layout: `cellNodes` holds node
  /// ids grouped by cell, ascending within a cell;
  /// `cellStart[c]..cellStart[c+1]` delimits cell c; `cellX`/`cellY` hold
  /// the occupants' cached coordinates, so the range scan runs over
  /// contiguous doubles instead of asking the position source.
  struct Grid {
    bool valid = false;
    sim::TimePoint builtAt = sim::kNever;  // the current epoch
    std::uint64_t epoch = 0;               // epochs seen, the current one's
    std::uint64_t attachVersion = 0;
    sim::TimePoint verifiedAt = sim::kNever;
    double verifiedDrift = 0.0;  // largest anchor distance when verified
    double bboxPad = 0.0;        // slack around the verified bbox
    // A node whose anchor is within sqrt(inner2) of a query centre is in
    // range, beyond sqrt(outer2) out of it: r -/+ a bound on how far any
    // node is from its anchor.
    double inner2 = 0.0;
    double outer2 = 0.0;
    double cellSize = 0.0;
    geom::Vec2 origin{};                // anchor bbox min corner: cell (0,0)
    geom::Vec2 bboxMin{};               // population bbox when verified
    geom::Vec2 bboxMax{};
    int cols = 0;
    int rows = 0;
    std::vector<net::HostId> sortedIds;  // attached ids, ascending
    std::vector<int> rankOf;            // id -> index in sortedIds (-1: none)
    std::vector<geom::Vec2> positions;  // per node id, as last read
    std::vector<int> cellOf;            // per node id (-1 = not attached)
    std::vector<int> slotOf;            // per node id: index into cellNodes
    std::vector<int> cellStart;         // cols*rows + 1 offsets
    std::vector<net::HostId> cellNodes;
    std::vector<double> cellX;          // parallel to cellNodes
    std::vector<double> cellY;
    std::vector<std::uint64_t> slotEpoch;  // parallel: epoch of cellX/cellY
    std::vector<double> anchorX;        // parallel to cellNodes
    std::vector<double> anchorY;
    // Bounding box of each cell's occupant anchors, grown by the skin
    // (+inf/-inf when empty), so it holds every occupant's current
    // position. When the whole box lies inside a query disk every occupant
    // is in range and the per-node distance scan can be skipped.
    std::vector<double> cellMinX;
    std::vector<double> cellMaxX;
    std::vector<double> cellMinY;
    std::vector<double> cellMaxY;
    std::vector<int> fill;              // rebuild scratch: next slot per cell
    std::vector<std::uint8_t> reached;  // reachableCount scratch, per slot
    std::vector<int> frontier;          // reachableCount scratch: BFS queue
    std::vector<int> unreached;         // reachableCount scratch, per cell
  };

  Node& node(net::HostId id);
  const Node& node(net::HostId id) const;
  void raiseBusy(Node& n);
  void lowerBusy(Node& n);
  RxEntry& entry(RxRef ref) { return airFrames_[ref.frame].rx[ref.index]; }
  const RxEntry& entry(RxRef ref) const {
    return airFrames_[ref.frame].rx[ref.index];
  }
  /// Takes a free air-frame slot (recycled, else freshly appended).
  std::uint32_t acquireAirFrame();
  /// Carrier-sense batch: raises energy at every receiver.
  void senseFrame(std::uint32_t slot);
  /// End batch: completes every reception in entry order, then the
  /// transmission, then recycles the slot.
  void endFrame(std::uint32_t slot);
  void finishReception(std::uint32_t slot, std::uint32_t index);
  void finishTransmission(net::HostId src);
  /// Marks `rec` corrupted with `reason` unless an earlier cause already did.
  static void corrupt(RxEntry& rec, DropReason reason) {
    if (rec.reason == DropReason::kNone) rec.reason = reason;
  }

  /// Brings the grid up to the current epoch: nothing when it is current;
  /// otherwise marks the epoch, and verifies when the drift bound runs out,
  /// or fully rebuilds when a node attached since.
  void ensureGrid() const;
  /// Verification: reads every attached node's position, in ascending id,
  /// then copies each into its CSR slot, measuring the drift from the
  /// anchors and the bbox. Returns false when some node escaped its anchor.
  bool refreshGrid() const;
  /// Re-buckets the cached positions into cells; they become the anchors.
  void rebuildCells() const;
  /// The position of the node in CSR slot `s` at the current epoch: its
  /// cached coordinates, read from the source first if they are older.
  geom::Vec2 slotPosition(std::size_t s) const {
    if (grid_.slotEpoch[s] != grid_.epoch) {
      const geom::Vec2 p = source_->positionOf(grid_.cellNodes[s]);
      grid_.positions[grid_.cellNodes[s].value()] = p;
      grid_.cellX[s] = p.x;
      grid_.cellY[s] = p.y;
      grid_.slotEpoch[s] = grid_.epoch;
    }
    return {grid_.cellX[s], grid_.cellY[s]};
  }
  /// Position of attached node `id` at the current epoch.
  geom::Vec2 gridPosition(net::HostId id) const {
    MANET_EXPECTS(id.value() < grid_.rankOf.size() &&
                  grid_.rankOf[id.value()] >= 0);
    return slotPosition(static_cast<std::size_t>(grid_.slotOf[id.value()]));
  }
  /// True when the node in slot `s` is within `radiusMeters` (r2 = its
  /// square) of `center`. A node not read this epoch is decided by its
  /// anchor when that lies well inside or outside the disk (`inner2`,
  /// `outer2`); otherwise by its position, read if need be.
  bool slotInRange(std::size_t s, geom::Vec2 center, double r2) const {
    if (grid_.slotEpoch[s] != grid_.epoch) {
      const double dx = grid_.anchorX[s] - center.x;
      const double dy = grid_.anchorY[s] - center.y;
      const double d2 = dx * dx + dy * dy;
      if (d2 <= grid_.inner2) return true;
      if (d2 > grid_.outer2) return false;
    }
    const geom::Vec2 p = slotPosition(s);
    const double dx = p.x - center.x;
    const double dy = p.y - center.y;
    return dx * dx + dy * dy <= r2;
  }
  /// Invokes fn(c, lo, hi) with the index and CSR occupant range of every
  /// cell in the 3x3 neighborhood of the cell containing `center` (clamped
  /// to the grid). Requires a current grid (call ensureGrid() first).
  template <typename Fn>
  void forEachNeighborCell(geom::Vec2 center, Fn&& fn) const {
    const int ccx = std::clamp(
        static_cast<int>((center.x - grid_.origin.x) / grid_.cellSize), 0,
        grid_.cols - 1);
    const int ccy = std::clamp(
        static_cast<int>((center.y - grid_.origin.y) / grid_.cellSize), 0,
        grid_.rows - 1);
    for (int cy = std::max(0, ccy - 1);
         cy <= std::min(grid_.rows - 1, ccy + 1); ++cy) {
      for (int cx = std::max(0, ccx - 1);
           cx <= std::min(grid_.cols - 1, ccx + 1); ++cx) {
        const auto c = static_cast<std::size_t>(cy * grid_.cols + cx);
        fn(c, grid_.cellStart[c], grid_.cellStart[c + 1]);
      }
    }
  }
  /// True when every occupant of cell `c` is within `radiusMeters` of
  /// `center` (the cell's skin-padded anchor box lies inside the disk), so
  /// the whole cell qualifies without per-node distance checks.
  bool cellFullyCovered(std::size_t c, geom::Vec2 center, double r2) const {
    const double fx = std::max(center.x - grid_.cellMinX[c],
                               grid_.cellMaxX[c] - center.x);
    const double fy = std::max(center.y - grid_.cellMinY[c],
                               grid_.cellMaxY[c] - center.y);
    return fx * fx + fy * fy <= r2;
  }
  /// True when the population bounding box, padded by how far a node can
  /// have moved since it was verified, lies inside the disk of radius
  /// sqrt(r2) around `center`: every attached node is in range.
  bool bboxCovered(geom::Vec2 center, double r2) const {
    const double fx = std::max(center.x - grid_.bboxMin.x,
                               grid_.bboxMax.x - center.x) +
                      grid_.bboxPad;
    const double fy = std::max(center.y - grid_.bboxMin.y,
                               grid_.bboxMax.y - center.y) +
                      grid_.bboxPad;
    return fx * fx + fy * fy <= r2;
  }
  /// Appends all attached ids within `radiusMeters` of `center` (except
  /// `exclude`) to `out`, ascending. Uses the grid when enabled and current,
  /// the exhaustive scan otherwise.
  void collectInRange(geom::Vec2 center, net::HostId exclude,
                      std::vector<net::HostId>& out) const;
  /// Both public constructors; a null `source` selects `callbacks_`.
  Channel(sim::Scheduler& scheduler, PhyParams params,
          PositionSource* source);
  /// Shared body of both attach() overloads.
  void addNode(net::HostId id, Listener* listener);
  sim::Scheduler& scheduler_;
  PhyParams params_;
  CallbackPositions callbacks_;
  /// `&callbacks_`, or the PositionSource the channel was built over.
  PositionSource* source_;
  std::vector<Node> nodes_;
  bool collisionsEnabled_ = true;
  bool gridEnabled_ = true;
  std::uint64_t attachVersion_ = 0;
  mutable Grid grid_;
  mutable std::vector<net::HostId> scratch_;  // transmit() receiver list
  /// Air-frame pool. A deque so a slot never moves when a re-entrant
  /// transmit() appends one: batches hold `const Frame&` across callbacks.
  std::deque<AirFrame> airFrames_;
  std::vector<std::uint32_t> freeAirFrames_;
  std::uint64_t framesTransmitted_ = 0;
  std::uint64_t framesDelivered_ = 0;
  std::uint64_t framesCorrupted_ = 0;
#if MANET_AUDIT_ENABLED
  audit::ChannelAudit audit_;
#endif
};

}  // namespace manet::phy
