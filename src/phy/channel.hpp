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
// anchor, the position it had at the last full rebuild; every new
// simulation-time epoch only refreshes the cached coordinates in place, and
// the cells are rebuilt when a node strays almost a skin from its anchor or
// the on-air population changes. So `transmit`/`nodesInRange` examine only
// the 3x3 cell neighborhood and pay one batch position call per epoch
// instead of one position per node per query. `setGridEnabled(false)`
// restores the exhaustive O(N) scan; both paths visit candidates in
// ascending node id, so a run is bit-identical under either.
//
// Frame-centric reception (DESIGN.md §11.6): one transmitted frame is one
// pooled air-frame record holding the Frame once plus a per-receiver entry
// {id, epoch, verdict, orphaned}, and exactly two scheduler events — a
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
#include <span>
#include <vector>

#include "audit/audit.hpp"
#include "geom/vec2.hpp"
#include "net/packet.hpp"
#include "phy/drop.hpp"
#include "phy/params.hpp"
#include "sim/scheduler.hpp"

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
/// the channel fixes when it asks. The grid makes one positionsOf() call
/// per epoch in which a range query runs, over the on-air ids in ascending
/// order. positionOf() serves single reads: Channel::positionOf, a
/// transmitter's own position and the exhaustive scan. Every mobility model
/// answers a repeat query at the same time unchanged.
class PositionSource {
 public:
  virtual ~PositionSource() = default;
  /// Current position of node `id`.
  virtual geom::Vec2 positionOf(net::HostId id) = 0;
  /// Current position of every node in `ids` (ascending), evaluated in that
  /// order and written to the id-indexed `out[id]`.
  virtual void positionsOf(std::span<const net::HostId> ids,
                           std::span<geom::Vec2> out) = 0;
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
    /// (collision, half-duplex loss, or injected fault loss).
    virtual void onFrameReceived(const Frame& frame, DropReason drop) = 0;
    /// This node's own transmission just ended (channel state updated).
    virtual void onTxComplete() {}
  };

  using PositionFn = std::function<geom::Vec2()>;

  /// Fault-injection hook (DESIGN.md §8): consulted once per (frame,
  /// receiver) pair after range resolution; return true to drop that
  /// reception as a link-level loss. The frame still asserts energy at the
  /// receiver (carrier-sense stays busy, overlaps still collide) — it
  /// arrives with a failed FCS, reason kFaultLoss. Unset = lossless.
  using LossFn = std::function<bool(net::HostId src, net::HostId dst)>;

  /// A channel whose nodes bring their own position callbacks, given to
  /// attach(id, listener, position).
  Channel(sim::Scheduler& scheduler, PhyParams params);
  /// A channel that reads every node's position from `source`, which must
  /// outlive it; nodes join with attach(id, listener).
  Channel(sim::Scheduler& scheduler, PhyParams params,
          PositionSource& source);
  /// Audited builds verify the begin/end/flush reception ledger here.
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers a node whose position is `position()`. Only on a channel
  /// built without a PositionSource. `id` values must be dense (0..N-1) and
  /// unique.
  void attach(net::HostId id, Listener* listener, PositionFn position);
  /// Registers a node positioned by the channel's PositionSource.
  void attach(net::HostId id, Listener* listener);

  /// Installs (or clears, with nullptr) the link-impairment hook. Receivers
  /// are consulted in ascending id order, so a model drawing from its own
  /// RNG stream is deterministic for a given schedule of transmissions.
  void setLossFn(LossFn fn) { lossFn_ = std::move(fn); }

  /// Host churn (DESIGN.md §8): takes a node off the air (`up = false`) or
  /// brings it back. A down node is invisible to range resolution, neither
  /// hears nor asserts energy, and its in-flight receptions are flushed —
  /// returned to the caller (for kHostDown trace drops) and counted in
  /// framesDroppedHostDown(). A frame the node itself had on the air when
  /// it went down keeps propagating to its receivers (the crash boundary is
  /// quantized to frame ends); only the transmitter's own state is reset.
  /// No listener callbacks fire from this call. Idempotent per direction.
  std::vector<Frame> setNodeUp(net::HostId id, bool up);

  /// False while node `id` is churned off the air.
  bool nodeUp(net::HostId id) const { return node(id).up; }

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

  /// Number of on-air nodes reachable from `source` over links of length <=
  /// `radiusMeters`, directly or over any number of hops, excluding
  /// `source`: RE's denominator `e` (paper, footnote 2). Churned-down nodes
  /// neither count nor relay. `source` must be on the air.
  std::size_t reachableCount(net::HostId source) const;

  std::size_t nodeCount() const { return nodes_.size(); }
  const PhyParams& params() const { return params_; }

  // --- statistics (monotone counters over the whole run) ---
  std::uint64_t framesTransmitted() const { return framesTransmitted_; }
  std::uint64_t framesDelivered() const { return framesDelivered_; }
  /// Receptions lost to collisions or half-duplex conflicts (the only
  /// losses of the fault-free model; fault losses are counted separately).
  std::uint64_t framesCorrupted() const { return framesCorrupted_; }
  /// Receptions dropped by the installed LossFn (injected link loss).
  std::uint64_t framesLostToFault() const { return framesLostToFault_; }
  /// Receptions flushed because the receiver went down mid-frame.
  std::uint64_t framesDroppedHostDown() const {
    return framesDroppedHostDown_;
  }

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
    /// Receiver's churn epoch at tx start; the carrier-sense batch skips
    /// the entry when the node went down (and maybe up) since.
    std::uint64_t epoch = 0;
    DropReason reason = DropReason::kNone;  // first corruption cause wins
    /// Receiver churned off the air mid-frame: the end batch must not touch
    /// the (already flushed) node state.
    bool orphaned = false;
  };
  /// A frame on the air and its receivers, ascending by id. Pooled: a slot
  /// is recycled (with its entry capacity) after its end batch.
  struct AirFrame {
    Frame frame;
    std::uint64_t txEpoch = 0;  // transmitter's epoch at tx start
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
    bool up = true;     // false while churned down (attached but off-air)
    bool transmitting = false;
    int busyCount = 0;  // overlapping in-range transmissions incl. own
    /// Bumped on every up/down transition; air-frame entries record the
    /// epoch at tx start, and the batches skip a node that churned since.
    std::uint64_t epoch = 0;
    std::vector<RxRef> activeRx;  // in arrival order
  };

  /// Anchored uniform-cell spatial index over the on-air nodes' positions.
  /// A full rebuild buckets every node by its current position, which
  /// becomes its anchor, into cells of size r + skin. At each later epoch
  /// the index is refreshed, not rebuilt: one batch call to the position
  /// source fills `positions` (ascending id), then one pass in slot order
  /// overwrites each node's cached coordinates in its CSR slot. Cell
  /// membership keeps following the anchors until some node moves farther
  /// than kEscapeFraction * skin from its anchor, or a node attaches or
  /// churns; then the cells are rebuilt.
  /// While every node stays within a skin of its anchor, a disk of radius r
  /// still lies inside the 3x3 neighborhood of its center's cell. CSR
  /// layout: `cellNodes` holds node ids grouped by cell, ascending within a
  /// cell; `cellStart[c]..cellStart[c+1]` delimits cell c; `cellX`/`cellY`
  /// hold the occupants' current coordinates, so the range scan runs over
  /// contiguous doubles instead of asking the position source.
  struct Grid {
    bool valid = false;
    sim::TimePoint builtAt = sim::kNever;  // epoch of the cached positions
    std::uint64_t attachVersion = 0;
    double cellSize = 0.0;
    geom::Vec2 origin{};                // anchor bbox min corner: cell (0,0)
    geom::Vec2 bboxMin{};               // current population bbox
    geom::Vec2 bboxMax{};
    int cols = 0;
    int rows = 0;
    std::vector<net::HostId> sortedIds;  // on-air ids, ascending
    std::vector<int> rankOf;            // id -> index in sortedIds (-1: none)
    std::vector<geom::Vec2> positions;  // per node id, cached this epoch
    std::vector<int> cellOf;            // per node id (-1 = not on the air)
    std::vector<int> slotOf;            // per node id: index into cellNodes
    std::vector<int> cellStart;         // cols*rows + 1 offsets
    std::vector<net::HostId> cellNodes;
    std::vector<double> cellX;          // parallel to cellNodes
    std::vector<double> cellY;
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
  /// Carrier-sense batch: raises energy at every receiver still on the
  /// epoch it was resolved under.
  void senseFrame(std::uint32_t slot);
  /// End batch: completes every non-orphaned reception in entry order,
  /// then the transmission, then recycles the slot.
  void endFrame(std::uint32_t slot);
  void finishReception(std::uint32_t slot, std::uint32_t index);
  void finishTransmission(net::HostId src, std::uint64_t epoch);
  /// Marks `rec` corrupted with `reason` unless an earlier cause already did.
  static void corrupt(RxEntry& rec, DropReason reason) {
    if (rec.reason == DropReason::kNone) rec.reason = reason;
  }

  /// Brings the grid up to the current epoch: nothing when it is current,
  /// a refresh when only time advanced, a full rebuild when a node attached
  /// or churned since, or when the refresh finds a node off its anchor.
  void ensureGrid() const;
  /// Samples every on-air node's position, in ascending id, into the cache,
  /// then copies each into its CSR slot. Returns false when some node
  /// escaped its anchor.
  bool refreshGrid() const;
  /// Re-buckets the cached positions into cells; they become the anchors.
  void rebuildCells() const;
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
  /// True when the current population bounding box lies inside the disk of
  /// radius sqrt(r2) around `center`: every on-air node is in range.
  bool bboxCovered(geom::Vec2 center, double r2) const {
    const double fx =
        std::max(center.x - grid_.bboxMin.x, grid_.bboxMax.x - center.x);
    const double fy =
        std::max(center.y - grid_.bboxMin.y, grid_.bboxMax.y - center.y);
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
  LossFn lossFn_;
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
  std::uint64_t framesLostToFault_ = 0;
  std::uint64_t framesDroppedHostDown_ = 0;
#if MANET_AUDIT_ENABLED
  audit::ChannelAudit audit_;
#endif
};

}  // namespace manet::phy
