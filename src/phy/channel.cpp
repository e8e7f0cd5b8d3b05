#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/inline_fn.hpp"
#include "util/assert.hpp"

namespace manet::phy {

namespace {

/// Upper bound on grid cells along one axis. Dense maps in this codebase are
/// a few tens of radii across; the cap only guards degenerate geometries
/// (e.g. one node flung far away) from allocating a huge cell table.
constexpr int kMaxCellsPerAxis = 256;

/// Grid slack: cells are r + skin wide, so a node may drift up to a skin
/// from its anchor before range queries could miss it. r/16 keeps full
/// rebuilds rare at vehicular speeds while padding the cells only ~6%.
constexpr double kSkinFraction = 1.0 / 16.0;

/// A refresh forces a full rebuild once a node is farther than this share
/// of the skin from its anchor; the 1% slack absorbs the rounding of the
/// distance test and of the padded cell boxes.
constexpr double kEscapeFraction = 0.99;

}  // namespace

Channel::Channel(sim::Scheduler& scheduler, PhyParams params)
    : Channel(scheduler, params, nullptr) {}

Channel::Channel(sim::Scheduler& scheduler, PhyParams params,
                 PositionSource& source)
    : Channel(scheduler, params, &source) {}

Channel::Channel(sim::Scheduler& scheduler, PhyParams params,
                 PositionSource* source)
    : scheduler_(scheduler),
      params_(params),
      source_(source != nullptr ? source : &callbacks_) {
  MANET_EXPECTS(params_.radiusMeters > 0.0);
  // A frame's carrier-sense batch must fire strictly before its end batch
  // (DESIGN.md §11.6): energy is sensed before the shortest frame ends.
  MANET_EXPECTS(params_.carrierSenseDelay < params_.frameAirtime(0));
}

Channel::~Channel() {
  // Ledger check: every reception that began must have ended or still be on
  // the air when the run stopped mid-frame.
  MANET_AUDIT_HOOK({
    std::uint64_t inFlight = 0;
    for (const Node& n : nodes_) inFlight += n.rxCount;
    audit_.atTeardown(inFlight, scheduler_.now());
  });
}

void Channel::CallbackPositions::set(net::HostId id, PositionFn fn) {
  if (id.value() >= fns_.size()) fns_.resize(id.value() + 1);
  fns_[id.value()] = std::move(fn);
}

void Channel::attach(net::HostId id, Listener* listener, PositionFn position) {
  MANET_EXPECTS(source_ == &callbacks_);
  MANET_EXPECTS(position != nullptr);
  addNode(id, listener);
  callbacks_.set(id, std::move(position));
}

void Channel::attach(net::HostId id, Listener* listener) {
  MANET_EXPECTS(source_ != &callbacks_);
  addNode(id, listener);
}

void Channel::addNode(net::HostId id, Listener* listener) {
  MANET_EXPECTS(listener != nullptr);
  if (id.value() >= nodes_.size()) nodes_.resize(id.value() + 1);
  Node& n = nodes_[id.value()];
  MANET_EXPECTS(!n.attached);
  n.listener = listener;
  n.attached = true;
  ++attachVersion_;
}

Channel::Node& Channel::node(net::HostId id) {
  MANET_EXPECTS(id.value() < nodes_.size() && nodes_[id.value()].attached);
  return nodes_[id.value()];
}

const Channel::Node& Channel::node(net::HostId id) const {
  MANET_EXPECTS(id.value() < nodes_.size() && nodes_[id.value()].attached);
  return nodes_[id.value()];
}

void Channel::raiseBusy(Node& n) {
  MANET_AUDIT_HOOK(audit_.onEnergyRaise(
      net::HostId{static_cast<std::uint32_t>(&n - nodes_.data())},
      scheduler_.now()));
  if (++n.busyCount == 1) n.listener->onMediumBusy();
}

void Channel::lowerBusy(Node& n) {
  MANET_AUDIT_HOOK(audit_.onEnergyLower(
      net::HostId{static_cast<std::uint32_t>(&n - nodes_.data())},
      scheduler_.now()));
  MANET_ASSERT(n.busyCount > 0);
  if (--n.busyCount == 0) n.listener->onMediumIdle();
}

geom::Vec2 Channel::positionOf(net::HostId id) const {
  node(id);  // asserts attachment
  return source_->positionOf(id);
}

bool Channel::carrierBusy(net::HostId id) const {
  return node(id).busyCount > 0;
}

bool Channel::isTransmitting(net::HostId id) const {
  return node(id).transmitting;
}

void Channel::ensureGrid() const {
  const sim::TimePoint now = scheduler_.now();
  const bool rebuild = !grid_.valid || grid_.attachVersion != attachVersion_;
  if (grid_.builtAt == now && !rebuild) return;
  if (grid_.builtAt != now) {
    grid_.builtAt = now;
    ++grid_.epoch;
    source_->markEpoch(now);
  }
  if (rebuild) {
    const std::size_t n = nodes_.size();
    grid_.positions.resize(n);
    grid_.sortedIds.clear();
    grid_.rankOf.assign(n, -1);
    for (std::size_t id = 0; id < n; ++id) {
      if (!nodes_[id].attached) continue;
      grid_.rankOf[id] = static_cast<int>(grid_.sortedIds.size());
      grid_.sortedIds.push_back(net::HostId{static_cast<std::uint32_t>(id)});
    }
    source_->positionsOf(grid_.sortedIds, grid_.positions);
    grid_.valid = true;
    grid_.attachVersion = attachVersion_;
    rebuildCells();
  } else {
    // Every node was within verifiedDrift of its anchor at verifiedAt and
    // moves at most maxSpeed since: while that stays within the escape
    // margin the cells still hold, and the bbox and the anchor decisions
    // allow for the drift.
    const double skin = kSkinFraction * params_.radiusMeters;
    const double drift =
        source_->maxSpeedMps() * sim::toSeconds(now - grid_.verifiedAt);
    if (grid_.verifiedDrift + drift <= kEscapeFraction * skin) {
      // The 1% the escape test keeps absorbs the rounding here too.
      const double margin = (1.0 - kEscapeFraction) * skin;
      const double slack = grid_.verifiedDrift + drift + margin;
      const double r = params_.radiusMeters;
      grid_.bboxPad = drift + margin;
      grid_.inner2 = (r - slack) * (r - slack);  // slack < skin < r
      grid_.outer2 = (r + slack) * (r + slack);
      return;
    }
    if (!refreshGrid()) rebuildCells();
  }
  // Every position is current: the bbox is exact and no anchor is asked.
  grid_.verifiedAt = now;
  grid_.bboxPad = 0.0;
}

bool Channel::refreshGrid() const {
  // Pass 1: every attached node, in ascending id, as a full rebuild reads
  // them (the attached set is unchanged since it).
  source_->positionsOf(grid_.sortedIds, grid_.positions);
  // Pass 2, in slot order: copy each position into the CSR coordinate
  // arrays, measure its distance from its anchor, and grow the bbox.
  const double skin = kSkinFraction * params_.radiusMeters;
  const double escape2 = kEscapeFraction * kEscapeFraction * skin * skin;
  constexpr double inf = std::numeric_limits<double>::infinity();
  geom::Vec2 lo{inf, inf};
  geom::Vec2 hi{-inf, -inf};
  double far2 = 0.0;
  const std::size_t slots = grid_.cellNodes.size();
  const net::HostId* ids = grid_.cellNodes.data();
  const geom::Vec2* positions = grid_.positions.data();
  const double* ax = grid_.anchorX.data();
  const double* ay = grid_.anchorY.data();
  double* xs = grid_.cellX.data();
  double* ys = grid_.cellY.data();
  for (std::size_t s = 0; s < slots; ++s) {
    const geom::Vec2 p = positions[ids[s].value()];
    xs[s] = p.x;
    ys[s] = p.y;
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    const double dx = p.x - ax[s];
    const double dy = p.y - ay[s];
    far2 = std::max(far2, dx * dx + dy * dy);
  }
  if (slots > 0) {
    grid_.bboxMin = lo;
    grid_.bboxMax = hi;
  }
  grid_.verifiedDrift = std::sqrt(far2);
  std::fill(grid_.slotEpoch.begin(), grid_.slotEpoch.end(), grid_.epoch);
  return far2 <= escape2;
}

void Channel::rebuildCells() const {
  const std::size_t n = nodes_.size();
  geom::Vec2 lo{0.0, 0.0};
  geom::Vec2 hi{0.0, 0.0};
  bool first = true;
  for (const net::HostId id : grid_.sortedIds) {
    const geom::Vec2 p = grid_.positions[id.value()];
    if (first) {
      lo = hi = p;
      first = false;
    } else {
      lo.x = std::min(lo.x, p.x);
      lo.y = std::min(lo.y, p.y);
      hi.x = std::max(hi.x, p.x);
      hi.y = std::max(hi.y, p.y);
    }
  }

  grid_.origin = lo;
  grid_.bboxMin = lo;
  grid_.bboxMax = hi;
  const double skin = kSkinFraction * params_.radiusMeters;
  double cell = params_.radiusMeters + skin;
  int cols = first ? 1 : static_cast<int>((hi.x - lo.x) / cell) + 1;
  int rows = first ? 1 : static_cast<int>((hi.y - lo.y) / cell) + 1;
  if (cols > kMaxCellsPerAxis || rows > kMaxCellsPerAxis) {
    const double span = std::max(hi.x - lo.x, hi.y - lo.y);
    cell = std::max(cell, span / kMaxCellsPerAxis + 1e-9);
    cols = static_cast<int>((hi.x - lo.x) / cell) + 1;
    rows = static_cast<int>((hi.y - lo.y) / cell) + 1;
  }
  grid_.cellSize = cell;
  grid_.cols = cols;
  grid_.rows = rows;

  // Counting sort into CSR; iterating ids ascending keeps each cell's node
  // list ascending, which the queries rely on for deterministic order.
  const std::size_t cells =
      static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows);
  grid_.cellOf.assign(n, -1);
  grid_.slotOf.assign(n, -1);
  grid_.cellStart.assign(cells + 1, 0);
  for (const net::HostId id : grid_.sortedIds) {
    const geom::Vec2 p = grid_.positions[id.value()];
    const int cx = std::min(cols - 1, static_cast<int>((p.x - lo.x) / cell));
    const int cy = std::min(rows - 1, static_cast<int>((p.y - lo.y) / cell));
    const int c = cy * cols + cx;
    grid_.cellOf[id.value()] = c;
    ++grid_.cellStart[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t c = 1; c < grid_.cellStart.size(); ++c) {
    grid_.cellStart[c] += grid_.cellStart[c - 1];
  }
  const auto occupied = static_cast<std::size_t>(grid_.cellStart.back());
  grid_.cellNodes.resize(occupied);
  grid_.cellX.resize(occupied);
  grid_.cellY.resize(occupied);
  grid_.anchorX.resize(occupied);
  grid_.anchorY.resize(occupied);
  constexpr double inf = std::numeric_limits<double>::infinity();
  grid_.cellMinX.assign(cells, inf);
  grid_.cellMaxX.assign(cells, -inf);
  grid_.cellMinY.assign(cells, inf);
  grid_.cellMaxY.assign(cells, -inf);
  grid_.slotEpoch.assign(occupied, grid_.epoch);
  grid_.verifiedDrift = 0.0;
  std::vector<int>& fill = grid_.fill;
  fill.assign(grid_.cellStart.begin(), grid_.cellStart.end() - 1);
  for (const net::HostId id : grid_.sortedIds) {
    const auto cc = static_cast<std::size_t>(grid_.cellOf[id.value()]);
    const int slot = fill[cc]++;
    const auto s = static_cast<std::size_t>(slot);
    const geom::Vec2 p = grid_.positions[id.value()];
    grid_.slotOf[id.value()] = slot;
    grid_.cellNodes[s] = id;
    grid_.cellX[s] = grid_.anchorX[s] = p.x;
    grid_.cellY[s] = grid_.anchorY[s] = p.y;
    grid_.cellMinX[cc] = std::min(grid_.cellMinX[cc], p.x - skin);
    grid_.cellMaxX[cc] = std::max(grid_.cellMaxX[cc], p.x + skin);
    grid_.cellMinY[cc] = std::min(grid_.cellMinY[cc], p.y - skin);
    grid_.cellMaxY[cc] = std::max(grid_.cellMaxY[cc], p.y + skin);
  }

  obs::add(obs::Counter::kGridRebuilds);
  if (obs::current() != nullptr) {
    for (std::size_t c = 0; c < cells; ++c) {
      const int occupancy = grid_.cellStart[c + 1] - grid_.cellStart[c];
      if (occupancy > 0) {
        obs::observe(obs::Hist::kGridCellOccupancy, occupancy);
      }
    }
  }
}

void Channel::collectInRange(geom::Vec2 center, net::HostId exclude,
                             std::vector<net::HostId>& out) const {
  const double r2 = params_.radiusMeters * params_.radiusMeters;
  if (!gridEnabled_) {
    obs::add(obs::Counter::kGridFallbackQueries);
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      const net::HostId id{i};
      if (id == exclude || !nodes_[i].attached) continue;
      if (geom::distanceSquared(center, source_->positionOf(id)) <= r2) {
        out.push_back(id);
      }
    }
    return;
  }

  ensureGrid();
  obs::add(obs::Counter::kGridQueries);
  // When the whole population's bounding box lies inside the query disk —
  // routine on dense single-cell maps — every other node is in range and
  // the pre-sorted id list can be spliced around `exclude` directly.
  if (bboxCovered(center, r2)) {
    obs::add(obs::Counter::kGridBboxFastPath);
    const net::HostId* b = grid_.sortedIds.data();
    const std::size_t total = grid_.sortedIds.size();
    const bool excluded = exclude.value() < grid_.rankOf.size() &&
                          grid_.rankOf[exclude.value()] >= 0;
    const std::size_t k =
        excluded ? static_cast<std::size_t>(grid_.rankOf[exclude.value()])
                 : total;
    const std::size_t at = out.size();
    out.resize(at + total - (excluded ? 1 : 0));
    net::HostId* w = out.data() + at;
    std::copy(b, b + k, w);
    std::copy(b + k + (excluded ? 1 : 0), b + total, w + k);
    return;
  }
  // Cell size >= radius + skin and no node is a skin from its anchor, so a
  // disk centered anywhere inside cell (ccx,ccy) only holds occupants of
  // its 3x3 neighborhood. Single pass over those cells, sized to the
  // attached-population upper bound up front. Pointers are hoisted so
  // stores into `out` can't force reloads through `grid_`. A cell whose
  // padded occupant box lies inside the disk is bulk-copied (splicing out
  // `exclude`); otherwise branchless compaction over the contiguous
  // coordinate arrays — always store the candidate id, advance only when
  // it qualifies.
  const std::size_t before = out.size();
  out.resize(before + grid_.sortedIds.size());
  const net::HostId* ids = grid_.cellNodes.data();
  net::HostId* dst = out.data() + before;
  std::size_t kept = 0;
  int cellsWithCandidates = 0;
  forEachNeighborCell(center, [&](std::size_t c, int lo, int hi) {
    cellsWithCandidates += (hi > lo) ? 1 : 0;
    if (cellFullyCovered(c, center, r2)) {
      obs::add(obs::Counter::kGridCellsCovered);
      const net::HostId* b = ids + lo;
      const net::HostId* e = ids + hi;
      const net::HostId* p = std::lower_bound(b, e, exclude);
      net::HostId* w = std::copy(b, p, dst + kept);
      if (p != e && *p == exclude) ++p;
      w = std::copy(p, e, w);
      kept = static_cast<std::size_t>(w - dst);
      return;
    }
    if (hi > lo) obs::add(obs::Counter::kGridCellsScanned);
    for (int i = lo; i < hi; ++i) {
      const net::HostId id = ids[i];
      dst[kept] = id;
      kept += static_cast<std::size_t>(
          (id != exclude) && slotInRange(static_cast<std::size_t>(i), center, r2));
    }
  });
  out.resize(before + kept);
  // Per-cell lists are ascending but interleave across cells, so sort when
  // more than one cell contributed — on a single-cell map (the densest
  // case) no sort is needed.
  if (cellsWithCandidates > 1) {
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end());
  }
}

std::size_t Channel::inRangeCount(net::HostId id) const {
  const double r2 = params_.radiusMeters * params_.radiusMeters;
  if (!gridEnabled_) {
    obs::add(obs::Counter::kGridFallbackQueries);
    const geom::Vec2 center = positionOf(id);
    std::size_t count = 0;
    for (std::uint32_t other = 0; other < nodes_.size(); ++other) {
      if (net::HostId{other} == id || !nodes_[other].attached) continue;
      if (geom::distanceSquared(center,
                                source_->positionOf(net::HostId{other})) <=
          r2) {
        ++count;
      }
    }
    return count;
  }
  ensureGrid();
  obs::add(obs::Counter::kGridQueries);
  const geom::Vec2 center = gridPosition(id);
  if (bboxCovered(center, r2)) {
    obs::add(obs::Counter::kGridBboxFastPath);
    return grid_.sortedIds.size() - 1;
  }
  // Fully covered cells contribute their occupancy outright; otherwise each
  // occupant is tested. `id` itself is at distance 0 (its position is
  // current) and gets counted either way, so subtract it afterwards.
  std::size_t count = 0;
  forEachNeighborCell(center, [&](std::size_t c, int lo, int hi) {
    if (cellFullyCovered(c, center, r2)) {
      obs::add(obs::Counter::kGridCellsCovered);
      count += static_cast<std::size_t>(hi - lo);
      return;
    }
    if (hi > lo) obs::add(obs::Counter::kGridCellsScanned);
    for (int i = lo; i < hi; ++i) {
      count += slotInRange(static_cast<std::size_t>(i), center, r2) ? 1u : 0u;
    }
  });
  return count - 1;
}

std::vector<net::HostId> Channel::nodesInRange(net::HostId id) const {
  std::vector<net::HostId> out;
  nodesInRange(id, out);
  return out;
}

void Channel::nodesInRange(net::HostId id,
                           std::vector<net::HostId>& out) const {
  out.clear();
  if (gridEnabled_) {
    ensureGrid();
    collectInRange(gridPosition(id), id, out);
  } else {
    collectInRange(positionOf(id), id, out);
  }
}

std::vector<geom::Vec2> Channel::snapshotPositions() const {
  // Unattached nodes report Vec2{}.
  if (gridEnabled_) {
    ensureGrid();
    for (std::size_t s = 0; s < grid_.cellNodes.size(); ++s) slotPosition(s);
    std::vector<geom::Vec2> out = grid_.positions;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i].attached) out[i] = geom::Vec2{};
    }
    return out;
  }
  std::vector<geom::Vec2> out(nodes_.size());
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].attached) {
      out[i] = source_->positionOf(net::HostId{i});
    }
  }
  return out;
}

std::size_t Channel::reachableCount(net::HostId source) const {
  const double r2 = params_.radiusMeters * params_.radiusMeters;
  if (!gridEnabled_) {
    obs::add(obs::Counter::kGridFallbackQueries);
    node(source);  // asserts attachment
    // One position per attached node, as a grid epoch pays, then an O(N^2)
    // BFS over the snapshot. `ids` doubles as the queue: [0, head) is done.
    std::vector<geom::Vec2> pos(nodes_.size());
    std::vector<std::uint8_t> unseen(nodes_.size(), 0);
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i].attached) continue;
      pos[i] = source_->positionOf(net::HostId{i});
      unseen[i] = 1;
    }
    std::vector<std::size_t> ids{source.value()};
    unseen[source.value()] = 0;
    for (std::size_t head = 0; head < ids.size(); ++head) {
      const geom::Vec2 u = pos[ids[head]];
      for (std::size_t v = 0; v < nodes_.size(); ++v) {
        if (unseen[v] != 0 && geom::distanceSquared(u, pos[v]) <= r2) {
          unseen[v] = 0;
          ids.push_back(v);
        }
      }
    }
    return ids.size() - 1;
  }

  ensureGrid();
  const std::size_t total = grid_.sortedIds.size();
  if (bboxCovered(gridPosition(source), r2)) {
    obs::add(obs::Counter::kGridQueries);
    obs::add(obs::Counter::kGridBboxFastPath);
    return total - 1;
  }
  // BFS over CSR slots: expanding a node is one 3x3 neighborhood query.
  // Marks live in `reached`; `unreached` counts each cell's unmarked
  // occupants so exhausted cells are skipped without touching them.
  std::vector<std::uint8_t>& reached = grid_.reached;
  std::vector<int>& queue = grid_.frontier;
  std::vector<int>& unreached = grid_.unreached;
  reached.assign(total, 0);
  unreached.resize(grid_.cellStart.size() - 1);
  for (std::size_t c = 0; c + 1 < grid_.cellStart.size(); ++c) {
    unreached[c] = grid_.cellStart[c + 1] - grid_.cellStart[c];
  }
  queue.clear();
  const int start = grid_.slotOf[source.value()];
  reached[static_cast<std::size_t>(start)] = 1;
  --unreached[static_cast<std::size_t>(grid_.cellOf[source.value()])];
  queue.push_back(start);
  std::uint64_t covered = 0;
  std::uint64_t scanned = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const geom::Vec2 center =
        slotPosition(static_cast<std::size_t>(queue[head]));
    forEachNeighborCell(center, [&](std::size_t c, int lo, int hi) {
      if (unreached[c] == 0) return;
      const bool all = cellFullyCovered(c, center, r2);
      ++(all ? covered : scanned);
      for (int i = lo; i < hi; ++i) {
        const auto v = static_cast<std::size_t>(i);
        if (reached[v] != 0) continue;
        if (all || slotInRange(v, center, r2)) {
          reached[v] = 1;
          --unreached[c];
          queue.push_back(i);
        }
      }
    });
  }
  obs::add(obs::Counter::kGridQueries, queue.size());
  obs::add(obs::Counter::kGridCellsCovered, covered);
  obs::add(obs::Counter::kGridCellsScanned, scanned);
  return queue.size() - 1;
}

sim::TimePoint Channel::transmit(net::HostId src, net::Packet packet,
                                 std::size_t bytes) {
  Node& tx = node(src);
  MANET_EXPECTS(!tx.transmitting);

  const sim::TimePoint start = scheduler_.now();
  const sim::TimePoint end = start + params_.frameAirtime(bytes);
  // `air` stays valid across the listener callbacks below: a re-entrant
  // transmit() appends to the deque, which never moves existing slots.
  const std::uint32_t slot = acquireAirFrame();
  AirFrame& air = airFrames_[slot];
  Frame& frame = air.frame;
  frame.src = src;
  frame.srcPos = source_->positionOf(src);
  frame.bytes = bytes;
  frame.packet = std::move(packet);
  frame.txStart = start;
  frame.txEnd = end;
  ++framesTransmitted_;
  obs::add(obs::Counter::kChannelTx);
  obs::add(obs::Counter::kAirtimeBroadcastUs,
           static_cast<std::uint64_t>((end - start).ticks()));  // NOLINT-units(airtime counters aggregate raw microseconds)

  // The transmitter occupies its own medium and — being half-duplex —
  // garbles anything it was in the middle of receiving.
  tx.transmitting = true;
  raiseBusy(tx);
  corruptClean(tx, DropReason::kHalfDuplex);

  // Take the scratch buffer by move so a listener callback that reenters
  // transmit() synchronously cannot clobber the receiver list mid-loop.
  std::vector<net::HostId> receivers = std::move(scratch_);
  receivers.clear();
  collectInRange(frame.srcPos, src, receivers);
  const bool instantSense = params_.carrierSenseDelay <= sim::Duration{};
  for (const net::HostId id : receivers) {
    Node& rx = nodes_[id.value()];
    RxEntry rec{id};
    if (collisionsEnabled_) {
      // Overlap with anything already arriving, or with the receiver's own
      // ongoing transmission, corrupts everything involved.
      if (rx.rxCount == 0 && !rx.transmitting) {
        rx.clean = RxRef{slot, static_cast<std::uint32_t>(air.rx.size())};
      } else {
        rec.reason = rx.transmitting ? DropReason::kHalfDuplex
                                     : DropReason::kCollision;
        corruptClean(rx, DropReason::kCollision);
      }
    }
    ++rx.rxCount;
    air.rx.push_back(rec);
    MANET_AUDIT_HOOK(audit_.onBeginReception(id, scheduler_.now()));
    // The energy becomes detectable at the receiver only after the carrier-
    // sense delay; a station that starts its own transmission inside that
    // window never saw the medium busy (and collides, per §2.2.3).
    if (instantSense) raiseBusy(rx);
  }
  scratch_ = std::move(receivers);

  // One sense and one end event per frame. Nothing else schedules while
  // transmit() does, so each batch fires exactly where separate
  // per-receiver events of the same timestamp would (DESIGN.md §11.6).
  if (!instantSense && !air.rx.empty()) {
    auto senseCb = [this, slot] { senseFrame(slot); };
    static_assert(sim::InlineFn::storesInline<decltype(senseCb)>(),
                  "carrier-sense capture must fit the event node");
    scheduler_.scheduleAfter(params_.carrierSenseDelay, std::move(senseCb));
  }
  auto endCb = [this, slot] { endFrame(slot); };
  static_assert(sim::InlineFn::storesInline<decltype(endCb)>(),
                "frame-end capture must fit the event node");
  scheduler_.schedule(end, std::move(endCb));
  return end;
}

std::uint32_t Channel::acquireAirFrame() {
  if (!freeAirFrames_.empty()) {
    const std::uint32_t slot = freeAirFrames_.back();
    freeAirFrames_.pop_back();
    obs::add(obs::Counter::kEngineAllocPhyFrameReused);
    return slot;
  }
  obs::add(obs::Counter::kEngineAllocPhyFrameFresh);
  airFrames_.emplace_back();
  return static_cast<std::uint32_t>(airFrames_.size() - 1);
}

// Both batches hold their slot by reference: a deque never moves a slot, and
// a callback that reenters transmit() takes another slot and may corrupt
// (but never adds or removes) this frame's entries. So each verdict is read
// only once the previous receivers' callbacks ran.
void Channel::senseFrame(std::uint32_t slot) {
  for (const RxEntry& rec : airFrames_[slot].rx) {
    raiseBusy(nodes_[rec.id.value()]);
  }
}

void Channel::endFrame(std::uint32_t slot) {
  AirFrame& air = airFrames_[slot];
  const auto receivers = static_cast<std::uint32_t>(air.rx.size());
  for (std::uint32_t i = 0; i < receivers; ++i) {
    finishReception(air, RxRef{slot, i});
  }
  const net::HostId src = air.frame.src;
  // Release the packet (a HELLO's shared neighbour list) with the frame; the
  // slot keeps its entry capacity for the next frame.
  air.frame.packet = {};
  air.rx.clear();
  freeAirFrames_.push_back(slot);
  finishTransmission(src);
}

void Channel::finishReception(const AirFrame& air, RxRef ref) {
  const net::HostId rxId = air.rx[ref.index].id;
  Node& rx = nodes_[rxId.value()];
  MANET_ASSERT(rx.rxCount > 0);
  --rx.rxCount;
  if (rx.clean == ref) rx.clean = RxRef{};
  MANET_AUDIT_HOOK(audit_.onEndReception(rxId, scheduler_.now()));
  lowerBusy(rx);
  const DropReason reason = air.rx[ref.index].reason;
  switch (reason) {
    case DropReason::kNone:
      ++framesDelivered_;
      obs::add(obs::Counter::kChannelDelivered);
      break;
    case DropReason::kHalfDuplex:
      ++framesCorrupted_;
      obs::add(obs::Counter::kChannelDropHalfDuplex);
      break;
    default:
      ++framesCorrupted_;
      obs::add(obs::Counter::kChannelDropCollision);
      break;
  }
  rx.listener->onFrameReceived(air.frame, reason);
}

void Channel::finishTransmission(net::HostId src) {
  Node& tx = node(src);
  MANET_ASSERT(tx.transmitting);
  tx.transmitting = false;
  lowerBusy(tx);
  tx.listener->onTxComplete();
}

}  // namespace manet::phy
