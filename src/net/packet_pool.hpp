// Pooled Packet allocation (DESIGN.md §11).
//
// Every simulated frame used to be an individually make_shared'd Packet.
// A PacketPool recycles the combined allocation (control block + Packet,
// via std::allocate_shared with a slab-backed free list), so steady-state
// traffic performs no per-packet heap allocation. Each World owns one pool
// and installs it as the running thread's current pool for its lifetime
// (the same stack discipline as obs::ScopedRegistry and the audit sink);
// net::makePacket() then allocates from it, falling back to the plain heap
// when no pool is installed (unit tests, examples) or when pooling is
// disabled (MANET_PACKET_POOL=0, or setEnabled(false) in differential
// tests).
//
// Lifetime: the pool's free-list state is refcounted by every outstanding
// packet's allocator, so packets may safely outlive the PacketPool object.
// Thread contract: a pool and the packets drawn from it belong to the
// thread that owns the World — exactly the parallel sweep runner's
// one-repetition-per-thread model; the free list is not locked.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace manet::net {

class PacketPool {
 public:
  PacketPool() : state_(std::make_shared<State>()) {}
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// A mutable Packet on a recycled (or, first time through, fresh) block.
  std::shared_ptr<Packet> make() {
    return std::allocate_shared<Packet>(Alloc<Packet>{state_});
  }
  /// Copy-construction flavour, for the host's relay copy.
  std::shared_ptr<Packet> make(const Packet& proto) {
    return std::allocate_shared<Packet>(Alloc<Packet>{state_}, proto);
  }

  /// Blocks currently waiting for reuse (observability/tests only).
  std::size_t freeBlocks() const { return state_->freeList.size(); }

  /// The pool installed on this thread, or nullptr.
  static PacketPool* current();

  /// Process-wide kill switch, defaulting from MANET_PACKET_POOL (on unless
  /// set to 0). Exists so differential tests can prove pooled and unpooled
  /// runs byte-identical within one process.
  static bool enabled();
  static void setEnabled(bool on);

  /// RAII: installs a pool as this thread's current pool (stack
  /// discipline; restores the previous pool on destruction).
  class Scope {
   public:
    explicit Scope(PacketPool* pool);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PacketPool* previous_;
  };

 private:
  /// Free list of equal-sized raw blocks. allocate_shared makes exactly one
  /// allocation of one size per Packet (node + control block fused), so a
  /// single block size covers the entire pool; any other request size
  /// (allocator copies for internal bookkeeping would not allocate) passes
  /// through to the global heap untouched.
  struct State {
    std::size_t blockSize = 0;  // fixed by the first allocation
    std::vector<void*> freeList;

    ~State() {
      for (void* block : freeList) ::operator delete(block);
    }

    void* allocate(std::size_t bytes) {
      if (blockSize == 0) blockSize = bytes;
      if (bytes == blockSize && !freeList.empty()) {
        void* block = freeList.back();
        freeList.pop_back();
        obs::add(obs::Counter::kEngineAllocPacketReused);
        return block;
      }
      MANET_ASSERT(bytes == blockSize);
      obs::add(obs::Counter::kEngineAllocPacketFresh);
      return ::operator new(bytes);
    }

    void deallocate(void* block, std::size_t bytes) {
      if (bytes == blockSize) {
        freeList.push_back(block);
      } else {
        ::operator delete(block);
      }
    }
  };

  template <typename T>
  struct Alloc {
    using value_type = T;

    std::shared_ptr<State> state;

    Alloc(std::shared_ptr<State> s) : state(std::move(s)) {}
    template <typename U>
    Alloc(const Alloc<U>& other) : state(other.state) {}

    T* allocate(std::size_t n) {
      return static_cast<T*>(state->allocate(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) {
      state->deallocate(p, n * sizeof(T));
    }

    template <typename U>
    bool operator==(const Alloc<U>& other) const {
      return state == other.state;
    }
  };

  std::shared_ptr<State> state_;
};

}  // namespace manet::net
