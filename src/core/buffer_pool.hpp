#pragma once

/// \file buffer_pool.hpp
/// Recycling pool for stream payload byte buffers. Every compute batch
/// used to heap-allocate a fresh comm::Bytes per destination stream and
/// free it after delivery; instead, programs draw buffers here (worker
/// threads) and the engine returns them once the payload is consumed —
/// after a local stream's items are applied, or after remote streams are
/// packed into a wire message. Steady-state sweeps then recycle a small
/// working set of buffers instead of churning the allocator.
///
/// Every stream costs one acquire and one release, from whichever threads
/// produce and consume it, so a single lock would serialize all workers
/// of an engine on it. The free list is therefore sharded: each thread has
/// a home shard (its own lock, its own cache line) and only falls back to
/// the other shards — with try_lock, never waiting — when its home shard
/// has no buffer to give.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "comm/serialize.hpp"

namespace jsweep::core {

/// Thread-safe recycling pool of payload buffers (see
/// \ref buffer_pool.hpp). One instance per engine.
class BufferPool {
 public:
  /// An empty buffer, recycled (with its old capacity) when one is free.
  [[nodiscard]] comm::Bytes acquire() {
    const std::size_t home = home_shard();
    {
      Shard& s = shards_[home];
      const std::lock_guard<std::mutex> lock(s.mutex);
      ++s.acquires;
      if (!s.free.empty()) {
        ++s.reuses;
        return s.take();
      }
    }
    // Home is dry (buffers flow from producer to consumer threads): take
    // one from any shard that is free right now.
    for (std::size_t i = 1; i < kShards; ++i) {
      Shard& s = shards_[(home + i) % kShards];
      const std::unique_lock<std::mutex> lock(s.mutex, std::try_to_lock);
      if (!lock.owns_lock() || s.free.empty()) continue;
      ++s.reuses;  // the totals are all anyone reads
      return s.take();
    }
    return {};
  }

  /// Return a consumed payload. Capacity is retained for reuse; each
  /// shard's free list is capped so a traffic burst cannot pin memory
  /// forever.
  void release(comm::Bytes&& b) {
    if (b.capacity() == 0) return;
    Shard& s = shards_[home_shard()];
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (s.free.size() >= kMaxFreePerShard) return;  // drop: deallocates
    s.free.push_back(std::move(b));
    s.free.back().clear();
  }

  /// Total acquire() calls (observability for tests/benches).
  [[nodiscard]] std::int64_t acquires() const {
    std::int64_t n = 0;
    for (const Shard& s : shards_) {
      const std::lock_guard<std::mutex> lock(s.mutex);
      n += s.acquires;
    }
    return n;
  }
  /// Acquires served from a free list instead of a fresh buffer.
  [[nodiscard]] std::int64_t reuses() const {
    std::int64_t n = 0;
    for (const Shard& s : shards_) {
      const std::lock_guard<std::mutex> lock(s.mutex);
      n += s.reuses;
    }
    return n;
  }

 private:
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kMaxFreePerShard = 4096 / kShards;

  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::vector<comm::Bytes> free;
    std::int64_t acquires = 0;
    std::int64_t reuses = 0;

    /// Pop a free buffer (mutex held, list non-empty).
    comm::Bytes take() {
      comm::Bytes b = std::move(free.back());
      free.pop_back();
      b.clear();  // keeps capacity
      return b;
    }
  };

  /// The calling thread's shard. Threads are numbered in order of their
  /// first acquire or release, so the few threads that start on one
  /// engine's pool together (its workers) land on distinct shards.
  static std::size_t home_shard() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t home =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return home;
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace jsweep::core
