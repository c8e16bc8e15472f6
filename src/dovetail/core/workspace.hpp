// sort_workspace — the reusable memory arena behind the distribution engine
// (distribute.hpp).
//
// The paper's distribution phase (Sec 2.4 / Appendix B) is allocation-
// disciplined: the counting matrix, bucket-id array and offsets are sized by
// the subproblem, not the input, and the ping-pong record buffer is sized
// once for the whole sort. The seed implementation re-allocated all of them
// on every recursive call; this arena makes them reusable, so after warm-up
// every size-proportional scratch buffer is a reuse, not a malloc. (Small
// per-node allocations outside the engine — sampling vectors, bucket-table
// construction — remain; the arena covers the O(n')-sized scratch.)
//
// Two kinds of storage:
//  * record_buffer<Rec>(n) — the ping-pong "T" array of the (A, T) buffer
//    pair. One per workspace, grown monotonically, reused across recursion
//    levels and across repeated sorts. NOT thread-safe: a workspace serves
//    one in-flight sort at a time (concurrent sorts need distinct
//    workspaces).
//  * acquire(bytes) — an RAII lease on a 64-byte-aligned scratch slab from a
//    size-classed freelist pool (counting matrices, id arrays, offsets,
//    in-place staging blocks). Thread-safe: recursive subproblems running in
//    parallel on scheduler workers lease and return slabs concurrently.
//    Slabs are pow2-sized, so after warm-up every size class is populated
//    and checkouts are pure reuse.
//
// Leased memory is uninitialized (reused slabs hold stale bytes); callers
// zero what they read before writing. Counters (allocations / reuses /
// bytes) feed the matching sort_stats fields so the reuse win is measurable
// — see test_workspace.cpp and bench_suite's "engine-workspace" family.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "dovetail/core/sort_stats.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/bits.hpp"

namespace dovetail {

namespace detail {

inline constexpr std::size_t kSlabAlign = 64;   // cache line
inline constexpr std::size_t kMinSlabBytes = 64;
inline constexpr int kNumSizeClasses = 64;

struct slab_deleter {
  void operator()(std::byte* p) const noexcept {
    ::operator delete(static_cast<void*>(p), std::align_val_t{kSlabAlign});
  }
};
using slab_ptr = std::unique_ptr<std::byte, slab_deleter>;

inline slab_ptr make_slab(std::size_t bytes) {
  return slab_ptr(
      static_cast<std::byte*>(::operator new(bytes, std::align_val_t{kSlabAlign})));
}

// Slabs are pow2-sized; the class index is log2 of the capacity.
inline int size_class_of(std::size_t bytes) noexcept {
  return static_cast<int>(ceil_log2(std::max(bytes, kMinSlabBytes)));
}

}  // namespace detail

class sort_workspace {
 public:
  // RAII checkout of one scratch slab. Carve typed arrays out of it with
  // `carve<T>(count)`; the slab returns to the workspace freelist when the
  // lease goes out of scope.
  class lease {
   public:
    lease() = default;
    lease(lease&& o) noexcept
        : ws_(std::exchange(o.ws_, nullptr)),
          data_(std::exchange(o.data_, nullptr)),
          capacity_(o.capacity_),
          size_class_(o.size_class_),
          used_(o.used_) {}
    lease& operator=(lease&& o) noexcept {
      if (this != &o) {
        release();
        ws_ = std::exchange(o.ws_, nullptr);
        data_ = std::exchange(o.data_, nullptr);
        capacity_ = o.capacity_;
        size_class_ = o.size_class_;
        used_ = o.used_;
      }
      return *this;
    }
    lease(const lease&) = delete;
    lease& operator=(const lease&) = delete;
    ~lease() { release(); }

    // Next `count` elements of T, suitably aligned, UNinitialized.
    template <typename T>
    std::span<T> carve(std::size_t count) {
      static_assert(std::is_trivially_copyable_v<T>);
      static_assert(alignof(T) <= detail::kSlabAlign);
      const std::size_t off = (used_ + alignof(T) - 1) & ~(alignof(T) - 1);
      assert(off + count * sizeof(T) <= capacity_ && "lease overcommitted");
      used_ = off + count * sizeof(T);
      return {reinterpret_cast<T*>(data_ + off), count};
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] explicit operator bool() const noexcept {
      return data_ != nullptr;
    }

   private:
    friend class sort_workspace;
    lease(sort_workspace* ws, std::byte* data, std::size_t cap, int cls)
        : ws_(ws), data_(data), capacity_(cap), size_class_(cls) {}
    void release() noexcept {
      if (ws_ != nullptr) {
        ws_->return_slab(data_, size_class_);
        ws_ = nullptr;
        data_ = nullptr;
      }
    }

    sort_workspace* ws_ = nullptr;
    std::byte* data_ = nullptr;
    std::size_t capacity_ = 0;
    int size_class_ = 0;
    std::size_t used_ = 0;
  };

  sort_workspace() = default;
  sort_workspace(const sort_workspace&) = delete;
  sort_workspace& operator=(const sort_workspace&) = delete;

  // Check out a scratch slab of at least `bytes` bytes (rounded up to a
  // power of two). Thread-safe. If `stats` is non-null the matching
  // workspace_* counters are bumped.
  lease acquire(std::size_t bytes, sort_stats* stats = nullptr) {
    const int cls = detail::size_class_of(bytes);
    const std::size_t cap = std::size_t{1} << cls;
    std::byte* p = nullptr;
    {
      std::lock_guard<std::mutex> g(mu_);
      auto& bin = free_[cls];
      if (!bin.empty()) {
        p = bin.back().release();
        bin.pop_back();
      }
    }
    if (p != nullptr) {
      note_reuse(stats);
    } else {
      p = detail::make_slab(cap).release();
      note_alloc(cap, stats);
    }
    note_outstanding(
        outstanding_bytes_.fetch_add(cap, std::memory_order_relaxed) + cap,
        stats);
    return lease(this, p, cap, cls);
  }

  // acquire() + carve() in one step: check out a slab sized for `count`
  // elements of T and hand back both the lease (which owns the slab) and
  // the typed span. The wide refine driver's segment tables and the
  // encode-once (key, index) pair arrays are this shape: one lease, one
  // array, nothing else carved from the slab.
  template <typename T>
  [[nodiscard]] lease acquire_array(std::size_t count, std::span<T>& out,
                                    sort_stats* stats = nullptr) {
    lease l = acquire(count * sizeof(T), stats);
    out = l.template carve<T>(count);
    return l;
  }

  // The ping-pong record buffer: one dedicated arena per workspace, grown
  // monotonically and reused by every subsequent sort whose footprint fits.
  // NOT thread-safe — one in-flight sort per workspace.
  template <typename Rec>
  std::span<Rec> record_buffer(std::size_t n, sort_stats* stats = nullptr) {
    static_assert(std::is_trivially_copyable_v<Rec>);
    static_assert(alignof(Rec) <= detail::kSlabAlign);
    const std::size_t need = n * sizeof(Rec);
    if (need > arena_capacity_) {
      const std::size_t cap = next_pow2(std::max(need, detail::kMinSlabBytes));
      arena_ = detail::make_slab(cap);  // old arena (if any) freed here
      outstanding_bytes_.fetch_add(cap - arena_capacity_,
                                   std::memory_order_relaxed);
      arena_capacity_ = cap;
      note_alloc(cap, stats);
    } else if (n > 0) {
      note_reuse(stats);
    }
    // The arena counts as outstanding for the whole workspace lifetime
    // (until trim()), so warm reuse still records the true footprint.
    if (n > 0)
      note_outstanding(outstanding_bytes_.load(std::memory_order_relaxed),
                       stats);
    return {reinterpret_cast<Rec*>(arena_.get()), n};
  }

  // Drop all idle memory (freelisted slabs + the record arena). Leased
  // slabs are unaffected and return to the (now empty) freelists later.
  void trim() {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& bin : free_) bin.clear();
    arena_.reset();
    outstanding_bytes_.fetch_sub(arena_capacity_, std::memory_order_relaxed);
    arena_capacity_ = 0;
  }

  // Cumulative counters (never reset by trim()).
  [[nodiscard]] std::uint64_t allocations() const noexcept {
    return allocations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t reuses() const noexcept {
    return reuses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t allocated_bytes() const noexcept {
    return allocated_bytes_.load(std::memory_order_relaxed);
  }
  // Bytes currently checked out (leased slab capacities + the record
  // arena). The instantaneous figure behind
  // sort_stats::peak_workspace_bytes; freelisted slabs do not count.
  [[nodiscard]] std::size_t outstanding_bytes() const noexcept {
    return outstanding_bytes_.load(std::memory_order_relaxed);
  }

 private:
  friend class lease;

  void return_slab(std::byte* p, int cls) noexcept {
    detail::slab_ptr slab(p);
    outstanding_bytes_.fetch_sub(std::size_t{1} << cls,
                                 std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(mu_);
    try {
      free_[cls].push_back(std::move(slab));
    } catch (...) {
      // Growing the freelist failed (OOM): drop the slab (freed by `slab`)
      // rather than letting bad_alloc escape a noexcept destructor path.
    }
  }

  void note_alloc(std::size_t cap, sort_stats* stats) noexcept {
    allocations_.fetch_add(1, std::memory_order_relaxed);
    allocated_bytes_.fetch_add(cap, std::memory_order_relaxed);
    if (stats != nullptr) {
      stats->workspace_allocations.fetch_add(1, std::memory_order_relaxed);
      stats->workspace_bytes_allocated.fetch_add(cap,
                                                 std::memory_order_relaxed);
    }
  }
  void note_reuse(sort_stats* stats) noexcept {
    reuses_.fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr)
      stats->workspace_reuses.fetch_add(1, std::memory_order_relaxed);
  }
  void note_outstanding(std::size_t now, sort_stats* stats) noexcept {
    if (stats != nullptr) stats->note_peak_workspace(now);
  }

  std::mutex mu_;
  std::vector<detail::slab_ptr> free_[detail::kNumSizeClasses];
  detail::slab_ptr arena_;
  std::size_t arena_capacity_ = 0;
  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::uint64_t> reuses_{0};
  std::atomic<std::uint64_t> allocated_bytes_{0};
  std::atomic<std::size_t> outstanding_bytes_{0};
};

// ---------------------------------------------------------------------------
// workspace_pool — a bounded pool of sort_workspace arenas for concurrent
// in-flight sorts.
//
// A single sort_workspace serves one sort at a time (its record_buffer is a
// monotone arena with no internal locking), so any code that wants several
// sorts in flight — the wide-key refine driver sorting equal-prefix
// segments concurrently, or N request threads calling dovetail::sort — needs
// one workspace per concurrent sort. This pool supplies them:
//
//   * checkout() claims a parked workspace (lock-free: one atomic exchange
//     per slot scanned) or, when every slot is empty, creates a fresh one.
//   * The handle's destructor checks the workspace back in, parking it in an
//     empty slot (one CAS per slot scanned) so the next checkout reuses its
//     warm slabs. If every slot is already occupied — more than `capacity`
//     sorts were in flight — the surplus workspace is destroyed (counted in
//     discards()).
//
// After warm-up, a workload whose concurrency stays within `capacity` does
// zero pool-level allocation: every checkout is a hit on a warm arena.
// Workspaces park with their slabs intact, so steady-state sort-internal
// allocation is zero too (the property test_parallel_sort.cpp pins down).
//
// Checkout/checkin are wait-free per slot and never block; the slot array is
// sized at construction and never grows. Handles must not outlive the pool.
class workspace_pool {
 public:
  // RAII checkout. Dereferences to the leased sort_workspace; checks the
  // workspace back into the pool on destruction.
  class handle {
   public:
    handle() = default;
    handle(handle&& o) noexcept
        : pool_(std::exchange(o.pool_, nullptr)),
          ws_(std::exchange(o.ws_, nullptr)) {}
    handle& operator=(handle&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = std::exchange(o.pool_, nullptr);
        ws_ = std::exchange(o.ws_, nullptr);
      }
      return *this;
    }
    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;
    ~handle() { release(); }

    [[nodiscard]] sort_workspace* get() const noexcept { return ws_; }
    sort_workspace& operator*() const noexcept { return *ws_; }
    sort_workspace* operator->() const noexcept { return ws_; }
    [[nodiscard]] explicit operator bool() const noexcept {
      return ws_ != nullptr;
    }

    // Early checkin (idempotent); the destructor calls it too.
    void release() noexcept {
      if (pool_ != nullptr) {
        pool_->checkin(ws_);
        pool_ = nullptr;
        ws_ = nullptr;
      }
    }

   private:
    friend class workspace_pool;
    handle(workspace_pool* pool, sort_workspace* ws) noexcept
        : pool_(pool), ws_(ws) {}

    workspace_pool* pool_ = nullptr;
    sort_workspace* ws_ = nullptr;
  };

  // `capacity` bounds how many workspaces the pool keeps parked (and hence
  // its steady-state memory). 0 = one per scheduler worker, the natural
  // bound on useful sort concurrency.
  explicit workspace_pool(std::size_t capacity = 0)
      : slots_(capacity != 0 ? capacity
                             : static_cast<std::size_t>(
                                   par::scheduler::default_num_workers())) {
    for (auto& s : slots_) s.ptr.store(nullptr, std::memory_order_relaxed);
  }
  workspace_pool(const workspace_pool&) = delete;
  workspace_pool& operator=(const workspace_pool&) = delete;
  ~workspace_pool() {
    for (auto& s : slots_) delete s.ptr.load(std::memory_order_acquire);
  }

  // Claim a workspace: a parked one if any slot holds one, else a fresh one.
  [[nodiscard]] handle checkout() {
    checkouts_.fetch_add(1, std::memory_order_relaxed);
    for (auto& s : slots_) {
      if (s.ptr.load(std::memory_order_relaxed) == nullptr) continue;
      sort_workspace* ws = s.ptr.exchange(nullptr, std::memory_order_acquire);
      if (ws != nullptr) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return handle(this, ws);
      }
    }
    creations_.fetch_add(1, std::memory_order_relaxed);
    return handle(this, new sort_workspace());
  }

  // Park fresh workspaces in up to `count` empty slots (clamped to
  // capacity) so a burst of concurrent checkouts starts warm instead of
  // constructing under load. Counters are untouched: prewarmed arenas are
  // neither checkouts nor creations, so the checkout-side invariant
  // `checkouts == pool_hits + creations` still holds and every subsequent
  // checkout of a prewarmed arena is a pool hit. Slabs inside each arena
  // still warm up on first use; prewarm removes the pool-level
  // construction, the first sorting round removes the slab-level mallocs.
  // Not thread-safe against concurrent checkout/checkin of the same pool;
  // call it before opening the pool to traffic. Returns the number of
  // workspaces actually parked.
  std::size_t prewarm(std::size_t count = 0) {
    if (count == 0 || count > slots_.size()) count = slots_.size();
    std::size_t parked_now = 0;
    for (auto& s : slots_) {
      if (parked_now == count) break;
      if (s.ptr.load(std::memory_order_relaxed) != nullptr) {
        ++parked_now;  // already warm
        continue;
      }
      sort_workspace* ws = new sort_workspace();
      sort_workspace* expected = nullptr;
      if (s.ptr.compare_exchange_strong(expected, ws,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
        ++parked_now;
      } else {
        delete ws;  // raced with a checkin; slot is warm anyway
        ++parked_now;
      }
    }
    return parked_now;
  }

  // Number of workspaces currently parked (checked in and waiting). A
  // point-in-time scan: exact only while no checkout/checkin is running.
  [[nodiscard]] std::size_t parked() const noexcept {
    std::size_t n = 0;
    for (const auto& s : slots_)
      if (s.ptr.load(std::memory_order_relaxed) != nullptr) ++n;
    return n;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  // Checkouts served from a parked (warm) workspace.
  [[nodiscard]] std::uint64_t pool_hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  // Checkouts that had to construct a fresh workspace.
  [[nodiscard]] std::uint64_t creations() const noexcept {
    return creations_.load(std::memory_order_relaxed);
  }
  // Checkins that found every slot occupied and destroyed the workspace
  // (only possible when concurrency exceeded `capacity`).
  [[nodiscard]] std::uint64_t discards() const noexcept {
    return discards_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t checkouts() const noexcept {
    return checkouts_.load(std::memory_order_relaxed);
  }

  // Process-wide default pool, used by the wide-key refine driver when the
  // caller does not supply one (auto_sort_options::pool).
  static workspace_pool& shared() {
    static workspace_pool p;
    return p;
  }

 private:
  friend class handle;

  void checkin(sort_workspace* ws) noexcept {
    for (auto& s : slots_) {
      sort_workspace* expected = nullptr;
      if (s.ptr.compare_exchange_strong(expected, ws,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
        return;
      }
    }
    discards_.fetch_add(1, std::memory_order_relaxed);
    delete ws;
  }

  struct alignas(detail::kSlabAlign) slot {
    std::atomic<sort_workspace*> ptr{nullptr};
  };
  std::vector<slot> slots_;
  std::atomic<std::uint64_t> checkouts_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> creations_{0};
  std::atomic<std::uint64_t> discards_{0};
};

}  // namespace dovetail
