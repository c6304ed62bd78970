// Arena/slab memory architecture for the end-to-end hot path.
//
// Three layers, bottom up:
//
//  - Arena: a chained-block bump allocator (the reserve/commit idiom,
//    portable): allocation advances a cursor through geometrically growing
//    blocks; nothing is freed individually. TempScope marks a position and
//    unwinds to it; reset() rewinds the whole arena while *retaining* its
//    blocks, so the next run reuses the committed memory with zero calls
//    into the general heap. Per-arena byte/high-water stats make ownership
//    visible to benches and tests.
//
//  - SlabPool: power-of-two size-class freelists carved out of an Arena.
//    allocate/deallocate recycle blocks of a class in LIFO order; once a
//    workload's working set has been seen, every subsequent allocation is
//    a freelist pop — zero malloc/free in steady state. Requests beyond
//    the largest class fall through to ::operator new (counted).
//
//  - SlabAllocator<T>: a stateless std-allocator over the calling thread's
//    SlabPool (thread_slab()). The repo's hot containers — Bytes,
//    ofp::ActionList, flow-table indexes, scheduler queues — are typedef'd
//    onto it, which is what drives the simulate loop's steady-state
//    allocation count to zero (tests/test_memory_guard.cpp pins this).
//
// Thread slabs are registered in a process-global registry and deliberately
// never destroyed ("leak by design"): a container allocated on one thread
// may be freed on another (the sweep engine ships results across threads),
// and the freeing thread's freelist may hand that block out again later —
// so backing memory must outlive every thread. The registry keeps the
// pools reachable, which also keeps LeakSanitizer quiet.
//
// Lifetime rules per layer are documented in docs/architecture.md
// ("Memory architecture").
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <new>
#include <unordered_map>
#include <vector>

namespace attain::mem {

/// Chained-block bump arena. Not thread-safe; one arena belongs to one
/// owner (a run, a connection, a monitor).
class Arena {
 public:
  static constexpr std::size_t kDefaultBlockSize = 64 * 1024;
  static constexpr std::size_t kMaxBlockSize = 1024 * 1024;

  struct Stats {
    std::size_t bytes_in_use{0};    // currently committed to live allocations
    std::size_t bytes_reserved{0};  // sum of block payload capacities
    std::size_t high_water{0};      // max bytes_in_use ever observed
    std::size_t block_count{0};
    std::uint64_t allocations{0};   // allocate() calls over the arena's lifetime
    std::uint64_t resets{0};
  };

  explicit Arena(std::size_t first_block_size = kDefaultBlockSize);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `size` bytes aligned to `align` (a power of two, at
  /// most alignof(std::max_align_t)). Never returns nullptr; grows the
  /// chain when the current block is exhausted. Oversized requests get a
  /// dedicated block.
  void* allocate(std::size_t size, std::size_t align = alignof(std::max_align_t));

  /// Ensures at least `size` contiguous bytes can be allocated without a
  /// new block (the "reserve" half of reserve/commit).
  void reserve(std::size_t size);

  /// Rewinds the whole arena to empty. Every block is retained for reuse —
  /// the wholesale teardown at run boundaries costs no heap traffic.
  void reset();

  /// reset(), then returns every block but the first to the heap (for
  /// arenas whose high-water was a one-off spike).
  void reset_and_trim();

  const Stats& stats() const { return stats_; }

  /// A position in the arena; TempScope unwinds to one.
  struct Mark {
    void* block{nullptr};
    std::size_t used{0};
    std::size_t bytes_in_use{0};
  };

  Mark mark() const;
  /// Unwinds to `m`: everything allocated after mark() is discarded.
  /// Blocks stay on the chain. Marks must unwind in LIFO order.
  void rewind(const Mark& m);

 private:
  struct Block;

  Block* new_block(std::size_t payload);

  Block* head_{nullptr};     // first block of the chain
  Block* current_{nullptr};  // block the cursor is in
  std::size_t first_block_size_;
  Stats stats_;
};

/// RAII temporary-memory scope: everything allocated from `arena` while
/// the scope is alive is released when it dies. Scopes nest LIFO.
class TempScope {
 public:
  explicit TempScope(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
  ~TempScope() { arena_.rewind(mark_); }

  TempScope(const TempScope&) = delete;
  TempScope& operator=(const TempScope&) = delete;

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// Size-class slab pool over an Arena. allocate() pops the class freelist
/// or bumps the arena; deallocate() pushes back. Not thread-safe.
class SlabPool {
 public:
  static constexpr std::size_t kMinClass = 16;  // one freelist pointer + slack
  /// Large enough that big steady-state containers (the scheduler's event
  /// heap, flow-table slot vectors) recycle their doubling reallocations
  /// through freelists instead of the general heap. Beyond: ::operator new
  /// (counted).
  static constexpr std::size_t kMaxClass = 4 * 1024 * 1024;
  static constexpr std::size_t kClassCount = 19;  // 16,32,...,4 MiB

  struct Stats {
    std::uint64_t allocs{0};          // all allocate() calls
    std::uint64_t freelist_hits{0};   // served by recycling
    std::uint64_t arena_refills{0};   // served by bumping the arena
    std::uint64_t oversize_allocs{0}; // fell through to ::operator new
    std::uint64_t oversize_hits{0};   // oversize served by the exact-size freelist
    std::size_t bytes_live{0};        // currently handed out (rounded to class)
    std::size_t high_water{0};
  };

  explicit SlabPool(std::size_t first_block_size = Arena::kDefaultBlockSize)
      : arena_(first_block_size) {}
  /// Returns the recycled oversize blocks to the heap. Blocks still handed
  /// out are the caller's to free first.
  ~SlabPool();

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  void* allocate(std::size_t size);
  void deallocate(void* p, std::size_t size);

  const Stats& stats() const { return stats_; }
  const Arena::Stats& arena_stats() const { return arena_.stats(); }

  /// Rounded allocation size for `size` (what bytes_live accounts).
  static std::size_t class_size(std::size_t size);

 private:
  static int class_index(std::size_t size);

  struct FreeNode {
    FreeNode* next;
  };
  /// Oversize (> kMaxClass) recycling: a header-prefixed exact-size
  /// freelist. Oversize requests are rare and, in deterministic runs,
  /// repeat the same sizes (vector-doubling capacities), so a short
  /// scanned list recycles them the way the classes recycle small blocks.
  struct BigNode {
    BigNode* next;
    std::size_t size;
  };

  void* allocate_oversize(std::size_t size);
  void deallocate_oversize(void* p, std::size_t size);

  Arena arena_;
  FreeNode* free_[kClassCount]{};
  BigNode* big_free_{nullptr};
  Stats stats_;
};

/// The calling thread's slab pool. Created on first use, registered in a
/// process-global registry, and never destroyed (see file comment).
SlabPool& thread_slab();

/// Aggregate view over every thread slab ever created (registry-wide sums;
/// other threads' counters are read racily — use for reporting only).
SlabPool::Stats all_slabs_stats();

/// Number of thread slabs ever created.
std::size_t thread_slab_count();

/// Marks a run (sweep-cell) boundary on this thread: bumps the boundary
/// counter benches key per-cell deltas from. Run-scoped arenas (monitor
/// event logs, per-connection frame buffers) are torn down wholesale by
/// their owners' destructors; the thread slab persists by design so the
/// next cell reuses its freelists.
void run_boundary();

/// Boundaries recorded on this thread (run_boundary() calls).
std::uint64_t run_boundaries();

/// Std-allocator over thread_slab(). Stateless: all instances are equal,
/// memory may be freed on a different thread than it was allocated on.
template <typename T>
struct SlabAllocator {
  using value_type = T;

  SlabAllocator() noexcept = default;
  template <typename U>
  SlabAllocator(const SlabAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(thread_slab().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    thread_slab().deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const SlabAllocator&, const SlabAllocator&) { return true; }
  friend bool operator!=(const SlabAllocator&, const SlabAllocator&) { return false; }
};

/// Std-allocator over one specific Arena — for run-scoped containers whose
/// elements all die together (monitor event logs). deallocate() is a no-op;
/// the owner resets or destroys the arena wholesale.
template <typename T>
struct ArenaAllocator {
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  Arena* arena{nullptr};

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena& a) noexcept : arena(&a) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept : arena(other.arena) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) noexcept {}

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena == b.arena;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena != b.arena;
  }
};

// Slab-backed aliases for the simulator's hot containers.
template <typename T>
using vector = std::vector<T, SlabAllocator<T>>;
template <typename T>
using deque = std::deque<T, SlabAllocator<T>>;
template <typename K, typename V, typename C = std::less<K>>
using map = std::map<K, V, C, SlabAllocator<std::pair<const K, V>>>;
template <typename K, typename V, typename H = std::hash<K>, typename E = std::equal_to<K>>
using unordered_map =
    std::unordered_map<K, V, H, E, SlabAllocator<std::pair<const K, V>>>;

}  // namespace attain::mem
