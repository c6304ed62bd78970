#include "common/arena.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>

namespace attain::mem {

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

struct Arena::Block {
  Block* next{nullptr};
  std::size_t capacity{0};
  std::size_t used{0};
  // Payload follows the header, max_align_t-aligned.
  unsigned char* data() {
    return reinterpret_cast<unsigned char*>(this) + header_size();
  }
  static constexpr std::size_t header_size() {
    return (sizeof(Block) + alignof(std::max_align_t) - 1) &
           ~(alignof(std::max_align_t) - 1);
  }
};

Arena::Arena(std::size_t first_block_size)
    : first_block_size_(std::max<std::size_t>(first_block_size, 256)) {}

Arena::~Arena() {
  Block* b = head_;
  while (b != nullptr) {
    Block* next = b->next;
    ::operator delete(static_cast<void*>(b));
    b = next;
  }
}

Arena::Block* Arena::new_block(std::size_t payload) {
  void* raw = ::operator new(Block::header_size() + payload);
  Block* b = new (raw) Block;
  b->capacity = payload;
  stats_.bytes_reserved += payload;
  ++stats_.block_count;
  return b;
}

void* Arena::allocate(std::size_t size, std::size_t align) {
  ++stats_.allocations;
  if (size == 0) size = 1;
  for (Block* b = current_; b != nullptr; b = b->next) {
    const std::size_t aligned = (b->used + align - 1) & ~(align - 1);
    if (aligned + size <= b->capacity) {
      b->used = aligned + size;
      current_ = b;
      stats_.bytes_in_use += size;
      stats_.high_water = std::max(stats_.high_water, stats_.bytes_in_use);
      return b->data() + aligned;
    }
    // Fall through to the next retained block (left over from a reset).
  }
  // Chain a fresh block: geometric growth, capped, and big enough for
  // oversized requests in one piece.
  std::size_t payload = first_block_size_;
  if (current_ != nullptr) {
    payload = std::min(kMaxBlockSize, current_->capacity * 2);
  }
  payload = std::max(payload, size + align);
  Block* b = new_block(payload);
  if (head_ == nullptr) {
    head_ = b;
  } else {
    // Append at the end of the chain so retained blocks keep their order.
    Block* tail = current_ != nullptr ? current_ : head_;
    while (tail->next != nullptr) tail = tail->next;
    tail->next = b;
  }
  current_ = b;
  const std::size_t aligned = (b->used + align - 1) & ~(align - 1);
  b->used = aligned + size;
  stats_.bytes_in_use += size;
  stats_.high_water = std::max(stats_.high_water, stats_.bytes_in_use);
  return b->data() + aligned;
}

void Arena::reserve(std::size_t size) {
  for (Block* b = current_; b != nullptr; b = b->next) {
    if (b->used + size <= b->capacity) return;
  }
  Block* b = new_block(std::max(first_block_size_, size));
  if (head_ == nullptr) {
    head_ = b;
    current_ = b;
  } else {
    Block* tail = head_;
    while (tail->next != nullptr) tail = tail->next;
    tail->next = b;
  }
}

void Arena::reset() {
  for (Block* b = head_; b != nullptr; b = b->next) b->used = 0;
  current_ = head_;
  stats_.bytes_in_use = 0;
  ++stats_.resets;
}

void Arena::reset_and_trim() {
  reset();
  if (head_ == nullptr) return;
  Block* b = head_->next;
  head_->next = nullptr;
  current_ = head_;
  while (b != nullptr) {
    Block* next = b->next;
    stats_.bytes_reserved -= b->capacity;
    --stats_.block_count;
    ::operator delete(static_cast<void*>(b));
    b = next;
  }
}

Arena::Mark Arena::mark() const {
  Mark m;
  m.block = current_;
  m.used = current_ != nullptr ? current_->used : 0;
  m.bytes_in_use = stats_.bytes_in_use;
  return m;
}

void Arena::rewind(const Mark& m) {
  Block* target = static_cast<Block*>(m.block);
  if (target == nullptr) {
    // Mark taken before the first allocation: empty everything.
    for (Block* b = head_; b != nullptr; b = b->next) b->used = 0;
    current_ = head_;
  } else {
    target->used = m.used;
    for (Block* b = target->next; b != nullptr; b = b->next) b->used = 0;
    current_ = target;
  }
  stats_.bytes_in_use = m.bytes_in_use;
}

// ---------------------------------------------------------------------------
// SlabPool
// ---------------------------------------------------------------------------

namespace {
// Oversize header, sized to preserve max_align_t alignment of the payload.
constexpr std::size_t big_header_size(std::size_t node_size) {
  return (node_size + alignof(std::max_align_t) - 1) & ~(alignof(std::max_align_t) - 1);
}
}  // namespace

int SlabPool::class_index(std::size_t size) {
  if (size > kMaxClass) return -1;
  std::size_t c = kMinClass;
  int index = 0;
  while (c < size) {
    c <<= 1;
    ++index;
  }
  return index;
}

std::size_t SlabPool::class_size(std::size_t size) {
  const int index = class_index(size);
  if (index < 0) return size;
  return kMinClass << index;
}

SlabPool::~SlabPool() {
  while (big_free_ != nullptr) {
    BigNode* node = big_free_;
    big_free_ = node->next;
    ::operator delete(node);
  }
}

void* SlabPool::allocate_oversize(std::size_t size) {
  stats_.bytes_live += size;
  stats_.high_water = std::max(stats_.high_water, stats_.bytes_live);
  for (BigNode** prev = &big_free_; *prev != nullptr; prev = &(*prev)->next) {
    BigNode* node = *prev;
    if (node->size == size) {
      *prev = node->next;
      ++stats_.oversize_hits;
      return reinterpret_cast<unsigned char*>(node) + big_header_size(sizeof(BigNode));
    }
  }
  ++stats_.oversize_allocs;
  void* raw = ::operator new(big_header_size(sizeof(BigNode)) + size);
  BigNode* node = new (raw) BigNode{nullptr, size};
  return reinterpret_cast<unsigned char*>(node) + big_header_size(sizeof(BigNode));
}

void SlabPool::deallocate_oversize(void* p, std::size_t size) {
  stats_.bytes_live -= size;
  BigNode* node =
      reinterpret_cast<BigNode*>(static_cast<unsigned char*>(p) - big_header_size(sizeof(BigNode)));
  node->next = big_free_;
  node->size = size;
  big_free_ = node;
}

void* SlabPool::allocate(std::size_t size) {
  ++stats_.allocs;
  const int index = class_index(size);
  if (index < 0) return allocate_oversize(size);
  const std::size_t rounded = kMinClass << index;
  stats_.bytes_live += rounded;
  stats_.high_water = std::max(stats_.high_water, stats_.bytes_live);
  if (FreeNode* node = free_[index]) {
    free_[index] = node->next;
    ++stats_.freelist_hits;
    return node;
  }
  ++stats_.arena_refills;
  return arena_.allocate(rounded);
}

void SlabPool::deallocate(void* p, std::size_t size) {
  if (p == nullptr) return;
  const int index = class_index(size);
  if (index < 0) {
    deallocate_oversize(p, size);
    return;
  }
  stats_.bytes_live -= kMinClass << index;
  FreeNode* node = static_cast<FreeNode*>(p);
  node->next = free_[index];
  free_[index] = node;
}

// ---------------------------------------------------------------------------
// Thread slabs
// ---------------------------------------------------------------------------

namespace {

// Keeps every thread slab reachable for the process lifetime: cross-thread
// frees may recycle another thread's backing memory, so pools must never
// die (and LeakSanitizer sees them as still reachable, not leaked).
struct SlabRegistry {
  std::mutex mu;
  std::vector<SlabPool*> pools;
};

SlabRegistry& registry() {
  static SlabRegistry* r = new SlabRegistry;  // leaked: outlives every thread
  return *r;
}

SlabPool* make_thread_slab() {
  SlabPool* pool = new SlabPool;
  SlabRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.pools.push_back(pool);
  return pool;
}

thread_local std::uint64_t t_run_boundaries = 0;

}  // namespace

SlabPool& thread_slab() {
  static thread_local SlabPool* pool = make_thread_slab();
  return *pool;
}

SlabPool::Stats all_slabs_stats() {
  SlabPool::Stats sum;
  SlabRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const SlabPool* pool : r.pools) {
    const SlabPool::Stats& s = pool->stats();
    sum.allocs += s.allocs;
    sum.freelist_hits += s.freelist_hits;
    sum.arena_refills += s.arena_refills;
    sum.oversize_allocs += s.oversize_allocs;
    sum.oversize_hits += s.oversize_hits;
    sum.bytes_live += s.bytes_live;
    sum.high_water += s.high_water;
  }
  return sum;
}

std::size_t thread_slab_count() {
  SlabRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.pools.size();
}

void run_boundary() { ++t_run_boundaries; }

std::uint64_t run_boundaries() { return t_run_boundaries; }

}  // namespace attain::mem
