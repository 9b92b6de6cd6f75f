#pragma once
// Per-shard memory arena: the allocator behind the sharded benches.
//
// Motivation (see EXPERIMENTS.md "Performance"): every shard of a sharded
// bench performs millions of short-lived heap allocations (Bytes payloads,
// Packet queues, std::string DNS names, HTTP/2 frame scratch). Once a
// process has ever created a second thread, glibc malloc serves all of them
// through its locked path, so the sharded benches scaled *negatively* with
// `--jobs`. The fix is jemalloc-style: install a thread-private arena at the
// allocation boundary (replaced `operator new`/`delete`, see
// arena_hooks.cpp) instead of threading an allocator type through every
// call site. While a `MemoryScope` is active on a thread, all allocations
// on that thread are served from the shard's private `ShardMemory`; code
// above the boundary (EventLoop, Bytes/BufferSlice, Packet, TCP/TLS/HTTP-2
// frame assembly, DNS encode/decode, obs span pools) is untouched and
// byte-identical in behaviour.
//
// Design:
//   - Chunked bump allocation: 256 KiB chunks carved front-to-back, with
//     per-size-class intrusive freelists for recycling. Size classes are
//     powers of two plus half-steps (32 B, 48 B, 64 B, 96 B, ... 4 MiB);
//     anything larger is passed through to the global heap ("huge").
//   - Every block (arena or global) carries a 16-byte header just below
//     the user pointer: {owner arena (null => global heap), size class,
//     offset back to the raw allocation}. `deallocate()` routes on the
//     header, so frees need no thread-local state and escaped blocks can
//     be freed from any thread once a happens-before edge (thread join)
//     exists.
//   - Orphan lifetime: shard results (stats::Cdf vectors, obs::Registry
//     maps) legitimately escape the shard that allocated them. An arena
//     counts its live blocks; `release()` drops the creator reference and
//     the arena self-destructs only when the last escaped block is freed.
//   - `reset()` rewinds the bump cursor and rebuilds the freelists so one
//     worker can recycle a warm arena between shards without returning
//     chunks to the OS. Legal only with zero live blocks.
//
// Determinism: the arena changes where memory lives, never iteration order
// or contents — all sharded benches stay byte-identical across `--jobs`
// values and identical to pre-arena binaries at `--jobs 1` (CI enforces
// both with `cmp`).
#include <cstddef>
#include <cstdint>

namespace dohperf::simnet {

class ShardMemory;

namespace detail {
// POD thread-locals (zero-initialised, no dynamic init) so the replaced
// operator new in arena_hooks.cpp is safe before main() and during static
// destruction. `constinit` on the declaration tells every including TU
// that no TLS init wrapper exists, so accesses go straight to the slot.
extern constinit thread_local ShardMemory* tls_current_arena;
extern constinit thread_local std::uint64_t tls_scope_global_allocs;

// Global-heap allocation with a routing header (owner = nullptr), used by
// the hooks whenever no arena scope is active and for huge blocks.
void* global_alloc(std::size_t size, std::size_t align);
}  // namespace detail

// Allocation accounting surfaced as the mem.* metric family (see the
// metric-name contract in EXPERIMENTS.md). `global_allocs` counts
// global-heap hits made while an arena scope was active (new chunks plus
// huge passthroughs); in shard steady state its per-shard delta must be 0.
struct ShardMemoryStats {
  std::uint64_t arena_bytes = 0;     // payload bytes reserved in chunks
  std::uint64_t arena_chunks = 0;    // chunks obtained from the global heap
  std::uint64_t arena_allocs = 0;    // allocations served by the arena
  std::uint64_t freelist_hits = 0;   // of those, served by recycling
  std::uint64_t huge_allocs = 0;     // above max class, global passthrough
  std::uint64_t live_blocks = 0;     // arena blocks not yet freed
  std::uint64_t global_allocs = 0;   // global-heap hits while scope active

  void accumulate(const ShardMemoryStats& other) {
    arena_bytes += other.arena_bytes;
    arena_chunks += other.arena_chunks;
    arena_allocs += other.arena_allocs;
    freelist_hits += other.freelist_hits;
    huge_allocs += other.huge_allocs;
    live_blocks += other.live_blocks;
    global_allocs += other.global_allocs;
  }
};

class ShardMemory {
 public:
  static constexpr std::size_t kHeaderSize = 16;
  static constexpr std::size_t kMinClassBytes = 32;
  static constexpr std::size_t kMaxClassBytes = std::size_t{4} << 20;
  static constexpr std::size_t kNumClasses = 35;
  static constexpr std::size_t kChunkPayload = std::size_t{256} << 10;
  static constexpr std::size_t kHugeClass = 0xFFFFFFFFu;

  // Heap-only lifetime: an arena may outlive the worker that made it (see
  // orphan lifetime above), so construction is factory + release, never a
  // stack object.
  static ShardMemory* create();

  // Drops the creator reference. The arena destructs immediately if no
  // blocks are live, else when the last escaped block is freed.
  void release();

  // Serve `size` user bytes at alignment `align` (power of two; <= 16 is
  // the no-padding fast path). Blocks above kMaxClassBytes total size go
  // to the global heap with a routing header.
  void* allocate(std::size_t size, std::size_t align);

  // Header-routed free for any pointer produced by allocate() or
  // detail::global_alloc(). Safe cross-thread once a join ordered the
  // allocating thread before the freeing one.
  static void deallocate(void* user);

  // Rewind for reuse between shards: rebuild freelists, point the bump
  // cursor back at the first chunk. Returns false (and does nothing) if
  // blocks are still live.
  bool reset();

  ShardMemoryStats stats() const { return stats_snapshot(); }

  // Exposed for tests and accounting.
  static std::size_t class_for(std::size_t total_bytes);
  static std::size_t class_bytes(std::size_t cls);
  static ShardMemory* owner_of(const void* user);

  ShardMemory(const ShardMemory&) = delete;
  ShardMemory& operator=(const ShardMemory&) = delete;

 private:
  ShardMemory();
  ~ShardMemory();

  struct Chunk;
  struct FreeNode {
    FreeNode* next;
  };

  void* bump_alloc(std::size_t cls);
  void* slab_alloc(std::size_t cls);
  Chunk* new_chunk(std::size_t payload_bytes, std::uint64_t kind);
  void free_block(void* raw, std::uint32_t cls);
  void maybe_self_destruct();
  ShardMemoryStats stats_snapshot() const;

  Chunk* bump_head_ = nullptr;   // uniform kChunkPayload chunks, in order
  Chunk* bump_tail_ = nullptr;
  Chunk* active_ = nullptr;      // bump cursor lives in this chunk
  std::byte* cur_ = nullptr;
  std::byte* end_ = nullptr;
  Chunk* slab_head_ = nullptr;   // one-block chunks for big classes
  FreeNode* free_[kNumClasses] = {};

  std::uint64_t live_ = 0;       // outstanding arena blocks
  bool released_ = false;        // creator reference dropped
  ShardMemoryStats stats_;

  friend struct ShardMemoryTestPeer;
};

// RAII: install an arena as the thread's current allocation target for the
// replaced operator new (no-op in binaries without arena_hooks.cpp, but
// the scope-active global-alloc counter still works there as zero).
class MemoryScope {
 public:
  explicit MemoryScope(ShardMemory& arena) : prev_(detail::tls_current_arena) {
    detail::tls_current_arena = &arena;
  }
  ~MemoryScope() { detail::tls_current_arena = prev_; }

  MemoryScope(const MemoryScope&) = delete;
  MemoryScope& operator=(const MemoryScope&) = delete;

 private:
  ShardMemory* prev_;
};

inline ShardMemory* current_arena() { return detail::tls_current_arena; }

// Monotone per-thread counter of global-heap hits made while an arena
// scope was active on this thread. Benches snapshot it around a shard to
// assert the steady-state hot path never touches the global heap.
inline std::uint64_t scope_global_allocs() {
  return detail::tls_scope_global_allocs;
}

}  // namespace dohperf::simnet
