// Pooled, reference-counted payload buffers for simulated datagrams.
//
// Every datagram used to carry its own std::vector, reallocated at the
// producer and moved (or copied, at capture taps and SFU fan-out) on every
// hop. A PacketBuffer instead points into a recycled block from the calling
// thread's PacketPool: copying a Packet bumps a refcount, SFU fan-out shares
// one block across all receivers, and a block returns to its size-class free
// list when the last reference drops.
//
// Threading: pools are thread-local and refcounts are deliberately
// non-atomic. A Simulator (and therefore every buffer it circulates) is
// confined to one thread — the parallel bench runner gives each repeat its
// own Simulator on one pool thread — so buffers must never cross threads.
// Blocks are treated as immutable once shared; writable() asserts sole
// ownership and assign() always detaches into a fresh block.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

namespace vtp::net {

/// Counters for allocation-behaviour tracking (reported by bench_simcore).
struct PacketPoolStats {
  std::uint64_t allocations = 0;   ///< buffers handed out
  std::uint64_t pool_hits = 0;     ///< ... of which were recycled blocks
  std::uint64_t fresh_blocks = 0;  ///< ... of which hit the system allocator
  std::uint64_t outstanding = 0;   ///< live buffers right now
};

class PacketBuffer;

/// Size-class free lists of payload blocks. One per thread; reached through
/// ThreadLocal().
class PacketPool {
 public:
  static PacketPool& ThreadLocal();

  const PacketPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PacketPoolStats{.outstanding = stats_.outstanding}; }

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

 private:
  friend class PacketBuffer;

  /// Block header; the payload bytes follow it in the same allocation.
  struct Block {
    std::uint32_t refs;
    std::uint32_t size;
    std::uint32_t capacity;
    std::uint32_t size_class;  ///< index into kClassSizes, or kUnpooled
    std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(this + 1); }
    const std::uint8_t* data() const { return reinterpret_cast<const std::uint8_t*>(this + 1); }
    Block* next_free;  ///< valid only while on a free list
  };

  static constexpr std::uint32_t kClassSizes[] = {64, 256, 1536, 4096, 16384};
  static constexpr std::size_t kNumClasses = sizeof(kClassSizes) / sizeof(kClassSizes[0]);
  static constexpr std::uint32_t kUnpooled = 0xFFFFFFFFu;
  static constexpr std::size_t kMaxFreePerClass = 4096;  ///< bounds idle memory

  PacketPool() = default;
  ~PacketPool();

  Block* Acquire(std::size_t size);
  void Release(Block* block);

  Block* free_lists_[kNumClasses] = {};
  std::size_t free_counts_[kNumClasses] = {};
  PacketPoolStats stats_;
};

/// A shared handle to one pooled payload. Exposes the read-side API of a
/// std::vector<uint8_t> so Packet::payload call sites stay idiomatic.
class PacketBuffer {
 public:
  PacketBuffer() = default;

  /// A buffer of `size` uninitialized bytes from the thread's pool.
  explicit PacketBuffer(std::size_t size) : block_(PacketPool::ThreadLocal().Acquire(size)) {}

  /// A buffer holding a copy of `bytes`.
  static PacketBuffer CopyOf(std::span<const std::uint8_t> bytes);

  PacketBuffer(const PacketBuffer& other) : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  PacketBuffer(PacketBuffer&& other) noexcept : block_(other.block_) { other.block_ = nullptr; }
  PacketBuffer& operator=(const PacketBuffer& other) {
    if (this != &other) {
      Unref();
      block_ = other.block_;
      if (block_ != nullptr) ++block_->refs;
    }
    return *this;
  }
  PacketBuffer& operator=(PacketBuffer&& other) noexcept {
    if (this != &other) {
      Unref();
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~PacketBuffer() { Unref(); }

  std::size_t size() const { return block_ == nullptr ? 0 : block_->size; }
  bool empty() const { return size() == 0; }
  const std::uint8_t* data() const { return block_ == nullptr ? nullptr : block_->data(); }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size(); }
  std::uint8_t operator[](std::size_t i) const { return block_->data()[i]; }

  std::span<const std::uint8_t> view() const { return {data(), size()}; }
  operator std::span<const std::uint8_t>() const { return view(); }

  /// Mutable bytes. Only legal while this handle is the sole owner (before
  /// the buffer was shared with a capture tap or another Packet).
  std::span<std::uint8_t> writable() {
    assert(block_ == nullptr || block_->refs == 1);
    return block_ == nullptr ? std::span<std::uint8_t>{}
                             : std::span<std::uint8_t>{block_->data(), block_->size};
  }

  /// Detaches into a fresh block of `n` bytes, all set to `value`.
  void assign(std::size_t n, std::uint8_t value);

  /// Bytes the underlying block can hold without reallocating (its size
  /// class, typically larger than size()).
  std::size_t capacity() const { return block_ == nullptr ? 0 : block_->capacity; }

  /// Adjusts the byte count within the block's capacity without touching the
  /// contents. Only legal while this handle is the sole owner; the transport's
  /// scratch writer uses it to shrink a maximal MTU-sized block down to the
  /// bytes actually written (and to extend into padding it just memset).
  void resize(std::size_t n) {
    assert(block_ != nullptr && block_->refs == 1 && n <= block_->capacity);
    block_->size = static_cast<std::uint32_t>(n);
  }

  void clear() { Unref(); }

  /// Number of handles sharing this block (0 for an empty handle).
  std::uint32_t ref_count() const { return block_ == nullptr ? 0 : block_->refs; }

 private:
  void Unref();

  PacketPool::Block* block_ = nullptr;
};

}  // namespace vtp::net
