#include "netsim/packet_buffer.h"

#include <cstring>
#include <new>

namespace vtp::net {

PacketPool& PacketPool::ThreadLocal() {
  thread_local PacketPool pool;
  return pool;
}

PacketPool::~PacketPool() {
  for (Block* head : free_lists_) {
    while (head != nullptr) {
      Block* next = head->next_free;
      ::operator delete(head);
      head = next;
    }
  }
}

PacketPool::Block* PacketPool::Acquire(std::size_t size) {
  ++stats_.allocations;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    if (size > kClassSizes[c]) continue;
    if (free_lists_[c] != nullptr) {
      Block* b = free_lists_[c];
      free_lists_[c] = b->next_free;
      --free_counts_[c];
      b->refs = 1;
      b->size = static_cast<std::uint32_t>(size);
      ++stats_.pool_hits;
      return b;
    }
    Block* b = static_cast<Block*>(::operator new(sizeof(Block) + kClassSizes[c]));
    b->refs = 1;
    b->size = static_cast<std::uint32_t>(size);
    b->capacity = kClassSizes[c];
    b->size_class = static_cast<std::uint32_t>(c);
    return b;
  }
  // Oversized: a one-off allocation freed on release.
  Block* b = static_cast<Block*>(::operator new(sizeof(Block) + size));
  b->refs = 1;
  b->size = static_cast<std::uint32_t>(size);
  b->capacity = static_cast<std::uint32_t>(size);
  b->size_class = kUnpooled;
  return b;
}

void PacketPool::Release(Block* block) {
  const std::uint32_t c = block->size_class;
  if (c == kUnpooled || free_counts_[c] >= kMaxFreePerClass) {
    ::operator delete(block);
    return;
  }
  block->next_free = free_lists_[c];
  free_lists_[c] = block;
  ++free_counts_[c];
}

PacketBuffer PacketBuffer::CopyOf(std::span<const std::uint8_t> bytes) {
  PacketBuffer buf(bytes.size());
  if (!bytes.empty()) std::memcpy(buf.block_->data(), bytes.data(), bytes.size());
  return buf;
}

void PacketBuffer::assign(std::size_t n, std::uint8_t value) {
  Unref();
  block_ = PacketPool::ThreadLocal().Acquire(n);
  std::memset(block_->data(), value, n);
}

void PacketBuffer::Unref() {
  if (block_ != nullptr && --block_->refs == 0) {
    PacketPool::ThreadLocal().Release(block_);
  }
  block_ = nullptr;
}

}  // namespace vtp::net
