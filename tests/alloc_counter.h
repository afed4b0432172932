// Counting replacement of the global allocation functions, for the
// zero-allocation steady-state tests: every operator new bumps g_allocs; all
// allocation behaviour is the default. It defines the replaceable functions,
// so include it from exactly one translation unit per test binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

// GCC 12 cannot see through the replaced global operator new when it inlines
// std::vector's deallocation and flags a malloc/free "mismatch" that is in
// fact matched (both sides of the replacement use malloc/free).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
