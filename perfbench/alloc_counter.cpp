// Binary-local allocation counter: every operator new in this process
// bumps a thread-local tally, so a measurement reads the allocations its
// own thread made. Kept in a file of its own, away from any code that
// allocates, so the replaced functions are never inlined into a caller.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocations;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocation_count() noexcept { return t_allocations; }

}  // namespace perfbench
