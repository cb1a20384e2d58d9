#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace sfly::test {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

}  // namespace sfly::test

void* operator new(std::size_t size) {
  if (sfly::test::g_counting.load(std::memory_order_relaxed))
    sfly::test::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
