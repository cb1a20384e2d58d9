#pragma once
// A counting replacement of the global operator new/delete for
// tests/test_alloc.cpp: while g_counting is set, every operator new call
// adds one to g_allocs.
//
// The operators live in alloc_counter.cpp, a translation unit of their
// own, so no allocation site can inline them.  Inlined, gcc sees the
// malloc inside operator new reach an operator delete call (or an
// operator new result reach the free inside operator delete) and, with
// -fsanitize=address,undefined, warns -Wmismatched-new-delete.

#include <atomic>
#include <cstdint>

namespace sfly::test {

extern std::atomic<std::uint64_t> g_allocs;
extern std::atomic<bool> g_counting;

}  // namespace sfly::test
