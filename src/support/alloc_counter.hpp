#pragma once

/// \file alloc_counter.hpp
/// Global allocation counter for zero-allocation assertions.
///
/// Including this header replaces the global operator new/delete of the
/// whole binary with counting variants, so hot-path tests and benches can
/// assert "this loop allocated nothing". Include it from EXACTLY ONE
/// translation unit per binary (the definitions below are deliberately
/// non-inline replacements of the global operators) — currently
/// tests/test_flux_workspace.cpp and bench/bench_micro.cpp.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace jsweep::support {

namespace detail {
inline std::atomic<std::int64_t> g_allocs{0};
}  // namespace detail

/// Allocations performed by this binary so far.
inline std::int64_t allocation_count() {
  return detail::g_allocs.load(std::memory_order_relaxed);
}

}  // namespace jsweep::support

// GCC pairs the replaced operators against the built-in malloc/free rules
// and reports a false mismatch; the replacements below are consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  jsweep::support::detail::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The nothrow forms too: the standard library frees their blocks (e.g.
// std::stable_sort's temporary buffer) through the sized delete above,
// so leaving them to the runtime pairs a foreign new with our free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  jsweep::support::detail::g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
