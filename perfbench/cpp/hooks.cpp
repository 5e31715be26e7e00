#include "hooks.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Relaxed atomics: the workloads run on one thread, but the service's
// supervisor is free to start helpers, and a counter must never race.
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_fsyncs{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t fsync_count() {
  return g_fsyncs.load(std::memory_order_relaxed);
}

}  // namespace perfbench

// Replacing the scalar forms is enough: libstdc++'s array and nothrow
// forms call them.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// The libraries are linked statically into this executable, so their
// ::fsync / ::fdatasync calls bind here.  Forward with the raw system call
// (same return value and errno contract as the libc wrappers).
extern "C" int fsync(int fd) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(::syscall(SYS_fsync, fd));
}

extern "C" int fdatasync(int fd) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(::syscall(SYS_fdatasync, fd));
}
