// Peak-allocation guard for SSA training: Fit must never
// materialize the L x K Hankel matrix. The Gram is built by the sliding
// diagonal identity and the reconstruction reads the series directly, so
// the live-heap high-water mark of a Fit stays far below the L*K*8 bytes
// an explicit trajectory matrix would cost. Global operator new/delete are
// replaced with a counting shim (glibc malloc_usable_size gives the freed
// size back), which is why this suite lives in its own binary: the shim
// must own the whole process, and it would fight a sanitizer's allocator —
// under ASan/TSan the measurement is skipped.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <malloc.h>
#include <new>
#include <vector>

#include "common/rng.h"
#include "forecast/ssa.h"
#include "tsdata/time_series.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IPOOL_ALLOC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define IPOOL_ALLOC_TEST_SANITIZED 1
#endif
#endif
#ifndef IPOOL_ALLOC_TEST_SANITIZED
#define IPOOL_ALLOC_TEST_SANITIZED 0
#endif

namespace {

std::atomic<size_t> g_live_bytes{0};
std::atomic<size_t> g_peak_bytes{0};

[[maybe_unused]] void TrackAlloc(void* p) {
  if (p == nullptr) return;
  const size_t bytes = malloc_usable_size(p);
  const size_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

[[maybe_unused]] void TrackFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

/// Forgets the high-water mark: the next peak reading is relative to the
/// heap as it stands now.
void ResetPeak() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

size_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }
size_t PeakBytes() { return g_peak_bytes.load(std::memory_order_relaxed); }

}  // namespace

#if !IPOOL_ALLOC_TEST_SANITIZED

void* operator new(size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  TrackAlloc(p);
  return p;
}

void* operator new[](size_t size) { return operator new(size); }

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size);
  TrackAlloc(p);
  return p;
}

void* operator new[](size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}

void operator delete(void* p) noexcept {
  TrackFree(p);
  std::free(p);
}

void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, size_t) noexcept { operator delete(p); }
void operator delete[](void* p, size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

#endif  // !IPOOL_ALLOC_TEST_SANITIZED

namespace ipool {
namespace {

TimeSeries NoisySine(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    const double v = 4.0 + 2.0 * std::sin(2.0 * M_PI * static_cast<double>(i) /
                                          64.0) +
                     rng.Normal() * 0.3;
    values[i] = std::max(0.0, v);
  }
  return TimeSeries(0.0, 30.0, std::move(values));
}

TEST(SsaAllocTest, FitPeakStaysFarBelowHankelMaterialization) {
  if (IPOOL_ALLOC_TEST_SANITIZED) {
    GTEST_SKIP() << "allocation shim disabled under sanitizers";
  }
  const size_t n = 2048;
  const size_t window = 256;
  const size_t k = n - window + 1;
  const size_t hankel_bytes = window * k * sizeof(double);

  const TimeSeries history = NoisySine(n, 91);
  SsaForecaster::Options options;
  options.window = window;
  SsaForecaster ssa(options);

  const size_t live_before = LiveBytes();
  ResetPeak();
  ASSERT_TRUE(ssa.Fit(history).ok());
  const size_t fit_peak_delta = PeakBytes() - live_before;

  // Sanity that the shim is really counting: a Fit must at least allocate
  // the L x L Gram, or the bound below proves nothing.
  EXPECT_GE(fit_peak_delta, window * window * sizeof(double));
  // The heart of the check: everything a Fit keeps in flight — the Gram,
  // the Jacobi solve's working copy and eigenvectors, W and the
  // reconstruction — together stays under half of what the Hankel matrix
  // alone would cost.
  EXPECT_LT(fit_peak_delta, hankel_bytes / 2)
      << "Fit peak " << fit_peak_delta << " vs Hankel " << hankel_bytes;
}

}  // namespace
}  // namespace ipool
