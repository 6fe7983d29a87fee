#include "blas/tune.h"

#include <atomic>

namespace hplmxp::blas {

namespace {
std::atomic<index_t> gMc{GemmBlocking{}.mc};
std::atomic<index_t> gNc{GemmBlocking{}.nc};
std::atomic<index_t> gKc{GemmBlocking{}.kc};

thread_local const GemmKernelShape* tOverride = nullptr;

bool cpuSupports(GemmIsa isa) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  switch (isa) {
    case GemmIsa::kSse2:
      return true;
    case GemmIsa::kAvx2:
      // The avx2 level's FP16 narrowing (blas/cast.cpp) uses F16C.
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
    case GemmIsa::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vl");
  }
  return false;
#else
  return isa == GemmIsa::kSse2;
#endif
}
}  // namespace

const GemmKernelShape& activeGemmKernel() {
  static const GemmKernelShape* const active =
      &gemmKernelShape(detail::supportedGemmIsas().back());
  return *active;
}

GemmBlocking gemmBlocking() {
  return GemmBlocking{gMc.load(std::memory_order_relaxed),
                      gNc.load(std::memory_order_relaxed),
                      gKc.load(std::memory_order_relaxed)};
}

void setGemmBlocking(const GemmBlocking& blocking) {
  const GemmKernelShape& kern = activeGemmKernel();
  gMc.store(blocking.mc > 0 ? roundUp(blocking.mc, kern.mr) : kern.mr,
            std::memory_order_relaxed);
  gNc.store(blocking.nc > 0 ? roundUp(blocking.nc, kern.nr) : kern.nr,
            std::memory_order_relaxed);
  gKc.store(blocking.kc > 0 ? blocking.kc : 1, std::memory_order_relaxed);
}

namespace detail {

std::vector<GemmIsa> supportedGemmIsas() {
  std::vector<GemmIsa> isas;
  for (const GemmKernelShape& k : kGemmKernels) {
    if (cpuSupports(k.isa)) {
      isas.push_back(k.isa);
    }
  }
  return isas;
}

ScopedGemmIsa::ScopedGemmIsa(GemmIsa isa) : saved_(tOverride) {
  HPLMXP_REQUIRE(cpuSupports(isa), "ScopedGemmIsa: ISA not supported here");
  tOverride = &gemmKernelShape(isa);
}

ScopedGemmIsa::~ScopedGemmIsa() { tOverride = saved_; }

const GemmKernelShape& callerGemmKernel() {
  return tOverride != nullptr ? *tOverride : activeGemmKernel();
}

}  // namespace detail

}  // namespace hplmxp::blas
