// Identifier and resource types shared by the cluster model, scheduler and
// storage substrates.

#ifndef HARVEST_SRC_CLUSTER_TYPES_H_
#define HARVEST_SRC_CLUSTER_TYPES_H_

#include <cstdint>

namespace harvest {

using ServerId = int32_t;
using TenantId = int32_t;
using EnvironmentId = int32_t;
using RackId = int32_t;
using JobId = int64_t;
using ContainerId = int64_t;
using BlockId = int64_t;

inline constexpr ServerId kInvalidServer = -1;
inline constexpr TenantId kInvalidTenant = -1;

// Allocatable server resources (the paper's YARN arbitrates cores + memory).
struct Resources {
  int cores = 0;
  int memory_mb = 0;

  Resources operator+(const Resources& other) const {
    return {cores + other.cores, memory_mb + other.memory_mb};
  }
  Resources operator-(const Resources& other) const {
    return {cores - other.cores, memory_mb - other.memory_mb};
  }
  Resources& operator+=(const Resources& other) {
    cores += other.cores;
    memory_mb += other.memory_mb;
    return *this;
  }
  Resources& operator-=(const Resources& other) {
    cores -= other.cores;
    memory_mb -= other.memory_mb;
    return *this;
  }
  // Hand-written member-wise comparison (not `= default`): defaulted
  // comparisons are a C++20 feature, and the library core must stay
  // embeddable in downstream builds pinned at -std=c++17.
  friend constexpr bool operator==(const Resources& a, const Resources& b) {
    return a.cores == b.cores && a.memory_mb == b.memory_mb;
  }
  friend constexpr bool operator!=(const Resources& a, const Resources& b) { return !(a == b); }

  // True when this bundle can accommodate `request` in both dimensions.
  bool Fits(const Resources& request) const {
    return request.cores <= cores && request.memory_mb <= memory_mb;
  }
};

// Testbed server shape from paper §6.1: 12 cores / 32 GB, with 4 cores and
// 10 GB reserved for primary-tenant bursts.
inline constexpr Resources kDefaultServerCapacity{12, 32 * 1024};
inline constexpr Resources kDefaultReserve{4, 10 * 1024};

}  // namespace harvest

#endif  // HARVEST_SRC_CLUSTER_TYPES_H_
