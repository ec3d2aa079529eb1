// Versioned binary trace files: a Cluster (tenants, servers, per-server
// utilization traces, reimage timelines, harvestable storage) serialized so
// any scenario run can be replayed exactly from disk instead of regenerated
// from the synthetic generators. Export never loses a bit -- utilization
// samples round-trip as raw IEEE-754 doubles and shared trace objects stay
// shared -- so a replayed fleet drives the downstream pipeline (clustering,
// scheduling, storage) to byte-identical results: every stage draws from its
// own (seed, dc-index, stage-tag) RNG stream and the replay path draws
// nothing. This is what turns a bug report into a shippable reproducer: dump
// the offending run with `harvest_sim --dump-traces=DIR`, commit the .trace
// file, and replay it forever under knob sweeps with `--set trace_dir=DIR`.
//
// File layout (all integers little-endian, doubles as raw LE bit patterns):
//
//   [magic "HRVTRACE"] [u32 version] [u64 trace_slots (max series length)]
//   [u64 num_tenants] [u64 num_servers] [u64 num_traces]
//   per trace   : [u64 samples] [f64 x samples]        (shared server pool)
//   per tenant  : [u32 environment] [u8 pattern] [f64 reimage_rate]
//                 [u32 name_bytes] [name] [u64 samples] [f64 x samples]
//   per server  : [u32 tenant] [u32 rack] [u32 cores] [u32 memory_mb]
//                 [i64 harvestable_blocks] [i64 trace_index]
//                 [u64 reimages] [f64 x reimages]
//
// trace_index -1 is reserved by the writer for a traceless server but
// rejected by the reader: Server::utilization is never null after cluster
// construction (src/cluster/cluster.h), so a file carrying one cannot
// produce a usable fleet.
//
// Validation on read: magic and version, bounded counts, in-range indices
// and enum values, no NaN utilization sample, a nonzero core count, a rack
// below the server count, finite non-negative reimage times, and exact
// end-of-file (a truncated or oversized file is an error, never a partial
// cluster).

#ifndef HARVEST_SRC_TRACE_TRACE_IO_H_
#define HARVEST_SRC_TRACE_TRACE_IO_H_

#include <cstdint>
#include <string>

#include "src/cluster/cluster.h"

namespace harvest {

inline constexpr uint32_t kTraceFileVersion = 1;

// Header facts a reader learns before trusting the payload; exposed so the
// driver can validate a replayed fleet against the scenario's knobs (e.g.
// trace_slots) with a usage error instead of a silent mismatch.
struct TraceFileInfo {
  uint32_t version = 0;
  // Longest utilization series in the file (server pool and tenant averages).
  size_t trace_slots = 0;
  size_t tenants = 0;
  size_t servers = 0;
  size_t shared_traces = 0;
};

// Serializes `cluster` to `path` (overwriting). Returns false and sets
// `error` on I/O failure.
bool WriteClusterTraceFile(const Cluster& cluster, const std::string& path, std::string* error);

// Deserializes a cluster from `path` into `*cluster` (replacing its
// contents). Shared utilization traces are restored as shared objects.
// On success fills `*info` when non-null. Returns false and sets `error` on
// I/O failure, bad magic/version, or a malformed / truncated payload.
bool ReadClusterTraceFile(const std::string& path, Cluster* cluster, TraceFileInfo* info,
                          std::string* error);

}  // namespace harvest

#endif  // HARVEST_SRC_TRACE_TRACE_IO_H_
