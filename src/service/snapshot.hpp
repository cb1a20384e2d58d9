#pragma once
// Versioned artifact snapshot store (docs/SERVICE.md §Snapshots).
//
// A snapshot serializes every fully materialized topology in an
// ArtifactCache — graph CSR, all-pairs distance matrix, minimal next-hop
// index, spectra — into one relocatable, fingerprinted binary file:
//
//     [Header 64B] [EntryDesc x entry_count] [8-byte-aligned blobs ...]
//
// All blob positions are absolute file offsets, so the file maps at any
// address (relocatable).  The FNV-1a fingerprint covers every byte after
// the header; open() re-hashes and rejects corruption, and a format
// version bump rejects stale files instead of misreading them.  Byte
// order and struct layout are native: a snapshot is a warm-restart /
// multi-process vehicle on one machine (OSRM's shared-memory store is
// the blueprint), not an interchange format.
//
// Snapshot::load_into installs each entry as pre-materialized Artifacts
// whose component deleters hold the Snapshot shared_ptr, so the mapping
// lives exactly as long as the last view over it.

#include <cstdint>
#include <memory>
#include <string>

#include "engine/artifact_cache.hpp"

namespace sfly::service {

/// Snapshot file format version; bumped on any layout change.
/// v2: per-entry artifact flags + hierarchical cell-index blobs, so
/// 50k+-router topologies snapshot their CellIndex instead of the
/// impractical O(V^2) tables.
/// v3: the next-hop blob is the slot-mask array (n*n*nh_words u64) in
/// place of the CSR offsets/verts/slots triple.
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// 64-bit FNV-1a over `n` bytes (the snapshot fingerprint hash).
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t n);

/// Serialize every topology in `cache` to `path` (written to a temp file
/// and renamed, so readers never see a torn snapshot).  Forces graph,
/// spectra, and the scale-appropriate routing artifact per entry (the
/// one Artifacts::cell_index picks): exact tables + next-hop index for
/// small topologies, the hierarchical cell index for large ones.  Throws
/// std::runtime_error on I/O failure or an unserializable entry (e.g. a
/// topology name too long for the fixed-width descriptor).
void write_snapshot(const std::string& path, engine::ArtifactCache& cache);

/// A validated, read-only mmap of a snapshot file.
class Snapshot {
 public:
  /// Map and validate `path`: magic, format version, size bounds,
  /// fingerprint, per-entry offset bounds, and the contents lookups index
  /// by (graph offsets monotone and ending at the adjacency count,
  /// adjacency ids below n, next-hop mask bits below degree(u), row
  /// (u, u) empty, every other row non-empty, and every hop one step
  /// closer by the entry's distances).  Throws std::runtime_error with a
  /// reason on any mismatch (version skew names both versions).
  [[nodiscard]] static std::shared_ptr<Snapshot> open(const std::string& path);

  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] std::size_t size_bytes() const { return size_; }

  /// True when `p` points into the mapped region — lets tests assert that
  /// loaded artifacts really are zero-copy views over the file.
  [[nodiscard]] bool contains(const void* p) const {
    const char* c = static_cast<const char*>(p);
    return c >= base_ && c < base_ + size_;
  }

  /// Install every entry into `cache` as pre-materialized Artifacts.
  /// Every component shared_ptr keeps `self` alive via its deleter, so
  /// dropping the cache (or the Snapshot handle) never dangles a view.
  static void load_into(const std::shared_ptr<Snapshot>& self,
                        engine::ArtifactCache& cache);

 private:
  Snapshot() = default;

  const char* base_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint32_t entry_count_ = 0;
};

}  // namespace sfly::service
