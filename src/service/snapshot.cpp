#include "service/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace sfly::service {

namespace {

constexpr char kMagic[8] = {'S', 'F', 'L', 'Y', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kNameBytes = 40;

// On-disk layout structs.  Native byte order and alignment-free field
// packing (every field naturally aligned, sizes asserted) — see the
// header comment for the same-machine contract.
struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t entry_count;
  std::uint64_t file_bytes;    // total size, for truncation detection
  std::uint64_t fingerprint;   // FNV-1a over bytes [kHeaderBytes, file_bytes)
  std::uint8_t reserved[32];
};
static_assert(sizeof(Header) == kHeaderBytes);

struct EntryDesc {
  char name[kNameBytes];       // NUL-terminated topology name
  std::uint32_t concentration;
  std::uint32_t n;             // vertices
  std::uint64_t graph_offsets_off;  // n+1 u32
  std::uint64_t graph_adj_off;      // graph_adj_count u32
  std::uint64_t graph_adj_count;
  std::uint64_t spectra_off;        // one SpectraBlob
};
static_assert(sizeof(EntryDesc) == 80);

// Spectra is an in-memory struct with padding; the blob spells the fields
// out so the file carries no indeterminate bytes.
struct SpectraBlob {
  std::uint32_t radix;
  std::uint32_t flags;  // bit 0 bipartite, bit 1 ramanujan
  double lambda2;
  double lambda_min;
  double lambda;
  double mu1;
};
static_assert(sizeof(SpectraBlob) == 40);

void append_bytes(std::string& buf, const void* data, std::size_t n) {
  buf.append(static_cast<const char*>(data), n);
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("snapshot: " + what);
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void write_snapshot(const std::string& path, engine::ArtifactCache& cache) {
  const std::vector<std::string> names = cache.names();

  // Body = entry table + blobs, built in memory (paper-scale artifact
  // sets are tens of MB), then fingerprinted and written atomically.
  std::vector<EntryDesc> descs(names.size());
  std::string blobs;  // grows after the entry table; offsets are absolute
  const std::size_t table_bytes = names.size() * sizeof(EntryDesc);

  for (std::size_t e = 0; e < names.size(); ++e) {
    const std::string& name = names[e];
    if (name.size() + 1 > kNameBytes)
      fail("topology name too long for snapshot descriptor: " + name);
    auto art = cache.get(name);
    const auto graph = art->graph();
    const auto spectra = art->spectra();

    EntryDesc& d = descs[e];
    std::memset(&d, 0, sizeof(d));
    std::memcpy(d.name, name.c_str(), name.size() + 1);
    d.concentration = art->concentration();
    d.n = graph->num_vertices();

    auto blob_off = [&](const void* data, std::size_t bytes) {
      while ((kHeaderBytes + table_bytes + blobs.size()) % 8 != 0)
        blobs.push_back('\0');
      const std::uint64_t off = kHeaderBytes + table_bytes + blobs.size();
      append_bytes(blobs, data, bytes);
      return off;
    };

    const auto go = graph->raw_offsets();
    const auto ga = graph->raw_adjacency();
    d.graph_offsets_off = blob_off(go.data(), go.size_bytes());
    d.graph_adj_off = blob_off(ga.data(), ga.size_bytes());
    d.graph_adj_count = ga.size();

    SpectraBlob sb{};
    sb.radix = spectra->radix;
    sb.flags = (spectra->bipartite ? 1u : 0u) | (spectra->ramanujan ? 2u : 0u);
    sb.lambda2 = spectra->lambda2;
    sb.lambda_min = spectra->lambda_min;
    sb.lambda = spectra->lambda;
    sb.mu1 = spectra->mu1;
    d.spectra_off = blob_off(&sb, sizeof(sb));
  }

  std::string body;
  body.reserve(table_bytes + blobs.size());
  append_bytes(body, descs.data(), table_bytes);
  body += blobs;

  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kSnapshotVersion;
  h.entry_count = static_cast<std::uint32_t>(names.size());
  h.file_bytes = kHeaderBytes + body.size();
  h.fingerprint = fnv1a64(body.data(), body.size());

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) fail("cannot open for writing: " + tmp);
  const bool ok = std::fwrite(&h, 1, sizeof(h), f) == sizeof(h) &&
                  (body.empty() ||
                   std::fwrite(body.data(), 1, body.size(), f) == body.size()) &&
                  std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    fail("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("rename failed: " + path);
  }
}

std::shared_ptr<Snapshot> Snapshot::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open: " + path);
  struct stat st{};
  if (fstat(fd, &st) != 0 || st.st_size < static_cast<off_t>(kHeaderBytes)) {
    ::close(fd);
    fail("missing or truncated header: " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* map = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (map == MAP_FAILED) fail("mmap failed: " + path);

  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->base_ = static_cast<const char*>(map);
  snap->size_ = size;

  Header h{};
  std::memcpy(&h, snap->base_, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0)
    fail("bad magic (not a snapshot): " + path);
  if (h.version != kSnapshotVersion)
    fail("format version skew: file v" + std::to_string(h.version) +
         ", reader v" + std::to_string(kSnapshotVersion) + ": " + path);
  if (h.file_bytes != size)
    fail("size mismatch (truncated or grown): " + path);
  const std::uint64_t fp = fnv1a64(snap->base_ + kHeaderBytes, size - kHeaderBytes);
  if (fp != h.fingerprint) fail("fingerprint mismatch (corrupt): " + path);
  if (kHeaderBytes + h.entry_count * sizeof(EntryDesc) > size)
    fail("entry table exceeds file: " + path);
  snap->fingerprint_ = h.fingerprint;
  snap->entry_count_ = h.entry_count;

  // Per-entry bounds checks up front, so load_into never reads past the
  // mapping no matter what the descriptors claim.
  const auto* descs =
      reinterpret_cast<const EntryDesc*>(snap->base_ + kHeaderBytes);
  for (std::uint32_t e = 0; e < h.entry_count; ++e) {
    const EntryDesc& d = descs[e];
    if (d.name[kNameBytes - 1] != '\0' || d.name[0] == '\0')
      fail("bad entry name: " + path);
    const std::size_t n = d.n;
    // `count` elements of `elem` bytes at `off`; divides rather than
    // multiplies, so a crafted count cannot wrap the size.
    auto check = [&](std::uint64_t off, std::uint64_t count, std::size_t elem,
                     const char* what) {
      if (off % 8 != 0 || off < kHeaderBytes || off > size ||
          count > (size - off) / elem)
        fail(std::string("entry blob out of bounds: ") + what + ": " + path);
    };
    auto bad = [&](const std::string& what) {
      fail(std::string("bad entry ") + d.name + ": " + what + ": " + path);
    };
    check(d.graph_offsets_off, n + 1, sizeof(std::uint32_t), "graph offsets");
    check(d.graph_adj_off, d.graph_adj_count, sizeof(std::uint32_t), "graph adj");

    // The fingerprint only proves the file is the one written; a crafted
    // file carries a matching one.  So check every value a lookup indexes
    // by before any view is handed out, and that the graph is what Graph
    // promises (simple and undirected), so the routing tables built from
    // it later hold true hop distances.
    const auto* go =
        reinterpret_cast<const std::uint32_t*>(snap->base_ + d.graph_offsets_off);
    const auto* adj =
        reinterpret_cast<const Vertex*>(snap->base_ + d.graph_adj_off);
    if (go[0] != 0) bad("graph offsets do not start at 0");
    for (std::size_t u = 0; u < n; ++u)
      if (go[u + 1] < go[u]) bad("graph offsets not monotone");
    if (go[n] != d.graph_adj_count) bad("graph offsets do not end at graph_adj_count");
    for (std::size_t u = 0; u < n; ++u) {
      if (go[u + 1] - go[u] > 65536) bad("radix exceeds uint16 slots");
      for (std::uint32_t i = go[u]; i < go[u + 1]; ++i) {
        if (adj[i] >= n) bad("graph adjacency id out of range");
        if (adj[i] == u) bad("graph self-loop");
        if (i > go[u] && adj[i - 1] >= adj[i])
          bad("graph adjacency not strictly increasing");
      }
    }
    // Every list is sorted now, so each edge finds its reverse by search.
    for (std::size_t u = 0; u < n; ++u)
      for (std::uint32_t i = go[u]; i < go[u + 1]; ++i)
        if (!std::binary_search(adj + go[adj[i]], adj + go[adj[i] + 1], u))
          bad("graph edge has no reverse");
    check(d.spectra_off, 1, sizeof(SpectraBlob), "spectra");
  }
  return snap;
}

Snapshot::~Snapshot() {
  if (base_) munmap(const_cast<char*>(base_), size_);
}

void Snapshot::load_into(const std::shared_ptr<Snapshot>& self,
                         engine::ArtifactCache& cache) {
  const auto* descs =
      reinterpret_cast<const EntryDesc*>(self->base_ + kHeaderBytes);
  for (std::uint32_t e = 0; e < self->entry_count_; ++e) {
    const EntryDesc& d = descs[e];
    const std::size_t n = d.n;
    auto at = [&](std::uint64_t off) { return self->base_ + off; };

    // Each component is heap-allocated view machinery over the mapping;
    // the deleter's captured `self` pins the mapping until the last
    // component (and every copy handed out by Artifacts) is gone.
    auto keep = [self](auto* p) { delete p; };

    std::shared_ptr<const Graph> graph(
        new Graph(Graph::from_csr_view(
            d.n,
            {reinterpret_cast<const std::uint32_t*>(at(d.graph_offsets_off)),
             n + 1},
            {reinterpret_cast<const Vertex*>(at(d.graph_adj_off)),
             d.graph_adj_count})),
        keep);
    SpectraBlob sb{};
    std::memcpy(&sb, at(d.spectra_off), sizeof(sb));
    auto* sp = new Spectra();
    sp->radix = sb.radix;
    sp->bipartite = (sb.flags & 1u) != 0;
    sp->ramanujan = (sb.flags & 2u) != 0;
    sp->lambda2 = sb.lambda2;
    sp->lambda_min = sb.lambda_min;
    sp->lambda = sb.lambda;
    sp->mu1 = sb.mu1;
    std::shared_ptr<const Spectra> spectra(sp, keep);

    cache.adopt(d.name, std::move(graph), std::move(spectra), d.concentration);
  }
}

}  // namespace sfly::service
