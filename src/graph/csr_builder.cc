#include "graph/csr_builder.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "la/backend.h"
#include "la/csr_matrix.h"

namespace ppfr::graph {
namespace {
// Ceiling on directed adjacency entries (2 per undirected edge): the int64
// row_ptr can address more, but anything past this is a generator bug (at 4
// bytes per entry it is already a quarter-terabyte buffer), so fail loudly
// before reserve() turns it into an opaque bad_alloc or a wrapped size.
constexpr int64_t kMaxAdjEntries = int64_t{1} << 36;
// Adjacency entries per row-sort chunk: below two chunks' worth the rows are
// sorted on the calling thread.
constexpr int64_t kRowSortGrain = int64_t{1} << 14;

// Edges per batch in the two passes. A locked increment cannot overlap its
// cache miss with the work around it, so each pass collects a batch of a
// part's edges and prefetches their rows before it increments any of them.
constexpr int kEdgeBatch = 64;

struct EdgeBatch {
  int64_t u[kEdgeBatch] = {};
  int64_t v[kEdgeBatch] = {};
  int size = 0;
};

// Relaxed atomic post-increment: the passes' only shared writes.
int64_t FetchIncrement(int64_t& value) {
  return std::atomic_ref<int64_t>(value).fetch_add(1, std::memory_order_relaxed);
}

// Runs every part once, parts in parallel on the active backend's threads,
// and hands each part's edges to flush(batch) in batches of up to
// kEdgeBatch, after checking the endpoints against [0, num_nodes) and
// dropping self-loops. Returns each part's directed entry count (two per
// edge). With `limit`, a part that emits more entries than limit[p] aborts
// before its surplus reaches `flush`.
template <typename Flush>
std::vector<int64_t> ForEachEdgeBatch(int64_t num_nodes, int num_parts,
                                      const EdgeStreamPart& part,
                                      const std::vector<int64_t>* limit, const Flush& flush) {
  std::vector<int64_t> entries(static_cast<size_t>(num_parts), 0);
  la::ActiveBackend().Apply(num_parts, 1, [&](int64_t p0, int64_t p1) {
    EdgeBatch batch;
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t cap = limit != nullptr ? (*limit)[static_cast<size_t>(p)]
                                           : std::numeric_limits<int64_t>::max();
      int64_t emitted = 0;
      part(static_cast<int>(p), [&](int64_t u, int64_t v) {
        PPFR_CHECK_GE(u, 0);
        PPFR_CHECK_LT(u, num_nodes);
        PPFR_CHECK_GE(v, 0);
        PPFR_CHECK_LT(v, num_nodes);
        if (u == v) return;
        PPFR_CHECK_LT(emitted, cap) << "edge stream is not replayable: part " << p
                                    << " emitted more edges on replay than on the count pass";
        emitted += 2;
        batch.u[batch.size] = u;
        batch.v[batch.size] = v;
        if (++batch.size == kEdgeBatch) {
          flush(batch);
          batch.size = 0;
        }
      });
      flush(batch);
      batch.size = 0;
      entries[static_cast<size_t>(p)] = emitted;
    }
  });
  return entries;
}
}  // namespace

std::span<const int> CsrAdjacency::Neighbors(int64_t v) const {
  PPFR_CHECK_GE(v, 0);
  PPFR_CHECK_LT(v, num_nodes_);
  return {adj_.data() + row_ptr_[v], adj_.data() + row_ptr_[v + 1]};
}

int CsrAdjacency::Degree(int64_t v) const {
  PPFR_CHECK_GE(v, 0);
  PPFR_CHECK_LT(v, num_nodes_);
  return static_cast<int>(row_ptr_[v + 1] - row_ptr_[v]);
}

int CsrAdjacency::MaxDegree() const {
  int max_deg = 0;
  for (int64_t v = 0; v < num_nodes_; ++v) {
    max_deg = std::max(max_deg, static_cast<int>(row_ptr_[v + 1] - row_ptr_[v]));
  }
  return max_deg;
}

double CsrAdjacency::AverageDegree() const {
  if (num_nodes_ == 0) return 0.0;
  return static_cast<double>(adj_.size()) / static_cast<double>(num_nodes_);
}

Graph CsrAdjacency::ToGraph() const {
  return Graph(static_cast<int>(num_nodes_), row_ptr_, adj_);
}

CsrAdjacency CsrAdjacency::FromGraph(const Graph& g) {
  return BuildCsrFromEdgeStream(g.num_nodes(), 1, [&g](int, const EdgeEmit& emit) {
    for (const Edge& e : g.Edges()) emit(e.u, e.v);
  });
}

CsrAdjacency BuildCsrFromEdgeStream(int64_t num_nodes, int num_parts,
                                    const EdgeStreamPart& part) {
  PPFR_CHECK_GE(num_nodes, 0);
  PPFR_CHECK_LE(num_nodes, kMaxCsrNodes)
      << "node count overflows the int32 CSR column indices "
      << "(kMaxCsrNodes = " << kMaxCsrNodes << ")";
  PPFR_CHECK_GE(num_parts, 0);
  const la::Backend& backend = la::ActiveBackend();

  CsrAdjacency out;
  out.num_nodes_ = num_nodes;
  out.row_ptr_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  int64_t* const row_ptr = out.row_ptr_.data();

  // Pass 1: degree counts into row_ptr[v + 1].
  const std::vector<int64_t> counted =
      ForEachEdgeBatch(num_nodes, num_parts, part, nullptr, [&](const EdgeBatch& batch) {
        for (int i = 0; i < batch.size; ++i) {
          __builtin_prefetch(&row_ptr[batch.u[i] + 1], 1);
          __builtin_prefetch(&row_ptr[batch.v[i] + 1], 1);
        }
        for (int i = 0; i < batch.size; ++i) {
          FetchIncrement(row_ptr[batch.u[i] + 1]);
          FetchIncrement(row_ptr[batch.v[i] + 1]);
        }
      });
  int64_t total_entries = 0;
  for (const int64_t entries : counted) total_entries += entries;
  PPFR_CHECK_LE(total_entries, kMaxAdjEntries)
      << "edge stream too large for the adjacency buffer";

  for (int64_t v = 0; v < num_nodes; ++v) row_ptr[v + 1] += row_ptr[v];
  out.adj_.resize(static_cast<size_t>(total_entries));
  int* const adj = out.adj_.data();

  // Pass 2: each endpoint takes the next slot of its row's cursor. No row
  // may take more slots than pass 1 counted for it, and no part may emit
  // more edges than it counted, so a replay that differs aborts before it
  // writes outside its row.
  std::vector<int64_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  int64_t* const next = cursor.data();
  const auto check_slot = [row_ptr](int64_t row, int64_t slot) {
    PPFR_CHECK_LT(slot, row_ptr[row + 1])
        << "edge stream is not replayable: row " << row
        << " received more entries on replay than on the count pass";
  };
  const std::vector<int64_t> placed =
      ForEachEdgeBatch(num_nodes, num_parts, part, &counted, [&](const EdgeBatch& batch) {
        int64_t slot_u[kEdgeBatch] = {};
        int64_t slot_v[kEdgeBatch] = {};
        for (int i = 0; i < batch.size; ++i) {
          __builtin_prefetch(&next[batch.u[i]], 1);
          __builtin_prefetch(&next[batch.v[i]], 1);
        }
        for (int i = 0; i < batch.size; ++i) {
          slot_u[i] = FetchIncrement(next[batch.u[i]]);
          slot_v[i] = FetchIncrement(next[batch.v[i]]);
        }
        for (int i = 0; i < batch.size; ++i) {
          check_slot(batch.u[i], slot_u[i]);
          check_slot(batch.v[i], slot_v[i]);
          __builtin_prefetch(&adj[slot_u[i]], 1);
          __builtin_prefetch(&adj[slot_v[i]], 1);
        }
        for (int i = 0; i < batch.size; ++i) {
          adj[slot_u[i]] = static_cast<int>(batch.v[i]);
          adj[slot_v[i]] = static_cast<int>(batch.u[i]);
        }
      });
  for (int p = 0; p < num_parts; ++p) {
    PPFR_CHECK_EQ(placed[static_cast<size_t>(p)], counted[static_cast<size_t>(p)])
        << "edge stream is not replayable: part " << p
        << " emitted a different edge count on replay";
  }

  // Sort and deduplicate every row, rows in parallel over chunks of about
  // kRowSortGrain entries (a hub row stays in one chunk). Each chunk packs
  // its kept runs to the front of its own span, which no other chunk
  // touches; the kept count of row v goes to next[v], which pass 2 no longer
  // needs, and row_ptr is only read.
  const int64_t num_chunks = std::max<int64_t>(
      1, std::min<int64_t>(num_nodes, total_entries / kRowSortGrain));
  const std::vector<int64_t> bounds =
      la::NnzBalancedRowBounds(out.row_ptr_, num_nodes, num_chunks);
  std::vector<int64_t> chunk_kept(static_cast<size_t>(num_chunks), 0);
  backend.Apply(num_chunks, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      int* const chunk_begin = adj + row_ptr[bounds[static_cast<size_t>(c)]];
      int* write = chunk_begin;
      for (int64_t v = bounds[static_cast<size_t>(c)]; v < bounds[static_cast<size_t>(c) + 1];
           ++v) {
        int* const begin = adj + row_ptr[v];
        int* const end = adj + row_ptr[v + 1];
        std::sort(begin, end);
        next[v] = std::unique(begin, end) - begin;
        if (write != begin) std::copy(begin, begin + next[v], write);
        write += next[v];
      }
      chunk_kept[static_cast<size_t>(c)] = write - chunk_begin;
    }
  });

  // Close the gaps between the chunks in order (each only moves left), then
  // rebuild row_ptr over the kept counts.
  int64_t write = 0;
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t source = row_ptr[bounds[static_cast<size_t>(c)]];
    const int64_t kept = chunk_kept[static_cast<size_t>(c)];
    if (write != source) std::memmove(adj + write, adj + source, sizeof(int) * kept);
    write += kept;
  }
  for (int64_t v = 0; v < num_nodes; ++v) row_ptr[v + 1] = row_ptr[v] + next[v];
  cursor = {};
  out.adj_.resize(static_cast<size_t>(write));
  out.adj_.shrink_to_fit();
  out.RegisterArenaBytes();
  return out;
}

}  // namespace ppfr::graph
