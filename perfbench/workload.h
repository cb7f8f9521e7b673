// Workload definitions and seeded input generation: the corpus, the
// query pool with its popularity skew, the write stream, and the
// in-process reference evaluation every wire reply is checked against.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/store_view.h"
#include "xquery/engine.h"

namespace perfbench {

/// One workload's shape. Every count is fixed here, never derived from
/// the host, so two hosts run the same work.
struct WorkloadSpec {
  const char* name;
  double scale;           // XMark scale of each generated document
  uint32_t docs;          // StandOff documents in the corpus
  uint32_t shards;        // snapshot shards
  double read_rate;       // open-loop reads per second
  double write_rate;      // open-loop writes per second; 0 = none
  uint32_t open_conns;    // read connections in the open-loop phase
  uint32_t closed_conns;  // connections in the closed-loop phase
  size_t pool_size;       // distinct query texts
  double zipf_s;          // popularity skew over the pool (0 = uniform)
  bool wal;               // WAL on, sync policy always
  uint64_t compact_threshold;  // auto-compaction trigger (live rows)
  uint32_t wal_preload_ops;    // acknowledged writes replayed at start
  double open_share;      // share of --seconds spent in the open loop
};

/// Null for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Generated XML: one StandOff transform (flat XML + base text) per
/// document, from XMark output at the generator's fixed default seed.
/// The corpus is the workload's dataset and is the same for every
/// benchmark seed; the seed draws the queries, their order and the
/// writes, so run-to-run spread measures the system, not the data.
struct Corpus {
  std::vector<std::string> names;
  std::vector<std::string> xml;
  std::vector<std::string> blobs;
  uint64_t bytes = 0;  // xml + blob bytes
};
standoff::StatusOr<Corpus> GenerateCorpus(const WorkloadSpec& spec);

/// Distinct query texts in popularity order (index 0 most popular).
/// Lookup/churn: narrow 1-2 step select chains drawn from doc x context
/// x step-name x axis, plus the four XMark StandOff FLWORs; scan: a
/// small set of any-context and three-layer chains with large results.
std::vector<std::string> BuildQueryPool(const WorkloadSpec& spec,
                                        const standoff::storage::StoreView& store,
                                        uint64_t seed);

/// `n` pool indices drawn with Zipf(s) popularity (s = 0: uniform).
std::vector<uint32_t> DrawQueryStream(size_t pool_size, double s, size_t n,
                                      uint64_t seed);

struct WriteOp {
  bool insert = true;
  uint32_t doc = 0;
  uint32_t id = 0;  // an element node of `doc`
  int64_t start = 0;
  int64_t end = 0;
};
/// `n` region inserts (70%) and deletes (30%) on elements of the
/// corpus' documents, regions inside each document's base text.
std::vector<WriteOp> DrawWrites(const standoff::storage::StoreView& store,
                                size_t n, uint64_t seed);

/// What a correct reply carries: its row count and the hash of its
/// payload bytes.
struct Expected {
  uint64_t rows = 0;
  uint64_t hash = 0;
};

/// 64-bit hash of a payload, eight bytes per step (large scan replies
/// must not cost the client more than the server spent producing them).
uint64_t PayloadHash(std::string_view payload);

/// Evaluates `text` on `engine` over `store` exactly as the server's
/// query path does (same dialect parse, same shard engine) and encodes
/// the result in the server's result-frame payload layout.
standoff::StatusOr<Expected> EvaluateLocally(
    standoff::xquery::BatchEngine* engine,
    const standoff::storage::StoreView& store, const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
