#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <utility>

#include "common/rng.h"
#include "server/query_text.h"
#include "server/wire.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xmark/standoff_transform.h"

namespace perfbench {

namespace sx = standoff::xquery;
namespace st = standoff::storage;
using standoff::Rng;
using standoff::Status;
using standoff::StatusOr;

namespace {

// Open-loop rates sit well below each workload's closed-loop capacity
// on a 4-CPU host (lookup about 7%, scan about 30%, churn about 20%),
// so the open loop measures latency rather than a growing backlog even
// when a shared host takes half the CPU away for minutes at a time.
// Three read connections, plus churn's writer, stay within nproc = 4.
// lookup: short selective queries (at most kMaxLookupRows rows) over a
// small corpus; per-query fixed costs dominate.
// scan: a larger corpus and eight chains returning 10^4-10^5 rows each;
// merge passes, serialization and socket writes dominate.
// churn: lookup's reads plus a steady write stream, WAL synced on every
// write. The compaction threshold is low enough that a run holds many
// compactions, so the reads reflect a typical compaction stall rather
// than whether one happened to land in the run.
const WorkloadSpec kWorkloads[] = {
    {"lookup", 0.02, 2, 2, 1000.0, 0.0, 3, 3, 1024, 1.0, false, 0, 0, 0.6},
    {"scan", 0.03, 2, 2, 70.0, 0.0, 3, 2, 0, 0.0, false, 0, 0, 0.7},
    {"churn", 0.02, 2, 2, 250.0, 35.0, 3, 3, 1024, 1.0, true, 60, 100,
     0.6},
};

constexpr size_t kMaxLookupRows = 1000;

struct NameCount {
  size_t count = 0;
  std::string name;
};

/// Element names of `doc` with their element counts, most frequent
/// first (ties by name, so the order is deterministic).
std::vector<NameCount> ElementNames(const st::StoreView& store,
                                    st::DocId doc) {
  std::vector<NameCount> out;
  const st::NameTable& names = store.names();
  const st::ElementIndex& index = store.document(doc).element_index;
  for (size_t id = 0; id < names.size(); ++id) {
    const size_t count = index.Lookup(static_cast<st::NameId>(id)).size();
    if (count > 0) {
      out.push_back({count, std::string(names.name(static_cast<st::NameId>(id)))});
    }
  }
  std::sort(out.begin(), out.end(), [](const NameCount& a, const NameCount& b) {
    return a.count != b.count ? a.count > b.count : a.name < b.name;
  });
  return out;
}

template <typename T>
const T& Pick(Rng* rng, const std::vector<T>& from) {
  return from[static_cast<size_t>(
      rng->UniformRange(0, static_cast<int64_t>(from.size()) - 1))];
}

std::vector<std::string> LookupPool(const WorkloadSpec& spec,
                                    const st::StoreView& store,
                                    uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  struct DocNames {
    std::vector<std::string> contexts;  // 5 <= count <= 5% of elements
    std::vector<std::string> steps;     // every element name
  };
  std::vector<DocNames> docs(store.document_count());
  for (st::DocId d = 0; d < store.document_count(); ++d) {
    const std::vector<NameCount> names = ElementNames(store, d);
    size_t total = 0;
    for (const NameCount& n : names) total += n.count;
    for (const NameCount& n : names) {
      if (n.count >= 5 && n.count * 20 <= total) {
        docs[d].contexts.push_back(n.name);
      }
      docs[d].steps.push_back(n.name);
    }
  }
  // Selective means a bounded answer: a drawn chain whose result
  // exceeds kMaxLookupRows rows belongs to scan, not here.
  sx::Engine engine(&store);
  std::vector<std::string> pool;
  std::set<std::string> seen;
  const size_t chains =
      spec.pool_size - standoff::xmark::BenchmarkQueries().size();
  for (size_t attempt = 0; pool.size() < chains && attempt < 100 * chains;
       ++attempt) {
    const st::DocId doc = static_cast<st::DocId>(
        rng.UniformRange(0, static_cast<int64_t>(docs.size()) - 1));
    if (docs[doc].contexts.empty()) continue;
    std::string text = "chain doc=" + std::to_string(doc) +
                       " ctx=" + Pick(&rng, docs[doc].contexts) + " steps=";
    const int steps = rng.NextDouble() < 0.4 ? 2 : 1;
    for (int s = 0; s < steps; ++s) {
      if (s > 0) text += ',';
      text += rng.NextDouble() < 0.7 ? "sn:" : "sw:";
      text += Pick(&rng, docs[doc].steps);
    }
    if (!seen.insert(text).second) continue;
    auto parsed = standoff::server::ParseQueryText(text);
    if (!parsed.ok()) continue;
    auto result = engine.EvaluateChain(parsed->chain);
    if (result.ok() && result->matches.size() <= kMaxLookupRows) {
      pool.push_back(std::move(text));
    }
  }
  // The XMark StandOff FLWORs (Figure 6) at seeded popularity ranks
  // among the 64 most popular texts.
  for (const auto& query : standoff::xmark::BenchmarkQueries()) {
    const size_t rank = static_cast<size_t>(rng.UniformRange(0, 63));
    pool.insert(pool.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(rank, pool.size())),
                std::string("flwor ") + query.standoff);
  }
  return pool;
}

std::vector<std::string> ScanPool(const st::StoreView& store) {
  std::vector<std::string> pool;
  for (st::DocId d = 0; d < store.document_count(); ++d) {
    const std::vector<NameCount> names = ElementNames(store, d);
    const std::string doc = "chain doc=" + std::to_string(d);
    pool.push_back(doc + " ctx=* steps=sn:*");
    pool.push_back(doc + " ctx=* steps=sw:" + names[0].name);
    pool.push_back(doc + " ctx=* steps=sn:" + names[1].name);
    pool.push_back(doc + " ctx=open_auction steps=sn:bidder,sn:*");
  }
  return pool;
}

void AppendChain(const sx::ChainResult& result, std::string* payload) {
  using standoff::server::AppendU32;
  payload->reserve(8 + 4 * result.context_ids.size() +
                   8 * result.matches.size());
  AppendU32(payload, static_cast<uint32_t>(result.context_ids.size()));
  for (st::Pre id : result.context_ids) AppendU32(payload, id);
  AppendU32(payload, static_cast<uint32_t>(result.matches.size()));
  for (const auto& match : result.matches) {
    AppendU32(payload, match.iter);
    AppendU32(payload, match.pre);
  }
}

void AppendFlwor(const standoff::algebra::QueryResult& result,
                 std::string* payload) {
  using Kind = standoff::algebra::Item::Kind;
  using standoff::server::AppendU32;
  using standoff::server::AppendU64;
  AppendU32(payload, static_cast<uint32_t>(result.items.size()));
  for (const auto& item : result.items) {
    payload->push_back(static_cast<char>(item.kind()));
    switch (item.kind()) {
      case Kind::kNode:
        AppendU32(payload, item.stored_node().doc);
        AppendU32(payload, item.stored_node().pre);
        break;
      case Kind::kInt:
        AppendU64(payload, static_cast<uint64_t>(item.int_value()));
        break;
      case Kind::kDouble: {
        uint64_t bits = 0;
        const double value = item.double_value();
        std::memcpy(&bits, &value, sizeof bits);
        AppendU64(payload, bits);
        break;
      }
      case Kind::kString:
        AppendU32(payload, static_cast<uint32_t>(item.string_value().size()));
        payload->append(item.string_value());
        break;
    }
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

StatusOr<Corpus> GenerateCorpus(const WorkloadSpec& spec) {
  Corpus corpus;
  for (uint32_t d = 0; d < spec.docs; ++d) {
    standoff::xmark::XmarkOptions options;
    options.scale = spec.scale;
    options.seed += d;
    auto doc = standoff::xmark::ToStandoff(standoff::xmark::GenerateXmark(options));
    if (!doc.ok()) return doc.status();
    corpus.names.push_back("so_" + std::to_string(d));
    corpus.bytes += doc->xml.size() + doc->blob.size();
    corpus.xml.push_back(std::move(doc->xml));
    corpus.blobs.push_back(std::move(doc->blob));
  }
  return corpus;
}

std::vector<std::string> BuildQueryPool(const WorkloadSpec& spec,
                                        const st::StoreView& store,
                                        uint64_t seed) {
  return spec.pool_size == 0 ? ScanPool(store)
                             : LookupPool(spec, store, seed);
}

std::vector<uint32_t> DrawQueryStream(size_t pool_size, double s, size_t n,
                                      uint64_t seed) {
  std::vector<double> cdf(pool_size);
  double total = 0;
  for (size_t k = 0; k < pool_size; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  std::vector<uint32_t> stream(n);
  for (uint32_t& index : stream) {
    const double u = rng.NextDouble() * total;
    index = static_cast<uint32_t>(
        std::min<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin(),
                         pool_size - 1));
  }
  return stream;
}

std::vector<WriteOp> DrawWrites(const st::StoreView& store, size_t n,
                                uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 4);
  std::vector<std::vector<uint32_t>> elements(store.document_count());
  for (st::DocId d = 0; d < store.document_count(); ++d) {
    const st::NodeTable& table = store.table(d);
    // Pre 1 is the root element; its region spans the whole text.
    for (st::Pre pre = 2; pre < table.size(); ++pre) {
      if (table.IsElement(pre)) elements[d].push_back(pre);
    }
  }
  std::vector<WriteOp> writes(n);
  for (WriteOp& w : writes) {
    w.doc = static_cast<uint32_t>(
        rng.UniformRange(0, static_cast<int64_t>(elements.size()) - 1));
    w.id = Pick(&rng, elements[w.doc]);
    w.insert = rng.NextDouble() < 0.7;
    if (w.insert) {
      const int64_t text = static_cast<int64_t>(store.document(w.doc).blob.size());
      w.start = rng.UniformRange(0, std::max<int64_t>(0, text - 1));
      w.end = w.start + rng.UniformRange(0, 256);
    }
  }
  return writes;
}

uint64_t PayloadHash(std::string_view payload) {
  uint64_t h = 0x243F6A8885A308D3ULL ^ payload.size();
  size_t i = 0;
  for (; i + 8 <= payload.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, payload.data() + i, 8);
    h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
  for (; i < payload.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(payload[i])) * 0x100000001B3ULL;
  }
  return h ^ (h >> 32);
}

StatusOr<Expected> EvaluateLocally(sx::BatchEngine* engine,
                                   const st::StoreView& store,
                                   const std::string& text) {
  auto parsed = standoff::server::ParseQueryText(text);
  if (!parsed.ok()) return parsed.status();
  Expected expected;
  std::string payload;
  if (parsed->kind == standoff::server::ParsedQuery::Kind::kChain) {
    if (parsed->chain.doc >= store.document_count()) {
      return Status::Invalid("doc out of range");
    }
    auto result = engine->shard_engine(store.shard_of(parsed->chain.doc))
                      ->EvaluateChain(parsed->chain);
    if (!result.ok()) return result.status();
    AppendChain(*result, &payload);
    expected.rows = result->matches.size();
  } else {
    auto result = engine->shard_engine(0)->Evaluate(parsed->flwor);
    if (!result.ok()) return result.status();
    AppendFlwor(*result, &payload);
    expected.rows = result->items.size();
  }
  expected.hash = PayloadHash(payload);
  return expected;
}

}  // namespace perfbench
