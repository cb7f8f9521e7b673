// The repository benchmark: drives an in-process standoff server over
// its wire protocol (server::Client) and reports what a client and an
// operator see, or, with --trace 1, replays the same seeded operations
// one at a time with a span around every public call into each layer.
//
//   perfbench --workload lookup|scan|churn --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (end-to-end with --trace 0, per-layer with --trace 1) and an
// info block with sample counts, sizes and the metrics that do not
// apply to the workload. Exits 1 on any wrong reply, any failed
// operation, or an invalid run (a generator that fell behind, or a
// churn run with fewer than three auto-compactions).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "server/client.h"
#include "server/query_text.h"
#include "server/server.h"
#include "standoff/merge_join.h"
#include "standoff/plan.h"
#include "standoff/region_index.h"
#include "stats.h"
#include "storage/column_stats.h"
#include "storage/delta.h"
#include "storage/ingest.h"
#include "storage/sharded_store.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "trace.h"
#include "workload.h"
#include "xquery/engine.h"
#include "xquery/parser.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace so = standoff::so;
namespace ss = standoff::server;
namespace st = standoff::storage;
namespace sx = standoff::xquery;
using standoff::Status;
using standoff::StatusOr;
using Clock = std::chrono::steady_clock;

/// An open-loop generator whose p99 lateness exceeds this measured
/// itself, not the server; the run is reported invalid.
constexpr double kLateBoundMs = 250.0;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 15;
/// Busy-retry budget per read (the client's capped backoff).
constexpr int kRetryAttempts = 4;
/// Untimed warm-up after set-up, before the measured phases.
constexpr double kWarmSeconds = 1.0;
/// Completed auto-compactions a churn run must see to be valid.
constexpr uint64_t kMinCompactions = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point At(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

// ---------------------------------------------------------------------------
// Output: metrics and info as JSON members.

struct Report {
  std::vector<std::string> metrics;  // "name": {"value": v, "unit": u}
  std::vector<std::string> info;     // "name": value
  void Metric(const std::string& name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  name.c_str(), value, unit);
    metrics.push_back(buf);
  }
  void Info(const std::string& name, double value) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"%s\": %.17g", name.c_str(), value);
    info.push_back(buf);
  }
  void InfoText(const std::string& name, const std::string& value) {
    info.push_back("\"" + name + "\": \"" + value + "\"");
  }
};

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ", ";
    out += parts[i];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Resident memory of this process (the one hosting the server), sampled
// while the measured phases run.

class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return static_cast<double>(peak_pages_) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      Sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Sample();
  }
  void Sample() {
    std::ifstream statm("/proc/self/statm");
    uint64_t size = 0, resident = 0;
    if (statm >> size >> resident) peak_pages_ = std::max(peak_pages_, resident);
  }
  std::atomic<bool> stop_{false};
  uint64_t peak_pages_ = 0;
  std::thread thread_;  // last: starts after the fields it uses
};

/// Host-wide CPU time in clock ticks, from the first line of /proc/stat.
/// `steal` is time the hypervisor ran something else while this
/// machine's CPUs wanted to run: it explains a slow run on a shared
/// host, and is reported with every run.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 10; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    if (field < 8) times.total += value;  // guest time is inside user
    if (field == 7) times.steal = value;
  }
  return times;
}

// ---------------------------------------------------------------------------
// Set-up: generated XML -> ingest + index build + snapshot save ->
// Server::Start (WAL replay on churn) -> every connection answered once.

struct Inputs {
  std::vector<std::string> pool;
  std::vector<uint32_t> stream;  // pool indices, in arrival order
  std::vector<WriteOp> writes;   // preload ops first, then live ones
  bool drawn = false;
};

struct Served {
  std::string snapshot;
  std::string wal_dir;
  std::unique_ptr<ss::Server> server;
  std::vector<std::unique_ptr<ss::Client>> clients;
  double setup_s = 0;
  double ingest_s = 0;
  double start_s = 0;
};

std::string Fingerprint() { return so::ConfigFingerprint(so::StandoffConfig{}); }

Status PreloadWal(const std::string& dir, const std::vector<WriteOp>& writes,
                  uint32_t count) {
  st::WalOptions options;
  options.dir = dir;
  options.sync = st::WalSyncPolicy::kAlways;
  auto wal = st::Wal::Open(options, st::WalRecoveryResult());
  if (!wal.ok()) return wal.status();
  for (uint32_t i = 0; i < count && i < writes.size(); ++i) {
    st::WalRecord record;
    record.op = writes[i].insert ? st::WalRecord::Op::kInsert
                                 : st::WalRecord::Op::kDelete;
    record.seq = i + 1;
    record.doc = writes[i].doc;
    record.id = writes[i].id;
    record.start = writes[i].start;
    record.end = writes[i].end;
    record.fingerprint = Fingerprint();
    STANDOFF_RETURN_IF_ERROR((*wal)->Append(record));
  }
  return Status::OK();
}

StatusOr<Served> SetUp(const WorkloadSpec& spec, const Corpus& corpus,
                       const std::string& dir, uint64_t seed,
                       uint32_t connections, Inputs* inputs) {
  fs::create_directories(dir);
  Served served;
  served.snapshot = dir + "/base.sosnap";
  const auto t0 = Clock::now();
  {
    standoff::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
    st::ShardedStore store(spec.shards);
    std::vector<st::IngestInput> texts;
    for (size_t d = 0; d < corpus.xml.size(); ++d) {
      texts.push_back({corpus.names[d], corpus.xml[d]});
    }
    auto ids = st::AddDocumentsParallel(&store, texts, &pool);
    if (!ids.ok()) return ids.status();
    for (size_t d = 0; d < ids->size(); ++d) {
      STANDOFF_RETURN_IF_ERROR(store.SetBlob((*ids)[d], corpus.blobs[d]));
    }
    STANDOFF_RETURN_IF_ERROR(st::SaveSnapshot(store, served.snapshot));
    served.ingest_s = Since(t0);
    if (!inputs->drawn) {  // untimed: the benchmark's own input drawing
      inputs->pool = BuildQueryPool(spec, store, seed);
      inputs->stream =
          DrawQueryStream(inputs->pool.size(), spec.zipf_s, 1 << 20, seed);
      if (spec.write_rate > 0) {
        inputs->writes = DrawWrites(store, 1 << 16, seed);
      }
      inputs->drawn = true;
    }
  }
  ss::ServerConfig config;
  if (spec.wal) {
    served.wal_dir = dir + "/wal";
    // Untimed: the acknowledged history a restarted server must replay.
    STANDOFF_RETURN_IF_ERROR(
        PreloadWal(served.wal_dir, inputs->writes, spec.wal_preload_ops));
    config.wal_dir = served.wal_dir;
    config.wal_sync = st::WalSyncPolicy::kAlways;
    config.compact_live_rows_threshold = spec.compact_threshold;
  }
  const auto t1 = Clock::now();
  auto server = ss::Server::Start(served.snapshot, config);
  if (!server.ok()) return server.status();
  served.server = server.MoveValueUnsafe();
  served.start_s = Since(t1);
  const auto t2 = Clock::now();
  for (uint32_t c = 0; c < connections; ++c) {
    auto client = ss::Client::Connect(served.server->port());
    if (!client.ok()) return client.status();
    auto reply = (*client)->Query(inputs->pool[inputs->stream[c]]);
    if (!reply.ok()) return reply.status();
    if (reply->busy) return Status::Internal("warm-up query refused");
    served.clients.push_back(client.MoveValueUnsafe());
  }
  served.setup_s = served.ingest_s + served.start_s + Since(t2);
  return served;
}

// ---------------------------------------------------------------------------
// Reply checking against the in-process reference.

struct Totals {
  std::vector<double> latency_us;  // failures as kFailedLatency
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors + still-busy + wrong replies
  uint64_t wrong = 0;
  uint64_t busy_attempts = 0;
  uint64_t attempts = 0;
  uint64_t completed = 0;
  void Merge(const Totals& o) {
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    busy_attempts += o.busy_attempts;
    attempts += o.attempts;
    completed += o.completed;
  }
};

/// Null `expected` (churn reads) checks status only: concurrent writes
/// change the answers, and the end-of-run check covers their content.
bool ReplyCorrect(const StatusOr<ss::QueryReply>& reply,
                  const Expected* expected) {
  if (!reply.ok() || reply->busy) return false;
  if (expected == nullptr) return true;
  return reply->rows == expected->rows &&
         PayloadHash(reply->payload) == expected->hash;
}

ss::QueryRetryOptions RetryOptions(uint64_t seed) {
  ss::QueryRetryOptions retry;
  retry.max_attempts = kRetryAttempts;
  retry.jitter_seed = seed;
  return retry;
}

/// One read: sends, times from `scheduled`, checks, accounts.
void Read(ss::Client* client, const Inputs& inputs,
          const std::vector<Expected>& expected, uint64_t index,
          Clock::time_point scheduled, uint64_t seed, Totals* totals) {
  const uint32_t q = inputs.stream[index % inputs.stream.size()];
  auto reply = client->QueryWithRetry(inputs.pool[q], RetryOptions(seed));
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - scheduled)
          .count();
  totals->attempted += 1;
  if (reply.ok()) {
    totals->attempts += static_cast<uint64_t>(reply->attempts);
    totals->busy_attempts += static_cast<uint64_t>(
        reply->attempts - (reply->busy ? 0 : 1));
  }
  const bool ok = ReplyCorrect(reply, expected.empty() ? nullptr : &expected[q]);
  if (!ok) {
    totals->failed += 1;
    if (reply.ok() && !reply->busy) totals->wrong += 1;
    if (totals->failed <= 3) {
      std::fprintf(stderr, "read failed: %s (%s)\n", inputs.pool[q].c_str(),
                   reply.ok() ? (reply->busy ? "busy" : "wrong reply")
                              : reply.status().ToString().c_str());
    }
  }
  totals->latency_us.push_back(ok ? us : kFailedLatency);
}

struct AckedWrite {
  size_t index;  // into Inputs::writes
  uint64_t seq;
};

StatusOr<uint64_t> SendWrite(ss::Client* client, const WriteOp& w) {
  return w.insert ? client->InsertRegion(w.doc, w.id, w.start, w.end)
                  : client->DeleteRegions(w.doc, w.id);
}

// ---------------------------------------------------------------------------
// The end-to-end run (tracing off).

struct Phases {
  Totals open_reads;
  Totals closed_reads;
  Totals writes;
  std::vector<AckedWrite> acked;
  double closed_seconds = 0;
  double peak_rss_mb = 0;
  double steal_frac = 0;  // host CPU time stolen from this VM meanwhile
};

/// Closed-loop reads on every connection for `seconds`, from a stream
/// offset the measured phases do not reach: fills the connections'
/// engine caches and memos before anything is timed. Counted like any
/// other read.
void WarmUp(const Inputs& inputs, const std::vector<Expected>& expected,
            Served* served, double seconds, uint64_t seed, Totals* totals) {
  const auto end = At(Clock::now(), seconds);
  std::atomic<uint64_t> cursor{inputs.stream.size() / 2};
  std::vector<Totals> per(served->clients.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < served->clients.size(); ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < end) {
        Read(served->clients[c].get(), inputs, expected, cursor.fetch_add(1),
             Clock::now(), seed + 200 + c, &per[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Totals& t : per) {
    totals->attempted += t.attempted;
    totals->failed += t.failed;
    totals->wrong += t.wrong;
  }
}

/// Open-loop reads for `open_s`, then a closed loop for `closed_s`;
/// the writer (if any) runs open-loop across both.
Phases Drive(const WorkloadSpec& spec, const Inputs& inputs,
             const std::vector<Expected>& expected, Served* served,
             double open_s, double closed_s, uint64_t seed) {
  Phases out;
  RssSampler rss;
  const CpuTimes cpu_before = ReadCpuTimes();
  const auto t0 = Clock::now();
  const auto open_end = At(t0, open_s);
  const auto closed_end = At(t0, open_s + closed_s);

  std::unique_ptr<ss::Client> writer_client;
  std::thread writer;
  if (spec.write_rate > 0) {
    auto client = ss::Client::Connect(served->server->port());
    if (client.ok()) writer_client = client.MoveValueUnsafe();
    writer = std::thread([&] {
      if (writer_client == nullptr) {
        out.writes.attempted += 1;
        out.writes.failed += 1;
        return;
      }
      for (size_t k = 0;; ++k) {
        const auto scheduled = At(t0, static_cast<double>(k) / spec.write_rate);
        if (scheduled >= closed_end) break;
        std::this_thread::sleep_until(scheduled);
        out.writes.late_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
                .count());
        const size_t index = spec.wal_preload_ops + k;
        auto seq = SendWrite(writer_client.get(), inputs.writes[index]);
        const double us = std::chrono::duration<double, std::micro>(
                              Clock::now() - scheduled)
                              .count();
        out.writes.attempted += 1;
        if (seq.ok()) {
          out.acked.push_back({index, *seq});
          out.writes.latency_us.push_back(us);
        } else {
          out.writes.failed += 1;
          out.writes.latency_us.push_back(kFailedLatency);
          std::fprintf(stderr, "write failed: %s\n",
                       seq.status().ToString().c_str());
        }
      }
    });
  }

  // Open loop: arrival i is due at t0 + i/rate whoever sends it.
  std::atomic<uint64_t> next{0};
  std::vector<Totals> per(spec.open_conns);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < spec.open_conns; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const uint64_t i = next.fetch_add(1);
        const auto scheduled =
            At(t0, static_cast<double>(i) / spec.read_rate);
        if (scheduled >= open_end) break;
        std::this_thread::sleep_until(scheduled);
        per[c].late_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
                .count());
        Read(served->clients[c].get(), inputs, expected, i, scheduled,
             seed + c, &per[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
  threads.clear();
  for (const Totals& t : per) out.open_reads.Merge(t);

  // Closed loop: each connection sends its next read when the last
  // one completes. Reads completing after the phase do not count.
  std::vector<Totals> closed(spec.closed_conns);
  const auto closed_start = Clock::now();
  std::atomic<uint64_t> cursor{next.load()};
  for (uint32_t c = 0; c < spec.closed_conns; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < closed_end) {
        const auto sent = Clock::now();
        Read(served->clients[c].get(), inputs, expected, cursor.fetch_add(1),
             sent, seed + 100 + c, &closed[c]);
        if (Clock::now() <= closed_end) closed[c].completed += 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  out.closed_seconds =
      std::chrono::duration<double>(closed_end - closed_start).count();
  for (const Totals& t : closed) out.closed_reads.Merge(t);
  if (writer.joinable()) writer.join();
  out.peak_rss_mb = rss.Stop();
  const CpuTimes cpu_after = ReadCpuTimes();
  out.steal_frac = Ratio(static_cast<double>(cpu_after.steal - cpu_before.steal),
                         static_cast<double>(cpu_after.total - cpu_before.total));
  return out;
}

/// Waits until every triggered auto-compaction has completed.
bool Quiesce(ss::Server* server) {
  const auto deadline = At(Clock::now(), 60.0);
  while (Clock::now() < deadline) {
    if (server->stats().auto_compactions >=
        server->mutable_store()->stats().auto_compact_triggers) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// The churn end check: a fixed query set over the wire against an
/// in-process engine over a store rebuilt from the boot snapshot plus
/// the acknowledged write log. Returns the number of mismatches.
StatusOr<uint64_t> CheckChurnEnd(const WorkloadSpec& spec,
                                 const Inputs& inputs, Served* served,
                                 const std::vector<AckedWrite>& acked,
                                 uint64_t* checked) {
  auto snapshot = st::Snapshot::Open(served->snapshot);
  if (!snapshot.ok()) return snapshot.status();
  st::MutableStore rebuilt((*snapshot)->shared_store());
  uint64_t mismatches = 0;
  auto apply = [&](const WriteOp& w) {
    return w.insert ? rebuilt.InsertRegion(w.doc, Fingerprint(), w.start,
                                           w.end, w.id)
                    : rebuilt.DeleteRegions(w.doc, Fingerprint(), w.id);
  };
  for (uint32_t i = 0; i < spec.wal_preload_ops; ++i) {
    auto seq = apply(inputs.writes[i]);
    if (!seq.ok()) return seq.status();
  }
  for (const AckedWrite& a : acked) {
    auto seq = apply(inputs.writes[a.index]);
    if (!seq.ok()) return seq.status();
    if (*seq != a.seq) ++mismatches;  // the server applied another order
  }
  std::vector<std::string> queries(
      inputs.pool.begin(),
      inputs.pool.begin() + std::min<size_t>(32, inputs.pool.size()));
  for (size_t d = 0; d < spec.docs; ++d) {
    queries.push_back("chain doc=" + std::to_string(d) + " ctx=* steps=sn:*");
  }
  auto view = rebuilt.View();
  sx::BatchEngine engine(view.get(), sx::EngineOptions());
  for (const std::string& text : queries) {
    auto want = EvaluateLocally(&engine, *view, text);
    if (!want.ok()) return want.status();
    auto got = served->clients[0]->Query(text);
    *checked += 1;
    if (!ReplyCorrect(got, &*want)) {
      ++mismatches;
      std::fprintf(stderr, "churn end check mismatch: %s\n", text.c_str());
    }
  }
  return mismatches;
}

/// The reference answers of every pool text, evaluated in process over
/// the same snapshot file the server opened.
StatusOr<std::vector<Expected>> Reference(const Inputs& inputs,
                                          const std::string& snapshot_path,
                                          uint64_t* min_rows,
                                          uint64_t* max_rows) {
  auto snapshot = st::Snapshot::Open(snapshot_path);
  if (!snapshot.ok()) return snapshot.status();
  const st::ShardedStore& store = *(*snapshot)->shared_store();
  sx::BatchEngine engine(&store, sx::EngineOptions());
  std::vector<Expected> expected;
  for (const std::string& text : inputs.pool) {
    auto e = EvaluateLocally(&engine, store, text);
    if (!e.ok()) return e.status();
    *min_rows = std::min(*min_rows, e->rows);
    *max_rows = std::max(*max_rows, e->rows);
    expected.push_back(*e);
  }
  return expected;
}

/// Region index footprint of the snapshot: rows and bytes of the
/// columns the merge kernels stream plus the id-order arrays.
void IndexSize(const std::string& snapshot_path, Report* report) {
  auto snapshot = st::Snapshot::Open(snapshot_path);
  if (!snapshot.ok()) return;
  const st::ShardedStore& store = *(*snapshot)->shared_store();
  so::RegionIndexCache cache;
  double rows = 0, bytes = 0;
  for (st::DocId d = 0; d < store.document_count(); ++d) {
    auto index = cache.Get(store, d, so::StandoffConfig{});
    if (!index.ok()) continue;
    rows += static_cast<double>((*index)->size());
    bytes += static_cast<double>((*index)->size()) * (8 + 8 + 4 + 4) +
             static_cast<double>((*index)->annotated_ids().size()) * (4 + 8 + 8);
  }
  report->Info("corpus.index_rows", rows);
  report->Info("corpus.index_mib", bytes / (1024.0 * 1024.0));
}

/// Sets up `reps` times, recording each set-up time, and keeps the last
/// server running for the measured phases.
StatusOr<Served> SetUpReps(const WorkloadSpec& spec, const Corpus& corpus,
                           const Args& args, int reps, Inputs* inputs,
                           std::vector<double>* setup_s) {
  for (int r = 0;; ++r) {
    const std::string dir = args.work_dir + "/setup" + std::to_string(r);
    auto served = SetUp(spec, corpus, dir, args.seed,
                        std::max(spec.open_conns, spec.closed_conns), inputs);
    if (!served.ok()) return served.status();
    setup_s->push_back(served->setup_s);
    if (r + 1 == reps) return served;
    served->clients.clear();
    served->server->Stop();
    served->server.reset();
    fs::remove_all(dir);
  }
}

/// A whole-phase nearest-rank latency percentile, with its sample
/// count and the samples beyond it. Gated percentiles become metrics,
/// the others info; an unreportable one is recorded as such and makes
/// the run invalid.
bool LatencyMetric(Report* report, const std::string& name,
                   std::vector<double> samples, double q, bool gated) {
  const Percentile p = NearestRank(&samples, q);
  report->Info(name + ".samples", static_cast<double>(p.samples));
  report->Info(name + ".beyond", static_cast<double>(p.beyond));
  if (!p.reportable) {
    report->InfoText(name, "unreportable");
    return false;
  }
  if (gated) {
    report->Metric(name, p.value, "us");
  } else {
    report->Info(name, p.value);
  }
  return true;
}

int RunEndToEnd(const WorkloadSpec& spec, const Corpus& corpus,
                const Args& args, Report* report, uint64_t* attempted,
                uint64_t* failed) {
  Inputs inputs;
  std::vector<double> setups;
  auto reps = SetUpReps(spec, corpus, args, kSetupReps, &inputs, &setups);
  if (!reps.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", reps.status().ToString().c_str());
    return 1;
  }
  Served& served = *reps;
  uint64_t min_rows = UINT64_MAX, max_rows = 0;
  std::vector<Expected> expected;
  if (spec.write_rate == 0) {
    auto ref = Reference(inputs, served.snapshot, &min_rows, &max_rows);
    if (!ref.ok()) {
      std::fprintf(stderr, "reference failed: %s\n",
                   ref.status().ToString().c_str());
      return 1;
    }
    expected = std::move(*ref);
  }
  IndexSize(served.snapshot, report);
  report->Info("pool.size", static_cast<double>(inputs.pool.size()));

  Totals warm;
  WarmUp(inputs, expected, &served, kWarmSeconds, args.seed, &warm);
  const double open_s = args.seconds * spec.open_share;
  Phases phases = Drive(spec, inputs, expected, &served, open_s,
                        args.seconds - open_s, args.seed);

  uint64_t end_checked = 0, end_mismatches = 0;
  bool valid = true;
  if (spec.write_rate > 0) {
    if (!Quiesce(served.server.get())) {
      std::fprintf(stderr, "auto-compaction did not quiesce\n");
      valid = false;
    }
    auto end = CheckChurnEnd(spec, inputs, &served, phases.acked, &end_checked);
    if (!end.ok()) {
      std::fprintf(stderr, "end check failed: %s\n",
                   end.status().ToString().c_str());
      return 1;
    }
    end_mismatches = *end;
  }
  const ss::ServerStats stats = served.server->stats();
  served.clients.clear();
  served.server->Stop();

  Totals reads = phases.open_reads;
  reads.Merge(phases.closed_reads);
  reads.Merge(warm);
  *attempted = reads.attempted + phases.writes.attempted + end_checked;
  *failed = reads.failed + phases.writes.failed + end_mismatches;

  report->Metric("setup_s", Median(setups), "s");
  // Latency from each open-loop arrival's scheduled send time. The p99
  // is reported but not gated: on a shared host it follows hypervisor
  // steal (see WORKLOADS.md), so no bound could resolve it.
  const bool p50 = LatencyMetric(report, "query_p50_us",
                                 phases.open_reads.latency_us, 0.50, true);
  const bool p99 = LatencyMetric(report, "query_p99_us",
                                 phases.open_reads.latency_us, 0.99, false);
  // Capacity: completed reads per second over the closed loop. Reported
  // but not gated: on a shared host it follows hypervisor steal, like
  // the p99 (see WORKLOADS.md).
  report->Info("peak_qps", static_cast<double>(phases.closed_reads.completed) /
                               phases.closed_seconds);
  report->Metric("peak_rss_mb", phases.peak_rss_mb, "MiB");
  report->Info("host.steal_frac", phases.steal_frac);
  // Reported in info rather than as gated metrics: they are zero (or
  // absent) on workloads without writes or without failures.
  report->Info("failed_frac", Ratio(static_cast<double>(*failed),
                                    static_cast<double>(*attempted)));
  if (spec.write_rate > 0) {
    std::vector<double> w = phases.writes.latency_us;
    const Percentile w50 = NearestRank(&w, 0.50);
    const Percentile w99 = NearestRank(&w, 0.99);
    for (const auto& [name, p] : {std::make_pair("write_p50_us", w50),
                                  std::make_pair("write_p99_us", w99)}) {
      if (p.reportable) {
        report->Info(name, p.value);
      } else {
        report->InfoText(name, "unreportable");
      }
    }
    report->Info("write_p99_us.samples", static_cast<double>(w99.samples));
    report->Info("write_p99_us.beyond", static_cast<double>(w99.beyond));
    report->Info("auto_compactions", static_cast<double>(stats.auto_compactions));
    report->Info("end_check.queries", static_cast<double>(end_checked));
    if (stats.auto_compactions < kMinCompactions) {
      std::fprintf(stderr, "only %llu auto-compactions (need %llu)\n",
                   static_cast<unsigned long long>(stats.auto_compactions),
                   static_cast<unsigned long long>(kMinCompactions));
      valid = false;
    }
  } else {
    report->InfoText("write_p50_us", "n/a");
    report->InfoText("write_p99_us", "n/a");
    report->Info("reference.min_rows", static_cast<double>(min_rows));
    report->Info("reference.max_rows", static_cast<double>(max_rows));
  }
  std::vector<double> late = phases.open_reads.late_ms;
  late.insert(late.end(), phases.writes.late_ms.begin(),
              phases.writes.late_ms.end());
  std::vector<double> late_copy = late;
  const Percentile late99 = NearestRank(&late_copy, 0.99);
  report->Info("loadgen.late_ms.p99", late99.value);
  if (!GeneratorKeptUp(late, kLateBoundMs)) {
    std::fprintf(stderr, "open-loop generator fell behind: p99 late %.3f ms\n",
                 late99.value);
    valid = false;
  }
  report->Info("open.reads", static_cast<double>(phases.open_reads.attempted));
  report->Info("closed.reads", static_cast<double>(phases.closed_reads.attempted));
  report->Info("writes", static_cast<double>(phases.writes.attempted));
  report->Info("wrong_replies", static_cast<double>(reads.wrong + end_mismatches));
  report->Info("setup.ingest_s", served.ingest_s);
  report->Info("setup.start_s", served.start_s);
  report->Info("server.subplan_hits", static_cast<double>(stats.subplan_hits));
  report->Info("server.subplan_misses", static_cast<double>(stats.subplan_misses));
  fs::remove_all(args.work_dir);
  return (p50 && p99 && valid) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The traced replay (--trace 1): the same seeded operations, one at a
// time, with spans around the calls into each layer.

/// A chain's layers built only from public RegionIndex /
/// IntersectColumns calls, so PlanChain / ExecuteChain can be timed
/// apart from the engine.
struct OwnedChain {
  so::ChainSpec spec;
  std::vector<so::RegionColumnsData> owned;  // candidate columns
  std::vector<std::vector<st::Pre>> ids;     // candidate universes
};

bool BuildChain(const st::StoreView& store, const so::RegionIndex& index,
                const sx::ChainQuery& query, OwnedChain* out) {
  auto ids_of = [&](bool any, const std::string& name) {
    std::vector<st::Pre> ids;
    const st::Span<st::Pre> annotated = index.annotated_ids();
    if (any) return std::vector<st::Pre>(annotated.begin(), annotated.end());
    const st::NameId id = store.names().Lookup(name);
    if (id == st::kInvalidName) return ids;
    const st::Span<st::Pre> pres =
        store.document(query.doc).element_index.Lookup(id);
    std::set_intersection(annotated.begin(), annotated.end(), pres.begin(),
                          pres.end(), std::back_inserter(ids));
    return ids;
  };
  const std::vector<st::Pre> context = ids_of(query.context_any, query.context_name);
  out->spec.iter_count = static_cast<uint32_t>(context.size());
  for (uint32_t i = 0; i < context.size(); ++i) {
    index.ForEachRegionOf(context[i], [&](int64_t s, int64_t e) {
      const uint32_t ann = static_cast<uint32_t>(out->spec.ann_iters.size());
      out->spec.ann_iters.push_back(i);
      out->spec.context.push_back(so::IterRegion{i, s, e, ann});
    });
  }
  std::vector<int64_t> starts, ends;
  for (const so::IterRegion& r : out->spec.context) {
    starts.push_back(r.start);
    ends.push_back(r.end);
  }
  out->spec.context_stats =
      st::RegionStats::Compute(starts.data(), ends.data(), starts.size());
  out->owned.reserve(query.steps.size());
  out->ids.reserve(query.steps.size());
  for (const sx::ChainStep& step : query.steps) {
    out->ids.push_back(ids_of(step.any_name, step.name));
    out->owned.push_back(index.IntersectColumns(st::Span<st::Pre>(
        out->ids.back().data(), out->ids.back().size())));
    so::ChainEdge edge;
    switch (step.axis) {
      case sx::Axis::kSelectWide: edge.op = so::StandoffOp::kSelectWide; break;
      case sx::Axis::kRejectNarrow: edge.op = so::StandoffOp::kRejectNarrow; break;
      case sx::Axis::kRejectWide: edge.op = so::StandoffOp::kRejectWide; break;
      default: edge.op = so::StandoffOp::kSelectNarrow; break;
    }
    edge.layer.columns = out->owned.back().View();
    edge.layer.ids = st::Span<st::Pre>(out->ids.back().data(), out->ids.back().size());
    edge.layer.ids_set = true;
    edge.layer.index = &index;
    const so::RegionColumns c = edge.layer.columns;
    edge.layer.stats = st::RegionStats::Compute(c.start, c.end, c.size);
    out->spec.edges.push_back(std::move(edge));
  }
  return !out->spec.edges.empty();
}

/// Counters the replay collects where the work happens.
struct LayerCounts {
  uint64_t reads = 0, writes = 0, rebuilds = 0;
  uint64_t busy_attempts = 0, attempts = 0;
  uint64_t payload_bytes = 0, rows = 0;
  uint64_t memo_hits = 0, memo_misses = 0;
  uint64_t scanned = 0, emitted = 0;
  uint64_t chain_rows = 0, chain_results = 0;
  uint64_t index_gets = 0, delta_rows = 0, compactions = 0;
  uint64_t user_bytes = 0, stored_bytes = 0;
  uint64_t wrong = 0, failed = 0, acked_writes = 0;
  std::vector<double> serialize_us;  // exec - eval, same text
};

/// The replay's mirror of the server: the same base, the same writes
/// (WAL attached, synced always), compacted at the same threshold.
struct Mirror {
  std::string dir;
  std::shared_ptr<const st::ShardedStore> boot;
  std::unique_ptr<st::Wal> wal;
  std::unique_ptr<st::MutableStore> store;
  uint64_t generation = 1;
  std::shared_ptr<const st::DeltaStoreView> pinned;
  std::unique_ptr<sx::BatchEngine> engine;
  uint64_t engine_generation = 0, engine_seq = 0;
  std::map<std::string, uint64_t> file_sizes;  // for bytes written
};

uint64_t DirGrowth(const std::string& dir, std::map<std::string, uint64_t>* seen) {
  uint64_t grown = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const uint64_t size = entry.file_size();
    uint64_t& before = (*seen)[entry.path().string()];
    if (size > before) grown += size - before;
    before = size;
  }
  return grown;
}

struct Replay {
  const WorkloadSpec* spec;
  const Inputs* inputs;
  const std::vector<Expected>* expected;
  ss::Client* client;
  Mirror* mirror;
  Tracer* tracer;
  LayerCounts counts;
  uint64_t op = 0;

  void ReadOp(uint32_t q) {
    StatusOr<ss::QueryReply> reply = Status::Internal("not sent");
    LayerCalls(q, &reply);
    // Lookup/scan replies must equal the setup-time reference; churn
    // replies must equal the mirror, which has seen the same writes.
    // Checked after the in-process calls so the check's own evaluation
    // does not warm the memo they measure.
    const Expected* want = expected->empty() ? nullptr : &(*expected)[q];
    Expected mirrored;
    if (want == nullptr && reply.ok() && !reply->busy) {
      auto m = EvaluateLocally(MirrorEngine(), *mirror->pinned,
                               inputs->pool[q]);
      if (m.ok()) mirrored = *m;
      want = &mirrored;
    }
    if (!ReplyCorrect(reply, want)) {
      counts.failed += 1;
      if (reply.ok() && !reply->busy) counts.wrong += 1;
    }
  }

  /// The wire round trip, then the same text through each layer's
  /// public calls in process.
  void LayerCalls(uint32_t q, StatusOr<ss::QueryReply>* out) {
    const std::string& text = inputs->pool[q];
    StatusOr<ss::QueryReply>& reply = *out;
    ScopedSpan root(tracer, "op.read", op);
    counts.reads += 1;
    double exec_us = 0;
    {
      ScopedSpan wire(tracer, "wire", op);
      reply = client->QueryWithRetry(text, RetryOptions(op));
      if (reply.ok()) {
        const double end_us = tracer->NowUs();
        exec_us = static_cast<double>(reply->server_micros);
        tracer->AddChild(wire.index(), "server.exec", end_us - exec_us, end_us);
      }
    }
    if (reply.ok()) {
      counts.attempts += static_cast<uint64_t>(reply->attempts);
      counts.busy_attempts +=
          static_cast<uint64_t>(reply->attempts - (reply->busy ? 0 : 1));
      counts.payload_bytes += reply->payload.size();
      counts.rows += reply->rows;
    }
    auto parsed = [&] {
      ScopedSpan s(tracer, "server.parse", op);
      return ss::ParseQueryText(text);
    }();
    if (!parsed.ok()) return;
    sx::BatchEngine* engine = MirrorEngine();
    const st::StoreView& view = *mirror->pinned;
    if (parsed->kind == ss::ParsedQuery::Kind::kFlwor) {
      {
        ScopedSpan s(tracer, "xquery.flwor_parse", op);
        auto ast = sx::ParseQuery(parsed->flwor);
        (void)ast;
      }
      const double t0 = tracer->NowUs();
      {
        ScopedSpan s(tracer, "xquery.eval.flwor", op);
        auto r = engine->shard_engine(0)->Evaluate(parsed->flwor);
        (void)r;
      }
      counts.serialize_us.push_back(exec_us - (tracer->NowUs() - t0));
      ColdEval(text);
      return;
    }
    const sx::ChainQuery& chain = parsed->chain;
    const double t0 = tracer->NowUs();
    {
      ScopedSpan s(tracer, "xquery.eval.chain", op);
      auto r = engine->shard_engine(view.shard_of(chain.doc))->EvaluateChain(chain);
      if (r.ok()) {
        counts.memo_hits += r->stats.memo_hits;
        counts.memo_misses += r->stats.memo_misses;
      }
    }
    counts.serialize_us.push_back(exec_us - (tracer->NowUs() - t0));
    ColdEval(text);
    // Layer calls below the engine: a fresh index cache (merged when a
    // delta run exists), then plan / execute / the first edge's kernel.
    so::RegionIndexCache cache;
    const so::RegionIndex* index = nullptr;
    {
      ScopedSpan s(tracer, "standoff.index_get", op);
      auto got = cache.Get(view, chain.doc, so::StandoffConfig{});
      if (got.ok()) index = *got;
    }
    counts.index_gets += 1;
    if (index == nullptr) return;
    OwnedChain owned;
    if (!BuildChain(view, *index, chain, &owned)) return;
    so::ChainPlan plan;
    {
      ScopedSpan s(tracer, "standoff.plan", op);
      plan = so::PlanChain(owned.spec);
    }
    std::vector<so::IterMatch> matches;
    so::ChainStats stats;
    {
      ScopedSpan s(tracer, "standoff.execute", op);
      so::ChainExecOptions exec;
      auto status = so::ExecuteChain(owned.spec, plan, exec, &matches, &stats);
      (void)status;
    }
    counts.chain_rows += stats.context_rows_total + stats.composed_matches;
    counts.chain_results += matches.size();
    {
      const so::ChainEdge& edge = owned.spec.edges[0];
      so::JoinStats join;
      so::JoinOptions options;
      options.stats = &join;
      std::vector<so::IterMatch> first;
      ScopedSpan s(tracer, "standoff.join", op);
      auto status = so::LoopLiftedStandoffJoinColumns(
          edge.op, owned.spec.context, owned.spec.ann_iters,
          edge.layer.columns, edge.layer.ids, owned.spec.iter_count, &first,
          options);
      (void)status;
      counts.scanned += join.candidates_scanned;
      counts.emitted += join.matches_emitted;
    }
  }

  /// The first query on a fresh BatchEngine over the pinned view.
  void ColdEval(const std::string& text) {
    sx::BatchEngine fresh(mirror->pinned.get(), sx::EngineOptions());
    ScopedSpan s(tracer, "xquery.cold_eval", op);
    auto r = EvaluateLocally(&fresh, *mirror->pinned, text);
    (void)r;
  }

  /// The mirror's per-connection engine, rebuilt when the pinned
  /// (generation, delta seq) moved — as the server's connections do.
  sx::BatchEngine* MirrorEngine() {
    if (mirror->engine == nullptr ||
        mirror->engine_generation != mirror->generation ||
        mirror->engine_seq != mirror->pinned->delta_sequence()) {
      mirror->engine = std::make_unique<sx::BatchEngine>(mirror->pinned.get(),
                                                         sx::EngineOptions());
      mirror->engine_generation = mirror->generation;
      mirror->engine_seq = mirror->pinned->delta_sequence();
      counts.rebuilds += 1;
    }
    return mirror->engine.get();
  }

  void Pin() {
    ScopedSpan s(tracer, "storage.view", op);
    mirror->pinned = mirror->store->View();
  }

  void WriteOpAt(size_t index) {
    const WriteOp& w = inputs->writes[index];
    ScopedSpan root(tracer, "op.write", op);
    counts.writes += 1;
    counts.user_bytes += w.insert ? 24 : 8;  // the request's body bytes
    {
      ScopedSpan wire(tracer, "wire.write", op);
      auto seq = SendWrite(client, w);
      if (seq.ok()) {
        counts.acked_writes += 1;
      } else {
        counts.failed += 1;
      }
    }
    {
      ScopedSpan s(tracer, "storage.write", op);
      auto seq = w.insert ? mirror->store->InsertRegion(w.doc, Fingerprint(),
                                                        w.start, w.end, w.id)
                          : mirror->store->DeleteRegions(w.doc, Fingerprint(), w.id);
      if (!seq.ok()) counts.failed += 1;
    }
    counts.stored_bytes += DirGrowth(mirror->dir + "/wal", &mirror->file_sizes);
    Pin();
    auto run = mirror->pinned->delta_run(w.doc, Fingerprint());
    const auto& base_doc = mirror->pinned->base()->document(w.doc);
    if (run != nullptr && !base_doc.preloaded_indexes.empty()) {
      counts.delta_rows += run->inserts.size() + run->tombstones.size();
      ScopedSpan s(tracer, "standoff.merge_delta", op);
      so::RegionIndex merged =
          so::MergeBaseDelta(*base_doc.preloaded_indexes[0].second, *run);
      (void)merged;
    }
    const st::DeltaStats stats = mirror->store->stats();
    if (stats.live_insert_rows + stats.live_tombstones >=
        spec->compact_threshold) {
      Compact();
    }
  }

  void Compact() {
    const std::string path =
        mirror->dir + "/mirror.gen" + std::to_string(mirror->generation + 1);
    ScopedSpan s(tracer, "storage.compact", op);
    uint64_t frozen = 0;
    if (!mirror->store->CompactToSnapshot(path, nullptr, &frozen).ok()) {
      counts.failed += 1;
      return;
    }
    auto snapshot = st::Snapshot::Open(path);
    if (!snapshot.ok()) {
      counts.failed += 1;
      return;
    }
    counts.stored_bytes += static_cast<uint64_t>((*snapshot)->file_size());
    mirror->store->AdoptCompacted(frozen, (*snapshot)->shared_store(), path);
    mirror->generation += 1;
    counts.compactions += 1;
  }
};

/// The op sequence: reads in stream order, writes interleaved at the
/// workload's write/read rate ratio (their open-loop arrival order).
std::vector<std::pair<bool, size_t>> OpSequence(const WorkloadSpec& spec,
                                                const Inputs& inputs, size_t n) {
  std::vector<std::pair<bool, size_t>> ops;
  size_t r = 0, w = 0;
  while (ops.size() < n) {
    const double next_read = static_cast<double>(r) / spec.read_rate;
    const double next_write = spec.write_rate > 0
                                  ? static_cast<double>(w) / spec.write_rate
                                  : 1e300;
    if (next_write < next_read) {
      ops.push_back({true, spec.wal_preload_ops + w++});
    } else {
      ops.push_back({false, inputs.stream[r++ % inputs.stream.size()]});
    }
  }
  return ops;
}

StatusOr<std::unique_ptr<Mirror>> OpenMirror(const WorkloadSpec& spec,
                                             const Inputs& inputs,
                                             const Served& served,
                                             const std::string& dir) {
  auto mirror = std::make_unique<Mirror>();
  mirror->dir = dir;
  fs::create_directories(dir);
  auto snapshot = st::Snapshot::Open(served.snapshot);
  if (!snapshot.ok()) return snapshot.status();
  mirror->boot = (*snapshot)->shared_store();
  mirror->store = std::make_unique<st::MutableStore>(mirror->boot);
  for (uint32_t i = 0; i < spec.wal_preload_ops; ++i) {
    const WriteOp& w = inputs.writes[i];
    auto seq = w.insert ? mirror->store->InsertRegion(w.doc, Fingerprint(),
                                                      w.start, w.end, w.id)
                        : mirror->store->DeleteRegions(w.doc, Fingerprint(), w.id);
    if (!seq.ok()) return seq.status();
  }
  if (spec.wal) {
    st::WalOptions options;
    options.dir = dir + "/wal";
    options.sync = st::WalSyncPolicy::kAlways;
    auto wal = st::Wal::Open(options, st::WalRecoveryResult());
    if (!wal.ok()) return wal.status();
    mirror->wal = wal.MoveValueUnsafe();
    mirror->store->AttachWal(mirror->wal.get());
    DirGrowth(options.dir, &mirror->file_sizes);  // the header is not user data
  }
  mirror->pinned = mirror->store->View();
  return mirror;
}

/// One replay pass: `ops` from the start, one at a time, over a freshly
/// set-up server and mirror, until `max_ops` ran or `budget_s` passed.
struct Pass {
  size_t ops = 0;
  double seconds = 0;
  LayerCounts counts;
  ss::ServerStats stats;
  std::unique_ptr<Tracer> tracer;
};

StatusOr<Pass> ReplayPass(const WorkloadSpec& spec, const Corpus& corpus,
                          const Args& args, const std::string& name,
                          Inputs* inputs, const std::vector<Expected>* expected,
                          const std::vector<std::pair<bool, size_t>>& ops,
                          size_t max_ops, double budget_s, bool trace) {
  const std::string dir = args.work_dir + "/" + name;
  auto served = SetUp(spec, corpus, dir, args.seed, 1, inputs);
  if (!served.ok()) return served.status();
  auto mirror = OpenMirror(spec, *inputs, *served, dir + "/mirror");
  if (!mirror.ok()) return mirror.status();
  Pass pass;
  pass.tracer = std::make_unique<Tracer>(trace);
  Replay replay{&spec, inputs, expected, served->clients[0].get(),
                mirror->get(), pass.tracer.get(), {}, 0};
  const auto t0 = Clock::now();
  const auto end = At(t0, budget_s);
  for (; pass.ops < std::min(max_ops, ops.size()) && Clock::now() < end;
       ++pass.ops, ++replay.op) {
    const auto& [is_write, index] = ops[pass.ops];
    if (is_write) {
      replay.WriteOpAt(index);
    } else {
      replay.Pin();
      replay.ReadOp(static_cast<uint32_t>(index));
    }
  }
  pass.seconds = Since(t0);
  pass.counts = std::move(replay.counts);
  pass.stats = served->server->stats();
  served->clients.clear();
  served->server->Stop();
  mirror->reset();
  fs::remove_all(dir);
  return pass;
}

double P(std::vector<double> v, double q) {
  const Percentile p = NearestRank(&v, q);
  return p.samples == 0 ? 0 : p.value;
}

int RunTraced(const WorkloadSpec& spec, const Corpus& corpus, const Args& args,
              Report* report, uint64_t* attempted, uint64_t* failed) {
  Inputs inputs;
  std::vector<double> setups;
  auto reps = SetUpReps(spec, corpus, args, 1, &inputs, &setups);
  if (!reps.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", reps.status().ToString().c_str());
    return 1;
  }
  Served& served = *reps;
  uint64_t min_rows = UINT64_MAX, max_rows = 0;
  std::vector<Expected> expected;
  if (spec.write_rate == 0) {
    auto ref = Reference(inputs, served.snapshot, &min_rows, &max_rows);
    if (!ref.ok()) return 1;
    expected = std::move(*ref);
  }
  // storage.open_s: what Server::Start spends opening the base, plus
  // replaying the WAL on churn (a read-only scan here: nothing is torn).
  double open_s = 0;
  {
    const auto t0 = Clock::now();
    auto snapshot = st::Snapshot::Open(served.snapshot);
    if (spec.wal) {
      st::WalOptions options;
      options.dir = served.wal_dir;
      auto replayed = st::ReplayWal(options);
      (void)replayed;
    }
    open_s = Since(t0);
  }

  // Open/closed phases with spans off, for the generator's lateness and
  // admission behaviour at peak.
  const double load_s = args.seconds * 0.4;
  Phases phases = Drive(spec, inputs, expected, &served, load_s * spec.open_share,
                        load_s * (1 - spec.open_share), args.seed);
  if (spec.write_rate > 0) Quiesce(served.server.get());
  served.clients.clear();
  served.server->Stop();

  // The replay runs in five passes, each on a freshly set-up server and
  // mirror with the same operations. The first, untimed, warms the
  // process and sets the operation count by the time budget; the others
  // run as many with spans off / on / on / off. The ABBA order cancels
  // drift across the passes, so the ratio of traced to untraced time is
  // the tracing overhead over identical state. Spans and counts come
  // from the first traced pass.
  const auto ops = OpSequence(spec, inputs, 1 << 20);
  std::vector<Pass> passes;
  for (const bool trace : {false, false, true, true, false}) {
    auto pass = ReplayPass(spec, corpus, args,
                           "replay" + std::to_string(passes.size()), &inputs,
                           &expected, ops,
                           passes.empty() ? ops.size() : passes[0].ops,
                           passes.empty() ? args.seconds * 0.12 : 1e9, trace);
    if (!pass.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", pass.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "replay pass %zu (spans %s): %zu ops in %.3f s\n",
                 passes.size(), trace ? "on" : "off", pass->ops, pass->seconds);
    passes.push_back(std::move(*pass));
  }
  const Pass* on = &passes[2];
  const size_t n = on->ops;
  const Tracer& traced = *on->tracer;
  const ss::ServerStats& stats = on->stats;
  LayerCounts all;  // every pass's reads, writes and failures
  for (const Pass& p : passes) {
    all.reads += p.counts.reads;
    all.writes += p.counts.writes;
    all.failed += p.counts.failed;
  }

  const LayerCounts& c = on->counts;
  *attempted = phases.open_reads.attempted + phases.closed_reads.attempted +
               phases.writes.attempted + all.reads + all.writes;
  *failed = phases.open_reads.failed + phases.closed_reads.failed +
            phases.writes.failed + all.failed;

  auto by_name = traced.ByName(false);
  auto self = traced.ByName(true);
  auto dur = [&](const char* name, double q) { return P(by_name[name], q); };
  const bool writes = spec.write_rate > 0;
  const bool flwor = !by_name["xquery.eval.flwor"].empty();
  const bool chains = !by_name["xquery.eval.chain"].empty();
  std::vector<std::string> na, refused;
  auto metric = [&](const char* name, bool applies, double value,
                    const char* unit) {
    report->Metric(name, applies ? value : 0, unit);
    if (!applies) na.push_back(name);
  };
  // A p99 with fewer than kMinBeyond samples beyond it is refused:
  // printed as 0 and listed, never as a number that looks measured.
  auto tail = [&](const char* name, std::vector<double> samples) {
    const Percentile p = NearestRank(&samples, 0.99);
    if (!p.reportable && !samples.empty()) refused.push_back(name);
    return p.reportable ? p.value : 0;
  };
  // server
  metric("server.hop_us.p50", true, P(self["wire"], 0.5), "us");
  metric("server.hop_us.p99", true, tail("server.hop_us.p99", self["wire"]), "us");
  metric("server.exec_us.p50", true, dur("server.exec", 0.5), "us");
  metric("server.serialize_us.p50", true, P(c.serialize_us, 0.5), "us");
  metric("server.parse_us.p50", true, dur("server.parse", 0.5), "us");
  const Totals& peak = phases.closed_reads;
  metric("server.busy_frac", true,
         Ratio(static_cast<double>(peak.busy_attempts + c.busy_attempts),
               static_cast<double>(peak.attempts + c.attempts)),
         "ratio");
  metric("server.retries_per_query", true,
         Ratio(static_cast<double>(peak.busy_attempts + c.busy_attempts),
               static_cast<double>(peak.attempted + c.reads)),
         "ratio");
  metric("server.bytes_per_row", true,
         Ratio(static_cast<double>(c.payload_bytes), static_cast<double>(c.rows)),
         "B");
  // xquery
  metric("xquery.eval_us.chain.p50", chains, dur("xquery.eval.chain", 0.5), "us");
  metric("xquery.eval_us.chain.p99", chains,
         tail("xquery.eval_us.chain.p99", by_name["xquery.eval.chain"]), "us");
  metric("xquery.eval_us.flwor.p50", flwor, dur("xquery.eval.flwor", 0.5), "us");
  metric("xquery.eval_us.flwor.p99", flwor,
         tail("xquery.eval_us.flwor.p99", by_name["xquery.eval.flwor"]), "us");
  metric("xquery.cold_eval_us.p50", true, dur("xquery.cold_eval", 0.5), "us");
  metric("xquery.rebuild_frac", true,
         Ratio(static_cast<double>(c.rebuilds), static_cast<double>(c.reads)),
         "ratio");
  metric("xquery.memo_hit_ratio", chains,
         Ratio(static_cast<double>(c.memo_hits),
               static_cast<double>(c.memo_hits + c.memo_misses)),
         "ratio");
  metric("xquery.flwor_parse_us.p50", flwor, dur("xquery.flwor_parse", 0.5), "us");
  // standoff
  metric("standoff.index_get_us.p50", chains, dur("standoff.index_get", 0.5), "us");
  metric("standoff.index_gets", chains, static_cast<double>(c.index_gets), "count");
  metric("standoff.merge_delta_us.p50", writes, dur("standoff.merge_delta", 0.5), "us");
  metric("standoff.delta_rows", writes,
         Ratio(static_cast<double>(c.delta_rows),
               static_cast<double>(by_name["standoff.merge_delta"].size())),
         "rows");
  metric("standoff.plan_us.p50", chains, dur("standoff.plan", 0.5), "us");
  metric("standoff.execute_us.p50", chains, dur("standoff.execute", 0.5), "us");
  metric("standoff.scan_per_match", chains,
         Ratio(static_cast<double>(c.scanned), static_cast<double>(c.emitted)),
         "ratio");
  metric("standoff.rows_per_result", chains,
         Ratio(static_cast<double>(c.chain_rows),
               static_cast<double>(c.chain_results)),
         "ratio");
  // storage
  metric("storage.write_us.p50", writes, dur("storage.write", 0.5), "us");
  metric("storage.write_us.p99", writes,
         tail("storage.write_us.p99", by_name["storage.write"]), "us");
  metric("storage.fsyncs_per_write", writes,
         Ratio(static_cast<double>(stats.wal_fsyncs),
               static_cast<double>(c.acked_writes)),
         "ratio");
  metric("storage.write_amp", writes,
         Ratio(static_cast<double>(c.stored_bytes), static_cast<double>(c.user_bytes)),
         "ratio");
  metric("storage.compact_s", writes && c.compactions > 0,
         dur("storage.compact", 0.5) / 1e6, "s");
  metric("storage.compactions", writes, static_cast<double>(c.compactions), "count");
  metric("storage.view_us.p50", true, dur("storage.view", 0.5), "us");
  metric("storage.ingest_s", true, served.ingest_s, "s");
  metric("storage.open_s", true, open_s, "s");
  // loadgen and the tracer itself
  std::vector<double> late = phases.open_reads.late_ms;
  late.insert(late.end(), phases.writes.late_ms.begin(), phases.writes.late_ms.end());
  metric("loadgen.late_ms.p99", true, tail("loadgen.late_ms.p99", late), "ms");
  metric("trace.overhead_ratio", true,
         Ratio(passes[2].seconds + passes[3].seconds,
               passes[1].seconds + passes[4].seconds),
         "ratio");
  metric("trace.spans", true, static_cast<double>(traced.spans().size()), "count");
  report->InfoText("not_applicable", Join(na));
  report->InfoText("refused_p99", Join(refused));
  report->Info("replay.ops", static_cast<double>(n));
  // Two untraced passes of the same operations differ by this much:
  // the noise an overhead ratio within it cannot be told from.
  report->Info("trace.untraced_pass_ratio",
               Ratio(passes[4].seconds, passes[1].seconds));
  report->Info("server.auto_compactions", static_cast<double>(stats.auto_compactions));
  report->Info("wrong_replies", static_cast<double>(c.wrong));

  const std::string trace_path = args.work_dir + "/../trace-" + spec.name + "-" +
                                 std::to_string(args.seed) + ".jsonl";
  if (!traced.WriteJsonl(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  } else {
    report->InfoText("trace_file",
                     fs::relative(fs::weakly_canonical(trace_path)).string());
  }
  fs::remove_all(args.work_dir);
  return *failed == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args->workload = value;
    else if (key == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args->seconds = std::atof(value.c_str());
    else if (key == "--trace") args->trace = value == "1";
    else if (key == "--work-dir") args->work_dir = value;
    else return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::remove_all(args.work_dir);
  auto corpus = GenerateCorpus(*spec);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  Report report;
  report.InfoText("build_type", PERFBENCH_BUILD_TYPE);
  report.InfoText("simd", standoff::simd::LevelName(
                              standoff::simd::Resolve(standoff::simd::Level::kAuto)));
  report.Info("corpus.docs", spec->docs);
  report.Info("corpus.scale", spec->scale);
  report.Info("corpus.mib", static_cast<double>(corpus->bytes) / (1024.0 * 1024.0));
  uint64_t attempted = 0, failed = 0;
  const int rc = args.trace
                     ? RunTraced(*spec, *corpus, args, &report, &attempted, &failed)
                     : RunEndToEnd(*spec, *corpus, args, &report, &attempted, &failed);
  const bool correct = rc == 0 && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}, \"info\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed),
              Join(report.metrics).c_str(), Join(report.info).c_str());
  return correct ? 0 : 1;
}
