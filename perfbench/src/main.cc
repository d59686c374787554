// The repository benchmark: verified goodput and latency of the serving stack
// net::Client → loopback TCP → net::Server → QueryRouter → {ModelCatalog,
// AnswerCache, LlmModel, ExactEngine} on three traffic mixes (workload.h).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out F]
//
// Load: one process, 2 callers; a caller is one connection on its own client
// thread keeping 8 requests pipelined in a closed loop. The server runs with
// ServerConfig defaults. Every answer is checked against a reference computed
// in process (verify.h); goodput counts verified answers only.
//
// Everything timed runs on one CPU, and traffic runs in one-second slices
// with the host probe timed between them (host.h); every timing is reported
// at the reference host speed, with the raw figure printed beside it.
//
// --trace 0 measures for S seconds and reports the end-to-end metrics.
// --trace 1 measures S/2 seconds untraced and S/2 traced (a `wire` span per
// request with the server-reported `service` time as its child), replays the
// stream in process with spans around QueryRouter::Execute and around each
// public call the router makes, and reports the per-layer metrics, each
// span's self time, and the tracing overhead. Spans are written to
// --trace-out when the run ends.
//
// The last line of standard output is one JSON object with `correct`,
// `attempted`, `failed` and `metrics`. The exit code is non-zero when a
// self-test fails, an answer mismatches its reference, or the workload's mix
// drifts out of the range it claims.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/llm_model.h"
#include "data/generator.h"
#include "eval/fvu_eval.h"
#include "host.h"
#include "linalg/ols.h"
#include "net/client.h"
#include "net/server.h"
#include "query/exact_engine.h"
#include "selftest.h"
#include "service/answer_cache.h"
#include "service/model_catalog.h"
#include "service/query_router.h"
#include "stats.h"
#include "storage/kdtree.h"
#include "trace.h"
#include "verify.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace qreg {
namespace perfbench {
namespace {

constexpr int kMaxCallers = 2;
constexpr int kPipeline = 8;
constexpr int kSetups = 7;
constexpr double kWarmupSeconds = 1.0;
constexpr double kSliceSeconds = 1.0;
constexpr size_t kHelperThreads = 4;
// Request ids of replay spans start here (wire spans use caller << 40).
constexpr int64_t kReplayRequestBase = int64_t{1} << 48;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && o->seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      o->trace = val == "1";
    } else if (key == "--trace-out") {
      o->trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && have_seed && have_seconds &&
         have_trace;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ------------------------------------------------------------------ setup --

/// One running serving stack. Members are declared in dependency order so
/// destruction shuts the server down first and frees the data last.
struct Stack {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<storage::KdTree> kdtree;
  std::unique_ptr<service::ModelCatalog> catalog;
  std::unique_ptr<service::QueryRouter> router;
  std::unique_ptr<net::Server> server;
  net::Endpoint endpoint;
  service::CatalogSnapshot snapshot;

  int64_t data_ns = 0, index_ns = 0, train_ns = 0, start_ns = 0, total_ns = 0;
};

util::Result<std::unique_ptr<Stack>> Setup(const WorkloadSpec& spec,
                                           int64_t setup_no, SpanLog* log) {
  auto st = std::make_unique<Stack>();
  const int32_t root = log->Begin("setup", -1, setup_no);

  int32_t s = log->Begin("data.generate", root, setup_no);
  auto ds = data::MakeR1(kDimension, kRows, kDataSeed);
  log->End(s);
  if (!ds.ok()) return ds.status();
  st->dataset = std::make_unique<data::Dataset>(std::move(ds).value());

  s = log->Begin("storage.index_build", root, setup_no);
  st->kdtree = std::make_unique<storage::KdTree>(st->dataset->table);
  log->End(s);

  st->catalog = std::make_unique<service::ModelCatalog>();
  util::Status reg = st->catalog->Register(
      kDataset, &st->dataset->table, st->kdtree.get(),
      service::CatalogOptions::ForCube(kDimension, 0.0, 1.0, 0.1, 0.1,
                                       /*a=*/0.1, kTrainMaxPairs, kTrainSeed));
  if (!reg.ok()) return reg;

  int32_t train = -1;
  if (spec.train) {
    train = log->Begin("train", root, setup_no);
    util::Status trained = st->catalog->TrainAll();
    log->End(train);
    if (!trained.ok()) return trained;
  }

  st->router = std::make_unique<service::QueryRouter>(st->catalog.get(),
                                                      spec.router);
  s = log->Begin("server.start", root, setup_no);
  st->server = std::make_unique<net::Server>(st->router.get());
  auto ep = st->server->Start();
  log->End(s);
  if (!ep.ok()) return ep.status();
  st->endpoint = *ep;
  log->End(root);

  auto snap = st->catalog->Get(kDataset);
  if (!snap.ok()) return snap.status();
  st->snapshot = *snap;

  auto dur = [&](int32_t id) {
    if (id < 0) return int64_t{0};
    const Span& sp = log->spans()[static_cast<size_t>(id)];
    return sp.end_ns - sp.start_ns;
  };
  st->data_ns = dur(root + 1);
  st->index_ns = dur(root + 2);
  st->train_ns = dur(train);
  st->start_ns = dur(s);
  st->total_ns = dur(root);
  return st;
}

// ------------------------------------------------------------- wire phase --

/// The first verified answer served for each Q2 request, for q2_fvu.
struct FirstServed {
  explicit FirstServed(size_t n) : claimed(n), pieces(n) {}
  std::vector<std::atomic<uint8_t>> claimed;
  std::vector<std::vector<core::LocalLinearModel>> pieces;
};

/// Outcome counters of one caller (merged across callers afterwards). Only
/// requests sent in measured slices count.
struct CallerStats {
  int64_t attempted = 0, verified = 0, shed = 0, refused = 0, mismatched = 0,
          drops = 0;
  std::map<int, int64_t> failed_by_code;  // Non-verified typed statuses.
  int64_t model = 0, exact = 0, cache = 0;  // Sources of verified answers.
  std::vector<double> latency_ms;
  std::vector<int32_t> slice_of;  // Per latency sample: its measured slice.
  std::vector<double> service_us;   // exec.nanos carried by the answer.
  std::vector<double> overhead_us;  // latency minus exec.nanos.
  double q1_sse = 0.0, q1_sum = 0.0, q1_sumsq = 0.0;
  int64_t q1_n = 0;
  std::string error;
  SpanLog spans;

  void Merge(CallerStats&& o) {
    attempted += o.attempted;
    verified += o.verified;
    shed += o.shed;
    refused += o.refused;
    mismatched += o.mismatched;
    drops += o.drops;
    for (const auto& kv : o.failed_by_code) failed_by_code[kv.first] += kv.second;
    model += o.model;
    exact += o.exact;
    cache += o.cache;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    slice_of.insert(slice_of.end(), o.slice_of.begin(), o.slice_of.end());
    service_us.insert(service_us.end(), o.service_us.begin(), o.service_us.end());
    overhead_us.insert(overhead_us.end(), o.overhead_us.begin(),
                       o.overhead_us.end());
    q1_sse += o.q1_sse;
    q1_sum += o.q1_sum;
    q1_sumsq += o.q1_sumsq;
    q1_n += o.q1_n;
    if (error.empty()) error = o.error;
    spans.Append(std::move(o.spans));
  }

  int64_t failed() const { return attempted - verified; }

  /// RMSE of served Q1 answers against their exact answers.
  double Q1Rmse() const {
    return q1_n > 0 ? std::sqrt(q1_sse / static_cast<double>(q1_n)) : 0.0;
  }

  /// 1 − SSE / SST of served Q1 answers against their exact answers (1 when
  /// every answer is exact).
  double Q1R2() const {
    const double n = static_cast<double>(q1_n);
    const double sst = q1_n > 0 ? q1_sumsq - q1_sum * q1_sum / n : 0.0;
    return sst > 0.0 ? 1.0 - q1_sse / sst : 1.0;
  }
};

/// Opens the callers' traffic one slice at a time: a slice runs until its
/// end time, then each caller lets its in-flight requests finish. Between
/// slices no request is in flight, so the main thread can probe the host.
class SliceGate {
 public:
  explicit SliceGate(int callers) : active_(callers) {}

  /// Main thread: opens slice `slice` until `end_ns` and returns once every
  /// remaining caller has drained it.
  void Run(int slice, int64_t end_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    slice_ = slice;
    end_ns_ = end_ns;
    drained_ = 0;
    cv_.notify_all();
    cv_.wait(lock, [&] { return drained_ >= active_; });
  }

  /// Main thread: no more slices.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  /// Caller: waits for slice `slice` to open and returns its end time, or -1
  /// once the gate is closed.
  int64_t Await(int slice) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || slice_ >= slice; });
    return closed_ ? -1 : end_ns_;
  }

  /// Caller: has no request of the open slice in flight.
  void Drained() {
    std::lock_guard<std::mutex> lock(mu_);
    ++drained_;
    cv_.notify_all();
  }

  /// Caller: sends nothing more (its connection failed or the gate closed).
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int active_;
  int slice_ = -1;
  int drained_ = 0;
  int64_t end_ns_ = 0;
  bool closed_ = false;
};

struct PhaseContext {
  const std::vector<net::WireRequest>* stream = nullptr;
  const Verifier* verifier = nullptr;
  FirstServed* first = nullptr;
  SliceGate* gate = nullptr;
  net::Endpoint endpoint;
  int callers = 1;
  bool traced = false;
};

/// Slice 0 warms up; slices 1, 2, ... are measured as slices 0, 1, ...
void RunCaller(const PhaseContext& ctx, int caller, CallerStats* out) {
  struct LeaveOnExit {
    SliceGate* gate;
    ~LeaveOnExit() { gate->Leave(); }
  } leave{ctx.gate};
  const std::vector<net::WireRequest>& stream = *ctx.stream;
  const Reference& ref = ctx.verifier->reference();
  net::Client client;
  util::Status conn = client.Connect(ctx.endpoint.address, ctx.endpoint.port);
  if (!conn.ok()) {
    ++out->attempted;
    ++out->drops;
    out->error = "connect: " + conn.ToString();
    return;
  }
  struct Slot {
    uint64_t id = 0;
    size_t index = 0;
    int64_t send_ns = 0;
    int32_t slice = -1;  // Measured slice, or -1 while warming up.
    bool live = false;
  };
  constexpr uint64_t kSlots = 2 * kPipeline;
  Slot slots[kSlots];
  uint64_t next_id = 1;
  size_t cursor = static_cast<size_t>(caller) * stream.size() /
                  static_cast<size_t>(ctx.callers);
  int inflight = 0;
  int32_t slice = -1;
  const int64_t wire_base = static_cast<int64_t>(caller + 1) << 40;

  auto lose_inflight = [&] {
    for (Slot& s : slots) {
      if (s.live && s.slice >= 0) ++out->drops;
      s.live = false;
    }
    inflight = 0;
  };
  auto send_one = [&]() -> bool {
    Slot& s = slots[next_id % kSlots];
    s.id = next_id;
    s.index = cursor++ % stream.size();
    s.send_ns = NowNs();
    s.slice = slice;
    s.live = true;
    if (s.slice >= 0) ++out->attempted;
    if (!client.SendRequest(stream[s.index], next_id).ok()) {
      lose_inflight();
      return false;
    }
    ++next_id;
    ++inflight;
    return true;
  };

  for (int k = 0;; ++k) {
    const int64_t end_ns = ctx.gate->Await(k);
    if (end_ns < 0) return;
    slice = k - 1;
    while (inflight < kPipeline) {
      if (!send_one()) return;
    }
    while (inflight > 0) {
      uint64_t id = 0;
      util::Result<service::Answer> r = client.ReadResponse(&id);
      const int64_t recv_ns = NowNs();
      if (!r.ok() && r.status().code() == util::StatusCode::kIoError) {
        lose_inflight();
        out->error = "transport: " + r.status().ToString();
        return;
      }
      Slot& s = slots[id % kSlots];
      if (!s.live || s.id != id) {
        ++out->mismatched;
        out->error = "response for a request id not in flight";
        lose_inflight();
        return;
      }
      s.live = false;
      --inflight;
      if (s.slice >= 0) {
        const Verdict v = ctx.verifier->Check(s.index, r);
        if (!r.ok() && v != Verdict::kVerified) {
          ++out->failed_by_code[static_cast<int>(r.status().code())];
        }
        switch (v) {
          case Verdict::kVerified: ++out->verified; break;
          case Verdict::kShed: ++out->shed; break;
          case Verdict::kRefused: ++out->refused; break;
          case Verdict::kMismatch: ++out->mismatched; break;
        }
        const int64_t latency_ns = recv_ns - s.send_ns;
        int32_t wire_span = -1;
        const int64_t rid = wire_base + static_cast<int64_t>(id);
        if (ctx.traced) {
          wire_span = out->spans.Add("wire", s.send_ns, recv_ns, -1, rid);
        }
        if (v == Verdict::kVerified) {
          out->latency_ms.push_back(static_cast<double>(latency_ns) / 1e6);
          out->slice_of.push_back(s.slice);
        }
        if (v == Verdict::kVerified && r.ok()) {
          const service::Answer& a = *r;
          switch (a.source) {
            case service::AnswerSource::kModel: ++out->model; break;
            case service::AnswerSource::kExact: ++out->exact; break;
            case service::AnswerSource::kCache: ++out->cache; break;
          }
          out->service_us.push_back(static_cast<double>(a.exec.nanos) / 1e3);
          out->overhead_us.push_back(
              static_cast<double>(latency_ns - a.exec.nanos) / 1e3);
          if (ctx.traced) {
            out->spans.Add("service", recv_ns - a.exec.nanos, recv_ns,
                           wire_span, rid);
          }
          if (a.kind == service::QueryKind::kQ1MeanValue) {
            if (ref.exact_ok[s.index]) {
              const double exact = ref.exact_mean[s.index];
              const double err = a.mean - exact;
              out->q1_sse += err * err;
              out->q1_sum += exact;
              out->q1_sumsq += exact * exact;
              ++out->q1_n;
            }
          } else if (ctx.first->claimed[s.index].exchange(1) == 0) {
            ctx.first->pieces[s.index] = a.pieces;
          }
        }
      }
      if (recv_ns < end_ns && !send_one()) return;
    }
    ctx.gate->Drained();
  }
}

/// One measured stretch of closed-loop wire traffic.
struct WirePhase {
  CallerStats stats;
  service::AnswerCacheStats cache_before, cache_after;
  service::ServiceSnapshot server_before, server_after;
  /// Length of each measured slice, and the host probe's round trips: one
  /// before the first measured slice and one after each.
  std::vector<double> slice_seconds, round_trip_us;

  /// Per measured slice, as measured: goodput, p50 and p99.
  struct Slices {
    std::vector<double> goodput, p50_ms, p99_ms;
  };
  Slices PerSlice() const {
    const size_t n = slice_seconds.size();
    std::vector<std::vector<double>> lat(n);
    for (size_t k = 0; k < stats.latency_ms.size(); ++k) {
      const size_t slice = static_cast<size_t>(stats.slice_of[k]);
      lat[slice].push_back(stats.latency_ms[k]);
    }
    Slices out;
    for (size_t k = 0; k < n; ++k) {
      out.goodput.push_back(static_cast<double>(lat[k].size()) /
                            slice_seconds[k]);
      out.p50_ms.push_back(Percentile(lat[k], 0.50));
      out.p99_ms.push_back(Percentile(lat[k], 0.99));
    }
    return out;
  }

  /// Whole-phase goodput as measured.
  double RawGoodput() const {
    double seconds = 0.0;
    for (double s : slice_seconds) seconds += s;
    return seconds > 0.0 ? static_cast<double>(stats.verified) / seconds : 0.0;
  }
};

WirePhase RunWire(Stack* st, HostProbe* probe,
                  const std::vector<net::WireRequest>& stream,
                  const Verifier& verifier, FirstServed* first, int callers,
                  double seconds, bool traced) {
  SliceGate gate(callers);
  PhaseContext ctx;
  ctx.stream = &stream;
  ctx.verifier = &verifier;
  ctx.first = first;
  ctx.gate = &gate;
  ctx.endpoint = st->endpoint;
  ctx.callers = callers;
  ctx.traced = traced;

  WirePhase phase;
  std::vector<CallerStats> per(static_cast<size_t>(callers));
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back(RunCaller, std::cref(ctx), c,
                         &per[static_cast<size_t>(c)]);
  }
  const int slices =
      std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
  gate.Run(0, NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9));
  phase.server_before = st->router->Stats();
  phase.cache_before = st->router->CacheStats();
  phase.round_trip_us.push_back(probe->RoundTripUs());
  for (int k = 0; k < slices; ++k) {
    const int64_t open = NowNs();
    gate.Run(k + 1, open + static_cast<int64_t>(kSliceSeconds * 1e9));
    phase.slice_seconds.push_back(Seconds(NowNs() - open));
    phase.round_trip_us.push_back(probe->RoundTripUs());
  }
  phase.cache_after = st->router->CacheStats();
  phase.server_after = st->router->Stats();
  gate.Close();
  for (std::thread& t : threads) t.join();
  for (CallerStats& s : per) phase.stats.Merge(std::move(s));
  return phase;
}

// ----------------------------------------------------------------- replay --

struct ReplayResult {
  int64_t requests = 0, mismatched = 0;
  service::AnswerCacheStats cache;
  int64_t exact_queries = 0, examined = 0, matched = 0;
  int64_t ols_failures = 0;
};

/// Replays the stream once in process: a `router.execute` span around
/// QueryRouter::Execute, and beside it the router's public calls in the
/// router's order (catalog → cache lookup → route → model or exact → cache
/// insert) against a bench-owned cache. Both answers are verified. For exact
/// Q2 answers a separate `linalg.ols` span times the OLS accumulate + solve
/// over the selected rows.
ReplayResult Replay(Stack* st, const WorkloadSpec& spec,
                    const std::vector<net::WireRequest>& stream,
                    const Verifier& verifier, SpanLog* log) {
  ReplayResult out;
  const service::RouterConfig& cfg = spec.router;
  service::QueryRouter router(st->catalog.get(), cfg);
  std::unique_ptr<service::AnswerCache> cache;
  if (cfg.enable_cache) cache = std::make_unique<service::AnswerCache>(cfg.cache);
  const storage::Table& table = st->dataset->table;

  for (size_t i = 0; i < stream.size(); ++i) {
    const net::WireRequest& w = stream[i];
    const bool q1 = w.kind == service::QueryKind::kQ1MeanValue;
    const int64_t rid = kReplayRequestBase + static_cast<int64_t>(i);
    ++out.requests;
    const int32_t root = log->Begin("replay", -1, rid);

    int32_t s = log->Begin("router.execute", root, rid);
    const service::ExecResult routed = router.Execute(ToRequest(w));
    log->End(s);
    if (verifier.Check(i, routed) != Verdict::kVerified) ++out.mismatched;

    s = log->Begin("catalog.get", root, rid);
    auto snap = cfg.policy == service::RoutePolicy::kExactOnly
                    ? st->catalog->Get(kDataset)
                    : st->catalog->GetOrTrain(kDataset);
    log->End(s);
    if (!snap.ok()) {
      ++out.mismatched;
      log->End(root);
      continue;
    }
    const std::string group = std::string(kDataset) + "/g" +
                              std::to_string(snap->generation) + "/" +
                              service::QueryKindName(w.kind);

    util::Result<service::Answer> chain =
        util::Status::Internal("replay produced no answer");
    bool exact_q2 = false;
    service::CachedAnswer cached;
    bool hit = false;
    if (cache) {
      s = log->Begin("cache.lookup", root, rid);
      hit = cache->Lookup(group, w.q, &cached);
      log->End(s);
    }
    if (hit) {
      service::Answer a;
      a.kind = w.kind;
      a.source = service::AnswerSource::kCache;
      a.mean = cached.mean;
      a.pieces = std::move(cached.pieces);
      a.cache_delta = cached.delta;
      chain = std::move(a);
    } else {
      const core::LlmModel* model = snap->model.get();
      bool use_model = cfg.policy != service::RoutePolicy::kExactOnly &&
                       model != nullptr && model->num_prototypes() > 0;
      if (use_model && cfg.policy == service::RoutePolicy::kHybrid &&
          snap->vigilance > 0.0) {
        s = log->Begin("model.route", root, rid);
        const double dist = model->NearestPrototypeDistance(w.q);
        log->End(s);
        use_model = dist <= cfg.rho_scale * snap->vigilance;
      }
      service::Answer a;
      a.kind = w.kind;
      util::Status status;
      if (use_model) {
        a.source = service::AnswerSource::kModel;
        s = log->Begin(q1 ? "model.q1" : "model.q2", root, rid);
        if (q1) {
          auto r = model->PredictMean(w.q);
          log->End(s);
          if (r.ok()) a.mean = *r; else status = r.status();
        } else {
          auto r = model->RegressionQuery(w.q);
          log->End(s);
          if (r.ok()) a.pieces = std::move(r).value(); else status = r.status();
        }
      } else {
        a.source = service::AnswerSource::kExact;
        query::ExecStats es;
        s = log->Begin(q1 ? "exact.q1" : "exact.q2", root, rid);
        if (q1) {
          auto r = snap->engine->MeanValue(w.q, &es);
          log->End(s);
          if (r.ok()) a.mean = r->mean; else status = r.status();
        } else {
          auto r = snap->engine->Regression(w.q, &es);
          log->End(s);
          if (r.ok()) {
            core::LocalLinearModel m;
            m.intercept = r->intercept;
            m.slope = std::move(r->slope);
            m.prototype_id = -1;
            m.weight = 1.0;
            a.pieces.push_back(std::move(m));
            exact_q2 = true;
          } else {
            status = r.status();
          }
        }
        ++out.exact_queries;
        out.examined += es.tuples_examined;
        out.matched += es.tuples_matched;
      }
      if (status.ok()) {
        if (cache) {
          service::CachedAnswer entry;
          entry.q = w.q;
          entry.mean = a.mean;
          entry.pieces = a.pieces;
          s = log->Begin("cache.insert", root, rid);
          cache->Insert(group, std::move(entry));
          log->End(s);
        }
        chain = std::move(a);
      } else {
        chain = status;
      }
    }
    log->End(root);
    if (verifier.Check(i, chain) != Verdict::kVerified) ++out.mismatched;

    if (exact_q2) {
      auto ids = snap->engine->Select(w.q);
      if (!ids.ok() || ids->empty()) {
        ++out.ols_failures;
        continue;
      }
      const size_t n = ids->size();
      std::vector<double> xs(n * kDimension), us(n);
      std::vector<int32_t> sel(n);
      for (size_t k = 0; k < n; ++k) {
        const double* x = table.x((*ids)[k]);
        std::copy(x, x + kDimension, xs.begin() + static_cast<long>(k * kDimension));
        us[k] = table.u((*ids)[k]);
        sel[k] = static_cast<int32_t>(k);
      }
      linalg::OlsAccumulator acc(kDimension);
      s = log->Begin("linalg.ols", -1, rid);
      acc.AddBlock(xs.data(), us.data(), sel.data(), static_cast<int32_t>(n));
      auto fit = acc.Solve();
      log->End(s);
      if (!fit.ok() || fit->n != static_cast<int64_t>(n)) ++out.ols_failures;
    }
  }
  if (cache) out.cache = cache->stats();
  return out;
}

// ---------------------------------------------------------------- quality --

struct Q2Quality {
  double mean_fvu = 0.0, median_fvu = 0.0;
  int64_t scored = 0, empty = 0, nonfinite = 0;
};

/// FVU (eval::EvaluatePiecewiseFvuAt) of the first served answer of each Q2
/// request, over that request's subspace. A model piece is anchored at its
/// prototype, an exact piece at the query center. A subspace with a handful
/// of points can make one FVU arbitrarily large, so the median is the
/// reported figure and the mean is printed beside it.
Q2Quality ScoreQ2(const Stack& st, const std::vector<net::WireRequest>& stream,
                  const FirstServed& first) {
  const core::LlmModel* model = st.snapshot.model.get();
  const query::ExactEngine& engine = *st.snapshot.engine;
  // Per request: its FVU, or NaN when the subspace is empty (-inf) or the
  // answer cannot be scored (+inf). Unserved and Q1 requests stay NaN.
  const double kEmpty = -HUGE_VAL, kUnscorable = HUGE_VAL;
  std::vector<double> fvu_of(stream.size(), std::nan(""));
  auto work = [&](size_t t) {
    AllowAllCpus();
    for (size_t i = t; i < stream.size(); i += kHelperThreads) {
      if (stream[i].kind != service::QueryKind::kQ2Regression ||
          first.claimed[i].load() == 0) {
        continue;
      }
      const std::vector<core::LocalLinearModel>& pieces = first.pieces[i];
      std::vector<std::vector<double>> anchors;
      for (const core::LocalLinearModel& m : pieces) {
        const bool proto = model != nullptr && m.prototype_id >= 0 &&
                           m.prototype_id < model->num_prototypes();
        anchors.push_back(
            proto ? model->prototypes()[static_cast<size_t>(m.prototype_id)]
                        .w.center
                  : stream[i].q.center);
      }
      auto ids = engine.Select(stream[i].q);
      if (!ids.ok() || ids->empty()) {
        fvu_of[i] = kEmpty;
        continue;
      }
      auto fvu = eval::EvaluatePiecewiseFvuAt(pieces, anchors,
                                              st.dataset->table, *ids);
      fvu_of[i] = fvu.ok() && std::isfinite(fvu->mean_fvu) ? fvu->mean_fvu
                                                          : kUnscorable;
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kHelperThreads; ++t) pool.emplace_back(work, t);
  for (std::thread& t : pool) t.join();
  Q2Quality q;
  std::vector<double> scored;
  for (double v : fvu_of) {
    if (v == kEmpty) {
      ++q.empty;
    } else if (v == kUnscorable) {
      ++q.nonfinite;
    } else if (!std::isnan(v)) {
      scored.push_back(v);
    }
  }
  q.scored = static_cast<int64_t>(scored.size());
  q.mean_fvu = Mean(scored);
  q.median_fvu = Median(std::move(scored));
  return q;
}

// ----------------------------------------------------------------- report --

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("  %-26s %16.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }

  std::string Json(bool correct, int64_t attempted, int64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[128];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Self time of every span named `name`, in µs.
std::vector<double> SelfUs(const std::vector<Span>& spans,
                           const std::vector<int64_t>& self,
                           const char* name) {
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) == 0) {
      out.push_back(static_cast<double>(self[i]) / 1e3);
    }
  }
  return out;
}

/// Duration of every span named `name`, in µs.
std::vector<double> DurationUs(const std::vector<Span>& spans,
                               const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

void PrintFailures(const char* label, const CallerStats& s) {
  std::printf(
      "%s: attempted %lld, verified %lld, shed %lld, refused %lld, "
      "drops %lld, mismatches %lld",
      label, static_cast<long long>(s.attempted),
      static_cast<long long>(s.verified), static_cast<long long>(s.shed),
      static_cast<long long>(s.refused), static_cast<long long>(s.drops),
      static_cast<long long>(s.mismatched));
  for (const auto& kv : s.failed_by_code) {
    std::printf(", status[%s] %lld",
                util::StatusCodeToString(static_cast<util::StatusCode>(kv.first)),
                static_cast<long long>(kv.second));
  }
  if (!s.error.empty()) std::printf(" (%s)", s.error.c_str());
  std::printf("\n");
}

struct Mix {
  double hit_rate = 0.0, exact_share = 0.0;
  int64_t lookups = 0, answers = 0;
};

Mix MeasureMix(const std::vector<const WirePhase*>& phases) {
  Mix m;
  int64_t hits = 0, exact = 0;
  for (const WirePhase* p : phases) {
    hits += p->cache_after.hits - p->cache_before.hits;
    m.lookups += p->cache_after.lookups - p->cache_before.lookups;
    exact += p->stats.exact;
    m.answers += p->stats.model + p->stats.exact + p->stats.cache;
  }
  m.hit_rate = Ratio(static_cast<double>(hits), static_cast<double>(m.lookups));
  m.exact_share =
      Ratio(static_cast<double>(exact), static_cast<double>(m.answers));
  return m;
}

bool CheckMix(const WorkloadSpec& spec, const Mix& m) {
  const bool hit_ok =
      m.hit_rate >= spec.min_hit_rate && m.hit_rate <= spec.max_hit_rate;
  const bool exact_ok = m.exact_share >= spec.min_exact_share &&
                        m.exact_share <= spec.max_exact_share;
  std::printf("mix: cache.hit_rate %.4f over %lld lookups (claimed %.3f..%.3f) %s\n",
              m.hit_rate, static_cast<long long>(m.lookups), spec.min_hit_rate,
              spec.max_hit_rate, hit_ok ? "ok" : "OUT OF RANGE");
  std::printf("mix: router.exact_share %.4f over %lld answers (claimed %.3f..%.3f) %s\n",
              m.exact_share, static_cast<long long>(m.answers),
              spec.min_exact_share, spec.max_exact_share,
              exact_ok ? "ok" : "OUT OF RANGE");
  return hit_ok && exact_ok && m.answers > 0;
}

/// Durations of the repeated set-ups as measured, in seconds, and the host
/// probe's round trips before the first set-up and after each.
struct SetupTimes {
  std::vector<double> total, data, index, train, start, round_trip_us;
};

/// The run's host factor: from the median of every probe it made, so that
/// the noise of a single probe averages out.
double RunHostFactor(const SetupTimes& setup,
                     const std::vector<const WirePhase*>& phases) {
  std::vector<double> round_trips = setup.round_trip_us;
  for (const WirePhase* p : phases) {
    round_trips.insert(round_trips.end(), p->round_trip_us.begin(),
                       p->round_trip_us.end());
  }
  return HostFactor(Median(std::move(round_trips)));
}

struct RunOutcome {
  bool correct = true;
  int64_t attempted = 0, failed = 0;
  Mix mix;
};

/// --trace 0: one untraced wire phase and the end-to-end metrics.
RunOutcome MeasureEndToEnd(Stack* stack, HostProbe* probe,
                           const std::vector<net::WireRequest>& stream,
                           const Verifier& verifier, int callers, double seconds,
                           const SetupTimes& setup, Report* rep) {
  FirstServed first(stream.size());
  const WirePhase phase = RunWire(stack, probe, stream, verifier, &first,
                                  callers, seconds, /*traced=*/false);
  const CallerStats& s = phase.stats;
  PrintFailures("requests", s);
  const Q2Quality q2 = ScoreQ2(*stack, stream, first);
  RunOutcome out;
  out.mix = MeasureMix({&phase});
  out.attempted = s.attempted;
  out.failed = s.failed();
  out.correct = s.mismatched == 0;

  // Goodput, p50 and p99 are medians of the per-slice figures, so a stall
  // of a second moves them little, scaled to the reference host speed by the
  // run's host factor. The whole-run figures as measured are printed beside.
  const double h = RunHostFactor(setup, {&phase});
  const WirePhase::Slices per = phase.PerSlice();
  const size_t slices = per.goodput.size();
  for (size_t k = 0; k < slices; ++k) {
    std::printf("slice %2zu: %.3f s, goodput %9.1f/s p50 %.4f ms p99 %.4f ms "
                "as measured; probe after %.3f us\n",
                k, phase.slice_seconds[k], per.goodput[k], per.p50_ms[k],
                per.p99_ms[k], phase.round_trip_us[k + 1]);
  }
  const std::string per_slice =
      "median of " + std::to_string(slices) + " slices of ~" +
      std::to_string(s.latency_ms.size() / slices) + " samples; host factor " +
      std::to_string(h) + "; whole run as measured ";
  const double fail_rate = Ratio(static_cast<double>(out.failed),
                                 static_cast<double>(out.attempted));

  std::printf("end-to-end metrics:\n");
  rep->Add("goodput_qps", Median(per.goodput) * h, "1/s",
           per_slice + std::to_string(phase.RawGoodput()));
  rep->Add("p50_ms", Median(per.p50_ms) / h, "ms",
           per_slice + std::to_string(Percentile(s.latency_ms, 0.50)));
  rep->Add("p99_ms", Median(per.p99_ms) / h, "ms",
           per_slice + std::to_string(Percentile(s.latency_ms, 0.99)));
  rep->Add("verified_share", 1.0 - fail_rate, "ratio",
           "= 1 - fail_rate; fail_rate " + std::to_string(fail_rate) + " (" +
               std::to_string(out.failed) + " of " +
               std::to_string(out.attempted) + ")");
  rep->Add("q1_r2", s.Q1R2(), "ratio",
           "q1_rmse " + std::to_string(s.Q1Rmse()) + " (n=" +
               std::to_string(s.q1_n) + " served Q1 answers)");
  rep->Add("q2_fvu", q2.median_fvu, "ratio",
           "median; mean " + std::to_string(q2.mean_fvu) + ", n=" +
               std::to_string(q2.scored) + " distinct Q2 requests, " +
               std::to_string(q2.empty) + " empty, " +
               std::to_string(q2.nonfinite) + " unscorable");
  rep->Add("setup_s", Median(setup.total) / h, "s",
           "median of " + std::to_string(setup.total.size()) +
               " set-ups; as measured " + std::to_string(Median(setup.total)));
  return out;
}

/// --trace 1: an untraced and a traced wire phase of half the time each, the
/// in-process replay, and the per-layer metrics. Timings are reported at the
/// reference host speed, scaled by the median probe round trip of the run.
/// Spans (as measured) go to `trace_out`.
RunOutcome MeasureLayers(Stack* stack, HostProbe* probe,
                         const WorkloadSpec& spec,
                         const std::vector<net::WireRequest>& stream,
                         const Verifier& verifier, int callers, double seconds,
                         const SetupTimes& setup, SpanLog setup_log,
                         const std::string& trace_out, Report* rep) {
  FirstServed first(stream.size());
  const WirePhase plain = RunWire(stack, probe, stream, verifier, &first,
                                  callers, seconds / 2.0, false);
  WirePhase traced = RunWire(stack, probe, stream, verifier, &first, callers,
                             seconds / 2.0, true);
  PrintFailures("untraced requests", plain.stats);
  PrintFailures("traced requests", traced.stats);

  SpanLog log = std::move(setup_log);
  log.Append(std::move(traced.stats.spans));
  const ReplayResult replay = Replay(stack, spec, stream, verifier, &log);
  std::printf("replay: %lld requests in process, %lld mismatches, %lld OLS "
              "failures\n",
              static_cast<long long>(replay.requests),
              static_cast<long long>(replay.mismatched),
              static_cast<long long>(replay.ols_failures));
  RunOutcome out;
  out.mix = MeasureMix({&plain, &traced});
  out.attempted = plain.stats.attempted + traced.stats.attempted + replay.requests;
  out.failed = plain.stats.failed() + traced.stats.failed() + replay.mismatched;
  out.correct = plain.stats.mismatched == 0 && traced.stats.mismatched == 0 &&
                replay.mismatched == 0 && replay.ols_failures == 0;

  const std::vector<Span>& spans = log.spans();
  const CallerStats& t = traced.stats;
  const service::ServiceSnapshot& sb = traced.server_before;
  const service::ServiceSnapshot& sa = traced.server_after;
  const double frames =
      static_cast<double>(sa.net_frames_decoded - sb.net_frames_decoded);
  const double answers = static_cast<double>(t.model + t.exact + t.cache);
  const std::vector<double> exact_q1 = DurationUs(spans, "exact.q1");
  const std::vector<double> exact_q2 = DurationUs(spans, "exact.q2");
  const core::LlmModel* model = stack->snapshot.model.get();
  const core::TrainingReport& report = stack->snapshot.report;
  const double h = RunHostFactor(setup, {&plain, &traced});
  auto at_ref = [h](double measured) { return measured / h; };
  auto span_us = [&](const char* name) {
    return at_ref(Median(DurationUs(spans, name)));
  };
  const double plain_goodput = Median(plain.PerSlice().goodput);
  const double traced_goodput = Median(traced.PerSlice().goodput);

  std::printf("per-layer metrics (timings at reference speed, host factor "
              "%.4f):\n", h);
  rep->Add("host.round_trip_us", h * kReferenceRoundTripUs, "us",
           "median probe round trip of the run, as measured");
  rep->Add("net.overhead_us.p50", at_ref(Percentile(t.overhead_us, 0.5)), "us",
           "latency minus exec.nanos, n=" + std::to_string(t.overhead_us.size()));
  rep->Add("net.overhead_us.p99", at_ref(Percentile(t.overhead_us, 0.99)),
           "us");
  rep->Add("net.bytes_per_request",
           Ratio(static_cast<double>(sa.net_bytes_in - sb.net_bytes_in), frames),
           "B");
  rep->Add("net.bytes_per_answer",
           Ratio(static_cast<double>(sa.net_bytes_out - sb.net_bytes_out), frames),
           "B");
  rep->Add("router.exec_us.p50", at_ref(Percentile(t.service_us, 0.5)), "us",
           "server-reported exec.nanos");
  rep->Add("router.exec_us.p99", at_ref(Percentile(t.service_us, 0.99)), "us");
  rep->Add("router.model_share", Ratio(static_cast<double>(t.model), answers),
           "ratio", "of " + std::to_string(t.model + t.exact + t.cache) +
                        " traced answers");
  rep->Add("router.exact_share", Ratio(static_cast<double>(t.exact), answers),
           "ratio");
  rep->Add("router.cache_share", Ratio(static_cast<double>(t.cache), answers),
           "ratio");
  rep->Add("router.shed", static_cast<double>(plain.stats.shed + t.shed),
           "count");
  rep->Add("cache.hit_rate", replay.cache.HitRate(), "ratio",
           "bench-owned cache over one in-process pass of " +
               std::to_string(replay.requests) + " requests");
  rep->Add("cache.inserts", static_cast<double>(replay.cache.inserts), "count");
  rep->Add("cache.evictions", static_cast<double>(replay.cache.evictions),
           "count");
  rep->Add("cache.grid_share",
           Ratio(static_cast<double>(replay.cache.grid_probes),
                 static_cast<double>(replay.cache.lookups)),
           "ratio");
  rep->Add("cache.lookup_us", span_us("cache.lookup"), "us");
  rep->Add("cache.insert_us", span_us("cache.insert"), "us");
  rep->Add("catalog.get_us", span_us("catalog.get"), "us");
  rep->Add("model.route_us", span_us("model.route"), "us");
  rep->Add("model.q1_us", span_us("model.q1"), "us");
  rep->Add("model.q2_us", span_us("model.q2"), "us");
  rep->Add("model.k", model ? model->num_prototypes() : 0, "count");
  rep->Add("model.q1_rmse", plain.stats.Q1Rmse(), "ratio",
           "served Q1 answers vs exact, n=" + std::to_string(plain.stats.q1_n));
  rep->Add("train.s", at_ref(spec.train ? Median(setup.train) : 0.0), "s");
  rep->Add("train.pairs", static_cast<double>(report.pairs_used), "count");
  rep->Add("train.exact_share", report.QueryExecFraction(), "ratio");
  rep->Add("exact.q1_us.p50", at_ref(Percentile(exact_q1, 0.5)), "us",
           "n=" + std::to_string(exact_q1.size()));
  rep->Add("exact.q1_us.p99", at_ref(Percentile(exact_q1, 0.99)), "us");
  rep->Add("exact.q2_us.p50", at_ref(Percentile(exact_q2, 0.5)), "us",
           "n=" + std::to_string(exact_q2.size()));
  rep->Add("exact.q2_us.p99", at_ref(Percentile(exact_q2, 0.99)), "us");
  rep->Add("exact.rows_examined",
           Ratio(static_cast<double>(replay.examined),
                 static_cast<double>(replay.exact_queries)),
           "rows", "per exact query");
  rep->Add("exact.match_ratio",
           Ratio(static_cast<double>(replay.matched),
                 static_cast<double>(replay.examined)),
           "ratio");
  rep->Add("linalg.ols_us", span_us("linalg.ols"), "us");
  rep->Add("storage.index_build_s", at_ref(Median(setup.index)), "s");
  rep->Add("data.generate_s", at_ref(Median(setup.data)), "s");
  rep->Add("trace.overhead", 1.0 - Ratio(traced_goodput, plain_goodput),
           "ratio",
           "untraced " + std::to_string(plain_goodput) + " vs traced " +
               std::to_string(traced_goodput) + " goodput (slice medians)");

  const std::vector<int64_t> self = SelfTimes(spans);
  static const char* const kSpanNames[] = {
      "wire",        "service",       "replay",       "router.execute",
      "catalog.get", "cache.lookup",  "model.route",  "model.q1",
      "model.q2",    "exact.q1",      "exact.q2",     "cache.insert",
      "linalg.ols",  "setup",         "data.generate", "storage.index_build",
      "train",       "server.start"};
  for (const char* name : kSpanNames) {
    const std::vector<double> us = SelfUs(spans, self, name);
    rep->Add(std::string("self.") + name + "_us", at_ref(Mean(us)), "us",
             "mean self time over " + std::to_string(us.size()) + " spans");
  }
  if (!trace_out.empty()) {
    if (log.WriteCsv(trace_out)) {
      std::printf("spans: %zu written to %s\n", log.size(), trace_out.c_str());
    } else {
      std::fprintf(stderr, "could not write spans to %s\n", trace_out.c_str());
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {%s} --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 WorkloadNames().c_str());
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (have %s)\n",
                 opt.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int callers = std::min(kMaxCallers, nproc);
  // Every thread started from here on, the server's too, shares one CPU.
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "cannot pin the benchmark to one CPU\n");
    return 1;
  }
  HostProbe probe;
  SetupTimes times;
  times.round_trip_us.push_back(probe.RoundTripUs());
  if (times.round_trip_us[0] <= 0.0) {
    std::fprintf(stderr, "the host probe failed\n");
    return 1;
  }
  std::printf(
      "perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%d cpu=%d "
      "build=%s client_threads=%d connections=%d pipeline=%d closed_loop=1\n",
      spec->name.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, nproc, cpu, PERFBENCH_BUILD_TYPE,
      callers, callers, kPipeline);

  std::vector<std::string> failures;
  TestPercentile(&failures);
  TestSelfTime(&failures);
  TestStreamDeterminism(opt.seed, &failures);

  // Set-up, several times; the last stack serves.
  SpanLog setup_log;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    auto st = Setup(*spec, k, &setup_log);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.status().ToString().c_str());
      return 1;
    }
    stack = std::move(st).value();
    times.round_trip_us.push_back(probe.RoundTripUs());
    times.total.push_back(Seconds(stack->total_ns));
    times.data.push_back(Seconds(stack->data_ns));
    times.index.push_back(Seconds(stack->index_ns));
    times.train.push_back(Seconds(stack->train_ns));
    times.start.push_back(Seconds(stack->start_ns));
  }
  std::printf(
      "setup (median of %d, as measured): %.4f s = data.generate %.4f + "
      "storage.index_build %.4f + train %.4f + server.start %.4f (+ register/router)\n",
      kSetups, Median(times.total), Median(times.data), Median(times.index),
      Median(times.train), Median(times.start));
  if (spec->train) {
    const core::TrainingReport& report = stack->snapshot.report;
    std::printf("model: K=%d prototypes, %lld training pairs, exact share of "
                "training time %.4f, vigilance %.6f\n",
                stack->snapshot.model ? stack->snapshot.model->num_prototypes() : 0,
                static_cast<long long>(report.pairs_used),
                report.QueryExecFraction(), stack->snapshot.vigilance);
  }

  const std::vector<net::WireRequest> stream =
      GenerateStream(spec->traffic, opt.seed);
  RoutingModel routing;
  routing.policy = spec->router.policy;
  routing.model = stack->snapshot.model.get();
  routing.vigilance = spec->router.rho_scale * stack->snapshot.vigilance;
  const Reference reference =
      ComputeReference(stream, *stack->snapshot.engine, routing, kHelperThreads);
  const Verifier verifier(stream, reference, spec->router.cache.delta_min);
  TestVerifier(stream, verifier, spec->router.cache.delta_min, &failures);
  for (const std::string& f : failures) {
    std::fprintf(stderr, "self-test failed: %s\n", f.c_str());
  }
  if (!failures.empty()) return 1;
  std::printf("self-tests: ok (percentile, span self time, stream determinism, "
              "verifier)\n");

  Report rep;
  const RunOutcome out =
      opt.trace
          ? MeasureLayers(stack.get(), &probe, *spec, stream, verifier,
                          callers, opt.seconds, times, std::move(setup_log),
                          opt.trace_out, &rep)
          : MeasureEndToEnd(stack.get(), &probe, stream, verifier, callers,
                            opt.seconds, times, &rep);
  const bool mix_ok = CheckMix(*spec, out.mix);
  if (!out.correct) {
    std::printf("INCORRECT: served answers mismatched the reference\n");
  }
  std::printf("%s\n", rep.Json(out.correct, out.attempted, out.failed).c_str());
  std::fflush(stdout);
  return out.correct && mix_ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace qreg

int main(int argc, char** argv) { return qreg::perfbench::Main(argc, argv); }
