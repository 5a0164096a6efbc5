/// \file main.cc
/// \brief `dtbench`: runs one workload of the repository benchmark and
/// prints its metrics, or runs the harness self-tests.
///
///   dtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           --work-dir <dir>
///   dtbench --selftest --work-dir <dir>
///
/// The last stdout line of a workload run is one JSON object: the
/// ledger and every value measured, by metric name (`--trace 1` adds
/// the per-layer values). run.py turns it into the result with the
/// metrics and units of BENCHMARK.json. The exit code is non-zero when
/// any answer or invariant check failed. README.md describes the
/// workloads and metrics.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dedup/streaming.h"
#include "harness.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/server.h"
#include "storage/codec.h"
#include "wire.h"
#include "workloads.h"

namespace dtb {
namespace {

using namespace dt;
namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string work_dir;
};

/// Classes whose requests return every match (no limit), so the
/// planner's row estimate can be held against what came back.
bool Unlimited(Cls c) { return c != kOrdered && c != kPageBounded; }

// ---- small helpers -----------------------------------------------------

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::string EntitiesBytes(const std::vector<dedup::CompositeEntity>& es) {
  std::string out;
  for (const auto& e : es) {
    (void)storage::EncodeDocValue(dedup::CompositeEntityToDoc(e), &out);
  }
  return out;
}

double PerSecond(double n, double s) { return s > 0 ? n / s : 0; }

/// Trace ids of the replayed requests (the wire phases count from 1).
constexpr uint64_t kReplayTrace = 1'000'000'000;

server::ServerOptions ServerOpts() {
  server::ServerOptions o;
  o.num_workers = kServerWorkers;
  return o;
}

/// A started server over `tamer`: read-only unless `writable`.
std::unique_ptr<server::DtServer> StartServer(fusion::DataTamer* tamer,
                                              bool writable) {
  auto srv = writable ? std::make_unique<server::DtServer>(tamer, ServerOpts())
                      : std::make_unique<server::DtServer>(
                            static_cast<const fusion::DataTamer*>(tamer),
                            ServerOpts());
  Status st = srv->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "dtbench: server start: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return srv;
}

/// One cheap round trip: the moment the server answers.
bool FirstAnswer(uint16_t port) {
  auto c = server::DtClient::Connect("127.0.0.1", port);
  if (!c.ok()) return false;
  query::QueryRequest r;
  r.op = query::QueryOp::kFind;
  r.collection = "entity";
  r.predicate = query::Predicate::Eq("name", storage::DocValue::Str("Matilda"));
  r.limit = 1;
  return (*c)->Call(r).ok();
}

/// Summarizes and prints one latency sample.
Summary Latency(const char* what, const std::vector<double>& ms) {
  const Summary s = Summarize(ms);
  std::printf("  %-20s p50 %.4f ms, tail p%.3f %.4f ms (mean of %zu "
              "windows of ~%zu samples; %zu samples)\n",
              what, s.p50, s.tail.percentile, s.tail.value, s.windows,
              s.tail.samples, ms.size());
  return s;
}

/// Per-class samples of the in-process replay.
struct ClassLayers {
  std::vector<double> execute_us, plan_us, exec_us, est_error;
  double entries_counted = 0, index_entries = 0, docs = 0, results = 0;
  int n = 0;
};

// ---- the run -------------------------------------------------------------

class Runner {
 public:
  Runner(const Args& a, const WorkloadConfig& w)
      : a_(a), w_(w), tracer_(false) {}

  int Run();

 private:
  bool Setup();
  bool ReadPhases();
  bool Replay();
  /// The requests a traced run replays: the workload's pool, then the
  /// other pool.
  std::vector<const WireOp*> ReplayOps() const;
  bool LayerReplay();
  /// Options of the stream's durable facade. ingest_mixed syncs in
  /// groups; the write probe only appends (kAsync): fsync latency on a
  /// shared disk swung the probe's ingest rate twofold between runs,
  /// while its reads-only workload changed by a few percent.
  fusion::DataTamerOptions Durable(const std::string& dir) const {
    return FacadeOptions(dir, w_.mixed ? storage::Durability::kGroup
                                       : storage::Durability::kAsync);
  }
  /// A durable facade over the fresh directory `dir`: the corpus
  /// snapshot loaded into it (ingest_mixed; `load_s` gets the load
  /// time), or empty (the write probe).
  std::unique_ptr<fusion::DataTamer> OpenDurable(const std::string& dir,
                                                 double* load_s = nullptr);
  PhaseResult Stream(uint16_t port, const Pool& reads);
  bool WriteSide();
  bool StreamRep(int rep);
  bool StreamReplays();
  bool SnapshotLoad();
  void PrintContext();
  int Finish(bool usable);
  /// One stream's value of a metric reported as the median over streams.
  void AddStreamValue(const std::string& name, double v) {
    per_stream_[name].push_back(v);
  }
  /// One timing of work that every repetition repeats exactly (a cold
  /// reopen of the same directory), reported as the run's fastest: on
  /// a shared host such work runs in one of two speeds ~1.5x apart for
  /// seconds at a time, and only interference makes it slower.
  void AddRepeatTiming(const std::string& name, double s) {
    auto [it, fresh] = fastest_.try_emplace(name, s);
    if (!fresh) it->second = std::min(it->second, s);
  }

  const Args& a_;
  const WorkloadConfig& w_;
  Ledger ledger_;
  Tracer tracer_;
  /// Every value measured, by metric name. BENCHMARK.json names the
  /// metrics each mode reports and their units; run.py picks them out
  /// and fails the run when one is missing.
  std::map<std::string, double> report_;
  std::map<std::string, std::vector<double>> per_stream_;
  std::map<std::string, double> fastest_;
  std::string work_;

  Corpus corpus_;
  PoolSpec read_spec_;
  Pool reads_;
  Pool others_;  // the other pool's classes, replayed in traced runs
  std::vector<dedup::DedupRecord> records_;
  std::vector<WireOp> batches_;  // the records as kIngest requests
  std::string batch_entities_;   // batch Consolidate over records_

  std::unique_ptr<fusion::DataTamer> tamer_;  // serves the read phases
  std::unique_ptr<server::DtServer> server_;
  uint64_t rejected_ = 0;
  int64_t entity_docs_ = 0;

  std::vector<double> rtt_us_;  // wire replay, by op (reads_ then others_)
};

std::unique_ptr<fusion::DataTamer> Runner::OpenDurable(const std::string& dir,
                                                       double* load_s) {
  fs::remove_all(dir);
  auto opened = fusion::DataTamer::Open(Durable(dir));
  Status st = opened.status();
  if (st.ok() && w_.mixed) {
    const int64_t t = NowNs();
    st = (*opened)->LoadSnapshot(work_ + "/corpus.snap");
    if (load_s != nullptr) *load_s = SecondsSince(t);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "dtbench: open %s: %s\n", dir.c_str(),
                 st.ToString().c_str());
    return nullptr;
  }
  return std::move(*opened);
}

bool Runner::Setup() {
  corpus_ = GenerateCorpus(a_.seed, w_.fragments, w_.sources);
  read_spec_ = w_.analytics_reads ? MakeAnalyticsPool(a_.seed)
                                  : MakeLookupPool(a_.seed, corpus_.gazetteer);
  records_ = MakeRecordStream(a_.seed, kStreamRecords);
  batches_ = IngestBatches(records_);

  CorpusTimes times;
  if (w_.mixed) {
    fusion::DataTamer build(FacadeOptions(""));
    Status st = IngestCorpus(corpus_, &build, &times);
    if (st.ok()) st = build.SaveSnapshot(work_ + "/corpus.snap");
    if (!st.ok()) {
      std::fprintf(stderr, "dtbench: corpus: %s\n", st.ToString().c_str());
      return false;
    }
  }
  // Set-up is timed from an empty process state to the first answer:
  // ingest and index the corpus (lookup, analytics), or open a durable
  // directory and load the corpus snapshot into it (ingest_mixed).
  std::vector<double> setup_s, load_s;
  const int reps = a_.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    tamer_.reset();
    const int64_t t0 = NowNs();
    if (w_.mixed) {
      load_s.push_back(0);
      tamer_ = OpenDurable(work_ + "/setup" + std::to_string(rep),
                           &load_s.back());
      if (tamer_ == nullptr) return false;
    } else {
      tamer_ = std::make_unique<fusion::DataTamer>(FacadeOptions(""));
      Status st = IngestCorpus(corpus_, tamer_.get(), &times);
      if (!st.ok()) {
        std::fprintf(stderr, "dtbench: setup: %s\n", st.ToString().c_str());
        return false;
      }
    }
    auto srv = StartServer(tamer_.get(), w_.mixed);
    if (srv == nullptr || !FirstAnswer(srv->port())) return false;
    setup_s.push_back(SecondsSince(t0));
  }
  report_["setup_s"] = Median(setup_s);
  report_["setup.text_ingest_s"] = times.text_ingest_s;
  report_["setup.index_build_s"] = times.index_build_s;
  report_["setup.structured_ingest_s"] = times.structured_ingest_s;
  if (w_.mixed) report_["snapshot.load_s"] = Median(load_s);
  entity_docs_ = tamer_->entity_collection()->count();

  Status st = Materialize(read_spec_, *tamer_, &reads_, &ledger_);
  if (st.ok() && a_.trace) {
    PoolSpec other = w_.analytics_reads
                         ? MakeLookupPool(a_.seed, corpus_.gazetteer)
                         : MakeAnalyticsPool(a_.seed);
    st = Materialize(other, *tamer_, &others_, &ledger_);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "dtbench: pool: %s\n", st.ToString().c_str());
    return false;
  }
  auto batch =
      dedup::Consolidate(records_, FacadeOptions("").consolidation_options);
  if (!batch.ok()) {
    std::fprintf(stderr, "dtbench: batch consolidation: %s\n",
                 batch.status().ToString().c_str());
    return false;
  }
  batch_entities_ = EntitiesBytes(*batch);
  server_ = StartServer(tamer_.get(), w_.mixed);
  return server_ != nullptr;
}

bool Runner::ReadPhases() {
  const uint16_t port = server_->port();
  PhaseSpec sat;
  sat.conns = kSaturationConns;
  sat.pass_len = reads_.pass.size();
  sat.reads = &reads_.ops;
  sat.sequence = &reads_.pass;

  // Saturation throughput: the median over whole passes of the pool,
  // so every block carries the same request mix.
  PhaseResult last;
  auto saturate = [&](int conns, double seconds) {
    sat.conns = conns;
    sat.seconds = seconds;
    last = RunPhase(port, sat, &ledger_, &tracer_);
    return MedianRate(last.read_done_s, sat.pass_len);
  };
  // Warm-up, not measured: the first second of traffic after set-up
  // runs measurably slower (allocator arenas, page faults, caches).
  saturate(kSaturationConns, 0.1 * a_.seconds);
  if (!a_.trace) {
    const double qps = saturate(kSaturationConns, 0.9 * a_.seconds);
    report_["read_qps"] = qps;
    std::printf("  saturation: %.1f reads/s on %d connections\n", qps,
                kSaturationConns);
    // Read latency: lookup and analytics time the saturation phase's
    // requests from their send; ingest_mixed times its fixed-rate reads
    // beside the streams from their due time (StreamRep). (A fixed-rate
    // open loop against an otherwise idle server read 0.4 to 0.7 ms at
    // the median from one run to the next on a shared 4-core host: the
    // wake-ups of sleeping virtual CPUs, not the server's work, set it.)
    if (!w_.mixed) {
      const Summary reads = Latency("closed-loop reads", last.read_ms);
      if (!reads.tail.ok) {
        std::fprintf(stderr, "dtbench: too few reads for a tail\n");
        return false;
      }
      report_["read_p50_ms"] = reads.p50;
      report_["read_tail_ms"] = reads.tail.value;
    }
  } else {
    // Throughput with spans off and on (the tracing overhead) and on
    // one connection (how far four connections scale).
    const double q4 = saturate(kSaturationConns, 0.2 * a_.seconds);
    tracer_.set_enabled(true);
    const double q4t = saturate(kSaturationConns, 0.2 * a_.seconds);
    tracer_.set_enabled(false);
    const double q1 = saturate(1, 0.2 * a_.seconds);
    report_["trace.overhead_frac"] = q4 > 0 ? 1 - q4t / q4 : 0;
    report_["server.conn_scaling"] = q1 > 0 ? q4 / q1 : 0;
    std::printf("  saturation: %.1f reads/s on 4 connections, %.1f traced, "
                "%.1f on 1\n", q4, q4t, q1);
    // From here on a traced run records every span.
    tracer_.set_enabled(true);
    if (!Replay()) return false;
  }
  rejected_ += server_->stats().requests_rejected;
  server_->Stop();
  server_.reset();
  return true;
}

/// The ingest stream over the wire, beside fixed-rate reads from
/// `reads` on their own connections; traced runs record its spans.
PhaseResult Runner::Stream(uint16_t port, const Pool& reads) {
  PhaseSpec spec;
  spec.open_loop = true;
  spec.conns = kStreamReadConns;
  spec.rate = kStreamReadRate;
  spec.reads = &reads.ops;
  spec.sequence = &reads.pass;
  spec.ingest = &batches_;
  PhaseResult r = RunPhase(port, spec, &ledger_, &tracer_);
  AddStreamValue("harness.gen_late_tail_ms",
                 Latency("generator lateness", r.late_ms).tail.value);
  return r;
}

/// Traced only: every pooled request once over one connection, then
/// (with the server stopped) once through the public call of each
/// layer it crosses on the server: frame decode, `DataTamer::Execute`,
/// frame encode, plus the client's codec.
bool Runner::Replay() {
  auto client = server::DtClient::Connect("127.0.0.1", server_->port());
  if (!client.ok()) return false;
  const std::vector<const WireOp*> ops = ReplayOps();
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t t = NowNs();
    int span = tracer_.Begin(kReplayTrace + i, "server.rtt");
    auto resp = (*client)->Call(ops[i]->req);
    tracer_.End(span);
    rtt_us_.push_back(static_cast<double>(NowNs() - t) / 1e3);
    ledger_.Attempt();
    if (!resp.ok()) {
      ledger_.Failed("replay: " + resp.status().ToString());
    } else if (AnswerBytes(std::move(*resp)) != ops[i]->expected) {
      ledger_.Mismatch("replayed wire answer differs from in-process answer");
    }
  }
  return true;
}

std::vector<const WireOp*> Runner::ReplayOps() const {
  std::vector<const WireOp*> ops;
  for (const auto& op : reads_.ops) ops.push_back(&op);
  for (const auto& op : others_.ops) ops.push_back(&op);
  return ops;
}

bool Runner::LayerReplay() {
  const std::vector<const WireOp*> ops = ReplayOps();
  ClassLayers layers[kNumClasses];
  std::vector<double> req_enc, req_dec, resp_enc, resp_dec, unattributed;
  double resp_bytes = 0;
  // Unbounded page chains: the first page's estimate against the
  // chain's total.
  int64_t chain_est = 0, chain_total = 0;
  auto close_chain = [&](ClassLayers* c) {
    if (chain_total > 0 || chain_est > 0) {
      c->est_error.push_back(
          std::abs(static_cast<double>(chain_est - chain_total)) /
          static_cast<double>(std::max<int64_t>(1, chain_total)));
    }
    chain_est = chain_total = 0;
  };
  auto us = [](int64_t from) {
    return static_cast<double>(NowNs() - from) / 1e3;
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    const WireOp& op = *ops[i];
    const uint64_t trace = kReplayTrace + i;
    ScopedSpan root(&tracer_, trace, "harness.replay");
    server::RequestEnvelope env;
    env.id = i + 1;
    env.request = op.req;
    std::string frame, rframe;
    storage::DocValue payload;
    size_t used = 0;

    int64_t t = NowNs();
    int s = tracer_.Begin(trace, "frame.req_encode", root.id());
    Status st = server::EncodeFrame(server::EncodeRequestEnvelope(env),
                                    server::kDefaultMaxFrameSize, &frame);
    tracer_.End(s);
    const double enc_us = us(t);

    t = NowNs();
    s = tracer_.Begin(trace, "frame.req_decode", root.id());
    if (st.ok()) {
      st = server::TryDecodeFrame(frame, server::kDefaultMaxFrameSize,
                                  &payload, &used);
    }
    auto decoded = server::DecodeRequestEnvelope(payload);
    tracer_.End(s);
    const double dec_us = us(t);
    if (!st.ok() || !decoded.ok()) {
      ledger_.Mismatch("request frame did not round-trip");
      continue;
    }

    t = NowNs();
    s = tracer_.Begin(trace, "fusion.execute", root.id());
    auto resp = tamer_->Execute(decoded->request);
    tracer_.End(s);
    const double exec_us = us(t);
    ledger_.Attempt();
    if (!resp.ok()) {
      ledger_.Failed("execute: " + resp.status().ToString());
      continue;
    }
    const query::ExecStats stats = resp->stats;
    const size_t results = resp->ids.size() + resp->groups.size();

    server::ResponseEnvelope out;
    out.id = env.id;
    out.response = std::move(*resp);
    t = NowNs();
    s = tracer_.Begin(trace, "frame.resp_encode", root.id());
    st = server::EncodeFrame(server::EncodeResponseEnvelope(out),
                             server::kDefaultMaxFrameSize, &rframe);
    tracer_.End(s);
    const double renc_us = us(t);

    t = NowNs();
    s = tracer_.Begin(trace, "frame.resp_decode", root.id());
    if (st.ok()) {
      st = server::TryDecodeFrame(rframe, server::kDefaultMaxFrameSize,
                                  &payload, &used);
    }
    auto back = server::DecodeResponseEnvelope(payload);
    tracer_.End(s);
    const double rdec_us = us(t);
    if (!st.ok() || !back.ok() ||
        AnswerBytes(std::move(back->response)) != op.expected) {
      ledger_.Mismatch("in-process answer differs from the pooled answer");
      continue;
    }

    ClassLayers& c = layers[op.cls];
    const double plan_us = static_cast<double>(stats.planning_ns) / 1e3;
    c.execute_us.push_back(exec_us);
    c.plan_us.push_back(plan_us);
    c.exec_us.push_back(exec_us - plan_us);
    c.entries_counted += static_cast<double>(stats.plan_entries_counted);
    c.index_entries += static_cast<double>(stats.index_entries_examined);
    c.docs += static_cast<double>(stats.docs_examined);
    c.results += static_cast<double>(results);
    ++c.n;
    if (op.cls == kPageUnbounded) {
      if (op.req.resume_token.empty()) {
        close_chain(&c);
        chain_est = stats.estimated_rows;
      }
      chain_total += static_cast<int64_t>(results);
    } else if (Unlimited(static_cast<Cls>(op.cls))) {
      c.est_error.push_back(
          std::abs(static_cast<double>(stats.estimated_rows -
                                       stats.docs_returned)) /
          static_cast<double>(std::max<int64_t>(1, stats.docs_returned)));
    }
    if (i < reads_.ops.size()) {
      // The workload's own read classes set the frame and server
      // numbers; the other pool only fills in the class breakdown.
      req_enc.push_back(enc_us);
      req_dec.push_back(dec_us);
      resp_enc.push_back(renc_us);
      resp_dec.push_back(rdec_us);
      resp_bytes += static_cast<double>(rframe.size());
      unattributed.push_back(rtt_us_[i] -
                             (enc_us + dec_us + exec_us + renc_us + rdec_us));
    }
  }
  close_chain(&layers[kPageUnbounded]);

  for (int k = 0; k < kNumClasses; ++k) {
    const ClassLayers& c = layers[k];
    const std::string cls = kClassNames[k];
    if (c.n == 0) {
      std::fprintf(stderr, "dtbench: class %s was not replayed\n",
                   cls.c_str());
      return false;
    }
    const double results = std::max(1.0, c.results);
    report_["fusion.execute_us." + cls] = Median(c.execute_us);
    report_["planner.plan_us." + cls] = Median(c.plan_us);
    report_["planner.entries_counted." + cls] = c.entries_counted / c.n;
    if (Unlimited(static_cast<Cls>(k))) {
      report_["planner.est_error." + cls] = Median(c.est_error);
    }
    report_["executor.exec_us." + cls] = Median(c.exec_us);
    report_["executor.entries_per_result." + cls] = c.index_entries / results;
    report_["executor.docs_per_result." + cls] = c.docs / results;
  }
  const size_t n = reads_.ops.size();
  report_["frame.req_encode_us"] = Median(req_enc);
  report_["frame.req_decode_us"] = Median(req_dec);
  report_["frame.resp_encode_us"] = Median(resp_enc);
  report_["frame.resp_decode_us"] = Median(resp_dec);
  report_["frame.resp_bytes"] = n > 0 ? resp_bytes / static_cast<double>(n) : 0;
  report_["server.rtt_1conn_us"] =
      Median(std::vector<double>(rtt_us_.begin(), rtt_us_.begin() + n));
  report_["server.unattributed_us"] = Median(unattributed);
  return true;
}

bool Runner::WriteSide() {
  // The read phases are over; each stream gets a facade of its own.
  tamer_.reset();
  const int reps = a_.trace ? 1 : kStreamReps;
  for (int rep = 0; rep < reps; ++rep) {
    if (!StreamRep(rep)) return false;
  }
  for (const auto& [name, values] : per_stream_) {
    report_[name] = Median(values);
  }
  for (const auto& [name, s] : fastest_) report_[name] = s;
  return true;
}

/// One stream into a fresh durable directory: the corpus snapshot
/// beside the fixed-rate lookups (ingest_mixed), or empty beside one
/// repeated cheap lookup (the write probe). Then its checks, a final
/// checkpoint and cold reopens.
bool Runner::StreamRep(int rep) {
  const std::string dir = work_ + "/stream" + std::to_string(rep);
  std::unique_ptr<fusion::DataTamer> writer = OpenDurable(dir);
  if (writer == nullptr) return false;
  Pool reads;
  if (w_.mixed) {
    // Answered by this facade: page tokens are bound to it.
    Status st = Materialize(read_spec_, *writer, &reads, &ledger_);
    if (!st.ok()) {
      std::fprintf(stderr, "dtbench: pool: %s\n", st.ToString().c_str());
      return false;
    }
  } else {
    reads.ops.resize(1);
    query::QueryRequest& req = reads.ops[0].req;
    req.op = query::QueryOp::kFind;
    req.collection = "entity";
    req.predicate =
        query::Predicate::Eq("name", storage::DocValue::Str("Matilda"));
    auto answer = writer->Execute(req);
    if (!answer.ok()) return false;
    reads.ops[0].expected = AnswerBytes(std::move(*answer));
    reads.pass = {0};
  }
  const uint64_t disk_base = DirBytes(dir);
  const storage::DurabilityStats d0 = writer->durability_stats();
  auto srv = StartServer(writer.get(), true);
  if (srv == nullptr) return false;
  const PhaseResult r = Stream(srv->port(), reads);
  rejected_ += srv->stats().requests_rejected;
  srv->Stop();
  srv.reset();

  const storage::DurabilityStats d1 = writer->durability_stats();
  const double n = static_cast<double>(records_.size());
  const auto checkpoints =
      static_cast<int64_t>(d1.checkpoints - d0.checkpoints);
  std::printf("  stream %d: %lld records acknowledged in %.3f s, %lld "
              "checkpoints during it\n",
              rep, static_cast<long long>(r.ingest_records), r.ingest_s,
              static_cast<long long>(checkpoints));
  if (r.ingest_records != static_cast<int64_t>(records_.size())) {
    ledger_.Failed("not every record was acknowledged");
  }
  if (w_.mixed && checkpoints < kMinStreamCheckpoints) {
    ledger_.Failed("only " + std::to_string(checkpoints) +
                   " checkpoints ran during the stream");
  }
  AddStreamValue("ingest_rps", PerSecond(r.ingest_records, r.ingest_s));
  const Summary acks = Latency("ingest acks", r.ack_ms);
  AddStreamValue("ingest_ack_p50_ms", acks.p50);
  AddStreamValue("ingest_ack_tail_ms", acks.tail.value);
  if (w_.mixed) {
    const Summary lat = Latency("open-loop reads", r.read_ms);
    if (!lat.tail.ok) {
      std::fprintf(stderr, "dtbench: too few reads for a tail\n");
      return false;
    }
    AddStreamValue("read_p50_ms", lat.p50);
    AddStreamValue("read_tail_ms", lat.tail.value);
  }
  AddStreamValue("wal.appends_per_record",
                 static_cast<double>(d1.wal_appends - d0.wal_appends) / n);
  AddStreamValue("wal.syncs_per_record",
                 static_cast<double>(d1.wal_syncs - d0.wal_syncs) / n);
  AddStreamValue("wal.group_batch_frac",
                 d1.wal_syncs > d0.wal_syncs
                     ? static_cast<double>(d1.wal_group_batches -
                                           d0.wal_group_batches) /
                           static_cast<double>(d1.wal_syncs - d0.wal_syncs)
                     : 0);
  AddStreamValue("wal.bytes_per_record",
                 static_cast<double>(d1.wal_bytes - d0.wal_bytes) / n);
  AddStreamValue("checkpoint.count", static_cast<double>(checkpoints));

  // Fold the stream into a checkpoint, then check the entity set.
  {
    const int64_t t = NowNs();
    int span = tracer_.Begin(0, "checkpoint.final");
    Status st = writer->Checkpoint();
    tracer_.End(span);
    AddStreamValue("checkpoint.ms", static_cast<double>(NowNs() - t) / 1e6);
    if (!st.ok()) ledger_.Failed("checkpoint: " + st.ToString());
  }
  const double input_bytes = static_cast<double>(StreamBytes(records_).size());
  AddStreamValue("disk_bytes_per_input_byte",
                 static_cast<double>(DirBytes(dir) - disk_base) / input_bytes);
  auto streamed = writer->IngestedEntities();
  if (!streamed.ok()) {
    ledger_.Mismatch("entity set unavailable after the stream");
    return false;
  }
  const std::string before = EntitiesBytes(*streamed);
  if (before != batch_entities_) {
    ledger_.Mismatch("streamed entities differ from batch Consolidate");
  }
  writer.reset();

  // Cold reopens: recover the directory, then answer the first query
  // over the recovered entity set (which re-seeds the streaming
  // consolidator from the record log).
  std::string each;
  for (int k = 0; k < kReopensPerStream; ++k) {
    const int64_t t0 = NowNs();
    int span = tracer_.Begin(0, "recovery.open");
    auto opened = fusion::DataTamer::Open(Durable(dir));
    tracer_.End(span);
    if (!opened.ok()) {
      ledger_.Mismatch("reopen failed: " + opened.status().ToString());
      return false;
    }
    fusion::DataTamer& reopened = **opened;
    const double open_s = SecondsSince(t0);
    const int64_t t1 = NowNs();
    span = tracer_.Begin(0, "recovery.reseed");
    auto recovered = reopened.IngestedEntities();
    tracer_.End(span);
    AddRepeatTiming("recovery.open_s", open_s);
    AddRepeatTiming("recovery.reseed_s", SecondsSince(t1));
    AddRepeatTiming("recovery_s", SecondsSince(t0));
    each += " " + std::to_string(SecondsSince(t0));
    if (!recovered.ok() || EntitiesBytes(*recovered) != before) {
      ledger_.Mismatch("entity set changed across the reopen");
      continue;
    }
    std::set<int64_t> present;
    for (const auto& e : *recovered) {
      present.insert(e.member_record_ids.begin(), e.member_record_ids.end());
    }
    for (int b : r.acked) {
      const WireOp& batch = batches_[static_cast<size_t>(b)];
      for (const auto& rec : batch.req.ingest_records) {
        if (present.count(rec.id) == 0) {
          ledger_.Mismatch("acknowledged record " + std::to_string(rec.id) +
                           " missing after reopen");
        }
      }
    }
    // The point lookups the stream's reads sent answer as before.
    for (const WireOp& op : reads.ops) {
      if (op.req.op != query::QueryOp::kFind) continue;
      auto again = reopened.Execute(op.req);
      if (!again.ok() || AnswerBytes(std::move(*again)) != op.expected) {
        ledger_.Mismatch("entity lookup differs after reopen");
        break;
      }
    }
  }
  std::printf("  reopens:%s s\n", each.c_str());
  fs::remove_all(dir);
  return true;
}

/// Traced only: the stream once more through each layer in process:
/// an in-memory facade, a durable facade (their difference is the
/// WAL's share), and a bare `StreamingConsolidator`.
bool Runner::StreamReplays() {
  const double n = static_cast<double>(records_.size());
  // The same batches the wire stream sent, timed.
  auto feed = [&](fusion::DataTamer* t, const char* span) {
    const int64_t start = NowNs();
    for (size_t i = 0; i < batches_.size(); ++i) {
      ScopedSpan s(&tracer_, i, span);
      if (!t->IngestRecords(batches_[i].req.ingest_records).ok()) {
        ledger_.Failed(std::string("replayed ") + span);
      }
    }
    return SecondsSince(start);
  };
  fusion::DataTamer mem(FacadeOptions(""));
  const double mem_s = feed(&mem, "fusion.ingest_records");
  report_["fusion.ingest_us_per_record"] = mem_s * 1e6 / n;
  report_["fusion.upserts_per_record"] =
      static_cast<double>(mem.ingest_stats().clusters_upserted) / n;
  {
    const std::string dir = work_ + "/replay";
    auto opened = fusion::DataTamer::Open(Durable(dir));
    if (!opened.ok()) return false;
    const double durable_s =
        feed(opened->get(), "fusion.durable_ingest_records");
    opened->reset();
    fs::remove_all(dir);
    report_["wal.us_per_record"] = (durable_s - mem_s) * 1e6 / n;
  }
  dedup::StreamingConsolidator sc(FacadeOptions("").consolidation_options);
  const int64_t start = NowNs();
  for (size_t i = 0; i < records_.size(); ++i) {
    ScopedSpan s(&tracer_, i, "dedup.ingest");
    if (!sc.Ingest(records_[i]).ok()) ledger_.Failed("consolidator ingest");
  }
  report_["dedup.ingest_us_per_record"] = SecondsSince(start) * 1e6 / n;
  const dedup::StreamingStats& st = sc.stats();
  report_["dedup.pairs_per_record"] = static_cast<double>(st.pairs_scored) / n;
  // Matches still live at the end over every pair scored.
  report_["dedup.match_frac"] =
      st.pairs_scored > 0 ? static_cast<double>(st.pairs_matched) /
                                static_cast<double>(st.pairs_scored)
                          : 0;
  report_["dedup.rebuilds"] = static_cast<double>(st.rebuilds);
  report_["dedup.retractions"] = static_cast<double>(st.retracted_matches);
  return true;
}

/// Traced lookup/analytics only: the corpus through a snapshot file
/// into a fresh facade (ingest_mixed measures this in its set-up).
bool Runner::SnapshotLoad() {
  const std::string snap = work_ + "/corpus.snap";
  if (!tamer_->SaveSnapshot(snap).ok()) return false;
  tamer_.reset();
  fusion::DataTamer loaded(FacadeOptions(""));
  const int64_t t = NowNs();
  int span = tracer_.Begin(0, "snapshot.load");
  Status st = loaded.LoadSnapshot(snap);
  tracer_.End(span);
  report_["snapshot.load_s"] = SecondsSince(t);
  if (!st.ok() || loaded.entity_collection()->count() != entity_docs_) {
    ledger_.Mismatch("snapshot reload lost documents");
  }
  return true;
}

void Runner::PrintContext() {
  std::printf(
      "context: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"corpus_fragments\": %lld, "
      "\"corpus_sources\": %d, \"entity_docs\": %lld, "
      "\"stream_records\": %lld, \"ingest_batch\": %zu, "
      "\"durability\": \"%s\", \"checkpoint_wal_bytes\": %llu, "
      "\"block_cap\": %d, \"server_workers\": %d, "
      "\"saturation_conns\": %d, \"stream_read_conns\": %d, "
      "\"stream_read_rate_per_s\": %g, \"setup_reps\": %d, "
      "\"stream_reps\": %d, \"reopens_per_stream\": %d}\n",
      w_.name, static_cast<unsigned long long>(a_.seed), a_.seconds,
      a_.trace ? 1 : 0, std::thread::hardware_concurrency(), DTB_BUILD_TYPE,
      DTB_COMPILER, static_cast<long long>(w_.fragments), w_.sources,
      static_cast<long long>(entity_docs_),
      static_cast<long long>(kStreamRecords), kIngestBatch,
      storage::DurabilityName(Durable(work_).durability.durability),
      static_cast<unsigned long long>(kCheckpointWalBytes), kBlockCap,
      kServerWorkers, kSaturationConns, kStreamReadConns, kStreamReadRate,
      a_.trace ? 1 : kSetupReps, a_.trace ? 1 : kStreamReps,
      kReopensPerStream);
}

int Runner::Run() {
  work_ = a_.work_dir + "/tmp-" + w_.name + "-" + std::to_string(a_.seed) +
          "-" + std::to_string(getpid());
  fs::remove_all(work_);
  fs::create_directories(work_);
  tracer_.set_enabled(false);
  bool ok = Setup() && ReadPhases();
  if (ok && a_.trace) ok = LayerReplay() && (w_.mixed || SnapshotLoad());
  ok = ok && WriteSide();
  if (ok && a_.trace) ok = StreamReplays();
  server_.reset();
  tamer_.reset();
  fs::remove_all(work_);
  return Finish(ok);
}

int Runner::Finish(bool usable) {
  PrintContext();
  report_["peak_rss_mb"] = PeakRssMb();
  report_["server.rejected"] = static_cast<double>(rejected_);
  std::printf("  attempted %lld, failed %lld (failed_frac %.6f), correct %s\n",
              static_cast<long long>(ledger_.attempted()),
              static_cast<long long>(ledger_.failed()),
              ledger_.attempted() > 0
                  ? static_cast<double>(ledger_.failed()) /
                        static_cast<double>(ledger_.attempted())
                  : 0.0,
              ledger_.correct() ? "yes" : "NO");
  if (!usable) {
    std::fprintf(stderr, "dtbench: the run could not complete\n");
    return 2;
  }
  for (const auto& [name, v] : report_) {
    if (!ValidMetricName(name)) {
      std::fprintf(stderr, "dtbench: bad metric name %s\n", name.c_str());
      return 2;
    }
  }
  if (a_.trace) {
    std::printf("  self time by layer (s):");
    for (const auto& [layer, s] : tracer_.SelfSecondsByLayer()) {
      std::printf(" %s=%.4f", layer.c_str(), s);
    }
    std::printf("\n");
    const std::string path = a_.work_dir + "/trace-" + w_.name + "-" +
                             std::to_string(a_.seed) + ".json";
    if (!tracer_.WriteJson(path)) return 2;
    std::printf("  %zu spans written to %s\n", tracer_.spans().size(),
                path.c_str());
  }
  // run.py turns this line into the result: it picks the mode's
  // metrics out of `values` and gives them their units.
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"values\": %s}\n",
              ledger_.correct() ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, ledger_.attempted())),
              static_cast<long long>(ledger_.failed()),
              ValuesJson(report_).c_str());
  std::fflush(stdout);
  return ledger_.correct() ? 0 : 1;
}

// ---- self-tests ----------------------------------------------------------

int g_selftest_failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++g_selftest_failures;
  }
}

void TestTailRule() {
  for (size_t n : {1, 10, 11, 12, 57, 1000, 4321}) {
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    const Tail t = TailOf(v);
    const std::string tag = "tail rule, n=" + std::to_string(n);
    if (n <= kTailBeyond) {
      Expect(!t.ok, tag + ": no tail below 11 samples");
      continue;
    }
    auto beyond = [&](double x) {
      return std::count_if(v.begin(), v.end(), [&](double s) { return s > x; });
    };
    Expect(t.ok && beyond(t.value) == 10, tag + ": exactly 10 samples beyond");
    Expect(beyond(t.value + 1) < 10, tag + ": the highest such percentile");
    Expect(std::abs(t.percentile - 100.0 * static_cast<double>(n - 10) /
                                       static_cast<double>(n)) < 1e-9,
           tag + ": percentile");
    Expect(t.samples == n, tag + ": sample count");
  }
}

/// The names themselves live in BENCHMARK.json, which run.py checks
/// against the same rule; a run refuses to print a name outside it.
void TestMetricNameRule() {
  for (const char* good : {"setup_s", "read_p50_ms", "1m", "a-b",
                           "executor.entries_per_result.page_unbounded"}) {
    Expect(ValidMetricName(good), std::string("valid metric name ") + good);
  }
  for (const std::string& bad : {std::string(), std::string("a b"),
                                 std::string("x/y"), std::string("q\""),
                                 std::string(65, 'a')}) {
    Expect(!ValidMetricName(bad), "invalid metric name '" + bad + "'");
  }
}

void TestSeedDeterminism() {
  Corpus a = GenerateCorpus(7, 200, 2), b = GenerateCorpus(7, 200, 2),
         c = GenerateCorpus(8, 200, 2);
  auto text = [](const Corpus& k) {
    std::string s;
    for (const auto& f : k.fragments) s += f.text + "\n";
    return s;
  };
  Expect(text(a) == text(b), "same seed, same corpus");
  Expect(text(a) != text(c), "another seed, another corpus");
  const std::string la = SpecBytes(MakeLookupPool(7, a.gazetteer));
  Expect(la == SpecBytes(MakeLookupPool(7, b.gazetteer)),
         "same seed, same lookup requests");
  Expect(la != SpecBytes(MakeLookupPool(8, c.gazetteer)),
         "another seed, other lookup requests");
  const std::string aa = SpecBytes(MakeAnalyticsPool(7));
  Expect(aa == SpecBytes(MakeAnalyticsPool(7)),
         "same seed, same analytics requests");
  Expect(aa != SpecBytes(MakeAnalyticsPool(8)),
         "another seed, other analytics requests");
  const std::string ra = StreamBytes(MakeRecordStream(7, 500));
  Expect(ra == StreamBytes(MakeRecordStream(7, 500)),
         "same seed, same record stream");
  Expect(ra != StreamBytes(MakeRecordStream(8, 500)),
         "another seed, another record stream");
}

/// The open loop must time each request from when it was due: stall the
/// generator for 30 ms after its first send, and every request due in
/// that window must report at least the time it waited to leave.
void TestOpenLoopFromDue() {
  Corpus corpus = GenerateCorpus(7, 200, 2);
  fusion::DataTamer tamer(FacadeOptions(""));
  CorpusTimes times;
  Ledger setup;
  Pool pool;
  Expect(IngestCorpus(corpus, &tamer, &times).ok() &&
             Materialize(MakeLookupPool(7, corpus.gazetteer), tamer, &pool,
                         &setup)
                 .ok() &&
             setup.correct(),
         "open-loop test set-up");
  auto srv = StartServer(&tamer, false);
  Expect(srv != nullptr, "open-loop test server");
  if (srv == nullptr) return;
  PhaseSpec spec;
  spec.open_loop = true;
  spec.conns = 1;
  spec.rate = 1000;
  spec.seconds = 0.1;
  spec.reads = &pool.ops;
  spec.sequence = &pool.pass;
  spec.pause_after_first_send_ms = 30;
  Ledger ledger;
  Tracer tracer(false);
  PhaseResult r = RunPhase(srv->port(), spec, &ledger, &tracer);
  Expect(ledger.failed() == 0 && ledger.correct(), "open-loop answers");
  Expect(r.reads_done == 100 && r.read_due_ms.size() == 100,
         "open-loop schedule sends rate x seconds requests");
  bool from_due = true;
  for (size_t i = 0; i < r.read_ms.size() && i < r.read_due_ms.size(); ++i) {
    if (r.read_due_ms[i] < 25) {
      from_due &= r.read_ms[i] >= 30 - r.read_due_ms[i] - 1.0;
    }
  }
  Expect(from_due, "open-loop latency counts the wait since the due time");
  Expect(!r.late_ms.empty() &&
             *std::max_element(r.late_ms.begin(), r.late_ms.end()) >= 25,
         "generator lateness is recorded");
}

int SelfTest() {
  TestTailRule();
  TestMetricNameRule();
  TestSeedDeterminism();
  TestOpenLoopFromDue();
  std::printf("selftest: %s\n", g_selftest_failures == 0 ? "ok" : "FAILED");
  return g_selftest_failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a->trace = v == "1";
      if (v != "0" && v != "1") return false;
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0);
}

}  // namespace
}  // namespace dtb

int main(int argc, char** argv) {
  dtb::Args args;
  if (!dtb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dtbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n"
                 "       dtbench --selftest\n");
    return 2;
  }
  if (args.selftest) return dtb::SelfTest();
  const dtb::WorkloadConfig* w = dtb::FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "dtbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.work_dir.empty()) args.work_dir = ".";
  return dtb::Runner(args, *w).Run();
}
