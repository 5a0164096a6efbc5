/// Loopback integration tests for the serving layer (`server` ctest
/// label; runs in the sanitizer and TSan CI lanes): multi-threaded
/// clients paging queries over real sockets with results identical to
/// the in-process API, token tampering / plan drift / server-restart
/// staleness rejected cleanly over the wire, deterministic overload
/// answered with kUnavailable (never a hang, never a silent drop),
/// corrupt frames and bad envelopes handled per protocol contract, and
/// idle/session-cap housekeeping.

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "datagen/webtext_gen.h"
#include "fusion/data_tamer.h"
#include "query/predicate.h"
#include "query/request.h"
#include "server/client.h"
#include "server/frame.h"
#include "storage/docvalue.h"
#include "test_files.h"

namespace dt::server {
namespace {

using query::Predicate;
using query::QueryOp;
using query::QueryRequest;
using storage::DocValue;

// One generated corpus shared by every test; each test ingests it into
// its own facade (ingestion is deterministic, so two facades built
// from it hold identical documents with identical ids).
struct Corpus {
  datagen::WebTextGenerator gen;
  textparse::Gazetteer gazetteer;
  std::vector<datagen::GeneratedFragment> fragments;

  Corpus() : gen(MakeOpts()) {
    gazetteer = gen.BuildGazetteer();
    fragments = gen.Generate();
  }

  static datagen::WebTextGenOptions MakeOpts() {
    datagen::WebTextGenOptions o;
    o.num_fragments = 200;
    return o;
  }

  void Ingest(fusion::DataTamer* tamer) const {
    tamer->SetGazetteer(&gazetteer);
    for (const auto& frag : fragments) {
      ASSERT_TRUE(
          tamer->IngestTextFragment(frag.text, frag.feed, frag.timestamp)
              .ok());
    }
    ASSERT_TRUE(tamer->CreateStandardIndexes().ok());
  }
};

const Corpus& SharedCorpus() {
  static const Corpus* corpus = new Corpus();
  return *corpus;
}

QueryRequest PageRequest(const std::string& type, int64_t page_size) {
  QueryRequest req;
  req.op = QueryOp::kFindPage;
  req.collection = "entity";
  req.predicate = Predicate::Eq("type", DocValue::Str(type));
  req.order_by = "name";
  req.page_size = page_size;
  return req;
}

// Walks a paged stream over the wire on its own fresh connections —
// the continuation token is the only state carried across pages.
Status WalkPages(uint16_t port, QueryRequest req,
                 std::vector<storage::DocId>* out) {
  while (true) {
    DT_ASSIGN_OR_RETURN(auto cli, DtClient::Connect("127.0.0.1", port));
    DT_ASSIGN_OR_RETURN(query::QueryResponse page, cli->Call(req));
    out->insert(out->end(), page.ids.begin(), page.ids.end());
    if (page.next_token.empty()) return Status::OK();
    req.resume_token = page.next_token;
  }
}

TEST(ServerIntegrationTest, ConcurrentClientsPageIdenticallyToInProcess) {
  const Corpus& corpus = SharedCorpus();
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer);

  // In-process baselines first (the facade is not thread-safe; the
  // server serializes access for its workers, the test serializes its
  // own direct use by finishing before the clients start).
  const std::vector<std::string> types = {"Movie", "Person", "Company",
                                          "City"};
  std::vector<std::vector<storage::DocId>> baselines;
  for (const auto& type : types) {
    QueryRequest req = PageRequest(type, /*page_size=*/-1);
    req.op = QueryOp::kFind;
    auto r = tamer.Execute(req);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_GT(r->ids.size(), 0u) << type;
    baselines.push_back(r->ids);
  }

  DtServer srv(&tamer);
  ASSERT_TRUE(srv.Start().ok());

  // One thread per entity type, each stitching its stream page by
  // page over fresh connections while the others hammer the server.
  std::vector<std::vector<storage::DocId>> stitched(types.size());
  std::vector<Status> verdicts(types.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < types.size(); ++i) {
    threads.emplace_back([&, i] {
      verdicts[i] = WalkPages(srv.port(), PageRequest(types[i], 7),
                              &stitched[i]);
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < types.size(); ++i) {
    ASSERT_TRUE(verdicts[i].ok()) << types[i] << ": "
                                  << verdicts[i].ToString();
    EXPECT_EQ(stitched[i], baselines[i]) << types[i];
  }
  EXPECT_GE(srv.stats().sessions_accepted, types.size());
  srv.Stop();
}

TEST(ServerIntegrationTest, TamperedStaleAndDriftedTokensRejected) {
  const Corpus& corpus = SharedCorpus();
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer);
  DtServer srv(&tamer);
  ASSERT_TRUE(srv.Start().ok());

  auto cli = DtClient::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(cli.ok());
  QueryRequest req = PageRequest("Movie", 5);
  auto first = (*cli)->Call(req);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->next_token.empty());

  // Tampered token: flip one byte.
  QueryRequest tampered = req;
  tampered.resume_token = first->next_token;
  tampered.resume_token[tampered.resume_token.size() / 2] ^= 0x20;
  auto r = (*cli)->Call(tampered);
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();

  // Plan drift: same token, different query shape.
  QueryRequest drifted = PageRequest("Person", 5);
  drifted.resume_token = first->next_token;
  r = (*cli)->Call(drifted);
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();

  // The session survived both rejections: the honest continuation
  // still works on this very connection.
  QueryRequest honest = req;
  honest.resume_token = first->next_token;
  r = (*cli)->Call(honest);
  EXPECT_TRUE(r.ok()) << r.status().ToString();

  // Server restart: a second facade over the same corpus is a new
  // incarnation, so tokens minted before the "restart" are stale.
  fusion::DataTamer reborn;
  corpus.Ingest(&reborn);
  DtServer srv2(&reborn);
  ASSERT_TRUE(srv2.Start().ok());
  auto cli2 = DtClient::Connect("127.0.0.1", srv2.port());
  ASSERT_TRUE(cli2.ok());
  r = (*cli2)->Call(honest);
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  // ... while a fresh stream on the new server stitches fine.
  std::vector<storage::DocId> stitched;
  ASSERT_TRUE(WalkPages(srv2.port(), PageRequest("Movie", 5), &stitched).ok());
  srv2.Stop();
  srv.Stop();
}

TEST(ServerIntegrationTest, OverBudgetThreadCountAnsweredWithStatus) {
  fusion::DataTamer tamer;  // default budget: one thread
  tamer.entity_collection()->Insert(
      storage::DocBuilder().Set("type", "Movie").Build());
  DtServer srv(&tamer);
  ASSERT_TRUE(srv.Start().ok());
  auto cli = DtClient::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(cli.ok());
  QueryRequest req;
  req.op = QueryOp::kFind;
  req.collection = "entity";
  req.predicate = Predicate::Eq("type", DocValue::Str("Movie"));
  req.use_indexes = false;
  req.num_threads = 64;
  auto r = (*cli)->Call(req);
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  // The session survives; a request within budget is served.
  req.num_threads = 1;
  r = (*cli)->Call(req);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->ids.size(), 1u);
  srv.Stop();
}

TEST(ServerIntegrationTest, OverloadBurstAnsweredUnavailableNeverDropped) {
  const Corpus& corpus = SharedCorpus();
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer);

  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_pending_requests = 4;
  // Each execution sleeps, so the burst below deterministically
  // overruns the 4-slot admission queue.
  opts.debug_execution_delay_ms = 30;
  DtServer srv(&tamer, opts);
  ASSERT_TRUE(srv.Start().ok());

  auto cli = DtClient::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(cli.ok());
  QueryRequest req;
  req.op = QueryOp::kFind;
  req.collection = "entity";
  req.predicate = Predicate::Eq("type", DocValue::Str("Movie"));

  constexpr int kBurst = 32;
  std::vector<uint64_t> sent;
  for (int i = 0; i < kBurst; ++i) {
    auto id = (*cli)->Send(req);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    sent.push_back(*id);
  }
  // Every request gets an answer — admission control rejects loudly,
  // it never drops. Responses may arrive out of order.
  int ok = 0, unavailable = 0;
  std::vector<uint64_t> answered;
  for (int i = 0; i < kBurst; ++i) {
    auto env = (*cli)->Receive();
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    answered.push_back(env->id);
    if (env->status.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(env->status.IsUnavailable()) << env->status.ToString();
      EXPECT_EQ(env->status.message(), "overloaded");
      ++unavailable;
    }
  }
  std::sort(answered.begin(), answered.end());
  EXPECT_EQ(answered, sent);
  EXPECT_GT(ok, 0);
  EXPECT_GT(unavailable, 0);
  EXPECT_EQ(ok + unavailable, kBurst);
  EXPECT_GE(srv.stats().requests_rejected,
            static_cast<uint64_t>(unavailable));

  // The overload was transient: once drained, the same session serves
  // again.
  auto after = (*cli)->Call(req);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
  srv.Stop();
}

// Puts `n` copies of `req` in flight on one fresh connection before
// reading any answer; every answer must be OK, carry an id this
// connection sent, and hold `expected`.
Status PipelineRequests(uint16_t port, const QueryRequest& req, int n,
                        const std::vector<storage::DocId>& expected) {
  DT_ASSIGN_OR_RETURN(auto cli, DtClient::Connect("127.0.0.1", port));
  std::vector<uint64_t> sent;
  for (int i = 0; i < n; ++i) {
    DT_ASSIGN_OR_RETURN(uint64_t id, cli->Send(req));
    sent.push_back(id);
  }
  for (int i = 0; i < n; ++i) {
    DT_ASSIGN_OR_RETURN(ResponseEnvelope env, cli->Receive());
    DT_RETURN_NOT_OK(env.status);
    auto it = std::find(sent.begin(), sent.end(), env.id);
    if (it == sent.end()) {
      return Status::Internal("answer for an id never sent");
    }
    sent.erase(it);
    if (env.response.ids != expected) {
      return Status::Internal("answer differs from in-process");
    }
  }
  return Status::OK();
}

TEST(ServerIntegrationTest, PipelinedClientsAllAnsweredWithinCapacity) {
  const Corpus& corpus = SharedCorpus();
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer);
  QueryRequest req;
  req.op = QueryOp::kFind;
  req.collection = "entity";
  req.predicate = Predicate::Eq("type", DocValue::Str("Movie"));
  req.order_by = "name";
  req.limit = 50;
  auto baseline = tamer.Execute(req);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_FALSE(baseline->ids.empty());

  ServerOptions opts;
  opts.num_workers = 4;
  DtServer srv(&tamer, opts);
  ASSERT_TRUE(srv.Start().ok());

  // Four clients with 8 requests in flight each: the default admission
  // queue never rejects inside that capacity.
  constexpr int kClients = 4;
  constexpr int kPipelined = 8;
  std::vector<Status> verdicts(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      verdicts[c] = PipelineRequests(srv.port(), req, kPipelined,
                                     baseline->ids);
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(verdicts[c].ok()) << "client " << c << ": "
                                  << verdicts[c].ToString();
  }
  const ServerStats stats = srv.stats();
  EXPECT_EQ(stats.requests_rejected, 0u);
  EXPECT_EQ(stats.requests_executed,
            static_cast<uint64_t>(kClients * kPipelined));
  srv.Stop();
}

TEST(ServerIntegrationTest, SessionPipelineCapRejectsExcessInflight) {
  const Corpus& corpus = SharedCorpus();
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer);

  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_inflight_per_session = 2;
  opts.max_pending_requests = 1024;  // only the per-session cap bites
  opts.debug_execution_delay_ms = 30;
  DtServer srv(&tamer, opts);
  ASSERT_TRUE(srv.Start().ok());

  auto cli = DtClient::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(cli.ok());
  QueryRequest req;
  req.op = QueryOp::kCount;
  req.collection = "entity";
  req.group_path = "type";

  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) ASSERT_TRUE((*cli)->Send(req).ok());
  int ok = 0, capped = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto env = (*cli)->Receive();
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    if (env->status.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(env->status.IsUnavailable()) << env->status.ToString();
      EXPECT_EQ(env->status.message(), "session pipeline full");
      ++capped;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(capped, 0);
  srv.Stop();
}

// ---- raw-socket protocol edges ----------------------------------------

int ConnectRaw(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

void SendAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
}

// Reads until one full frame decodes; returns its response envelope.
Result<ResponseEnvelope> ReadEnvelope(int fd, std::string* inbuf) {
  while (true) {
    DocValue payload;
    size_t consumed = 0;
    DT_RETURN_NOT_OK(
        TryDecodeFrame(*inbuf, kDefaultMaxFrameSize, &payload, &consumed));
    if (consumed > 0) {
      inbuf->erase(0, consumed);
      return DecodeResponseEnvelope(payload);
    }
    char buf[4096];
    ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return Status::IOError("connection closed");
    inbuf->append(buf, static_cast<size_t>(n));
  }
}

bool ReadsEof(int fd) {
  char buf[64];
  while (true) {
    ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n == 0) return true;
    if (n < 0) return false;
  }
}

TEST(ServerIntegrationTest, CorruptFrameGetsFinalErrorThenClose) {
  const Corpus& corpus = SharedCorpus();
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer);
  DtServer srv(&tamer);
  ASSERT_TRUE(srv.Start().ok());

  int fd = ConnectRaw(srv.port());
  SendAll(fd, "this is definitely not a DTW1 frame");
  std::string inbuf;
  auto env = ReadEnvelope(fd, &inbuf);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_EQ(env->id, 0u);  // no envelope decoded, so no id to echo
  EXPECT_TRUE(env->status.IsCorruption()) << env->status.ToString();
  // Framing is unrecoverable: the server closes after the verdict.
  EXPECT_TRUE(ReadsEof(fd));
  close(fd);
  EXPECT_GE(srv.stats().corrupt_frames, 1u);
  srv.Stop();
}

TEST(ServerIntegrationTest, BadEnvelopeAnsweredAndSessionSurvives) {
  const Corpus& corpus = SharedCorpus();
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer);
  DtServer srv(&tamer);
  ASSERT_TRUE(srv.Start().ok());

  int fd = ConnectRaw(srv.port());
  // A perfectly-framed payload that is not a request envelope: the
  // framing survives, so the session must too.
  std::string frame;
  ASSERT_TRUE(
      EncodeFrame(DocValue::Str("hello?"), kDefaultMaxFrameSize, &frame).ok());
  SendAll(fd, frame);
  std::string inbuf;
  auto env = ReadEnvelope(fd, &inbuf);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_TRUE(env->status.IsInvalidArgument()) << env->status.ToString();

  // Same socket, now a real request: answered normally.
  RequestEnvelope good;
  good.id = 9;
  good.request.op = QueryOp::kCount;
  good.request.collection = "entity";
  good.request.group_path = "type";
  frame.clear();
  ASSERT_TRUE(EncodeFrame(EncodeRequestEnvelope(good), kDefaultMaxFrameSize,
                          &frame)
                  .ok());
  SendAll(fd, frame);
  env = ReadEnvelope(fd, &inbuf);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_EQ(env->id, 9u);
  EXPECT_TRUE(env->status.ok()) << env->status.ToString();
  EXPECT_GT(env->response.groups.size(), 0u);
  close(fd);
  srv.Stop();
}

TEST(ServerIntegrationTest, IdleSessionsAndExcessSessionsAreClosed) {
  const Corpus& corpus = SharedCorpus();
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer);

  ServerOptions opts;
  opts.idle_timeout_ms = 100;
  opts.max_sessions = 1;
  DtServer srv(&tamer, opts);
  ASSERT_TRUE(srv.Start().ok());

  int first = ConnectRaw(srv.port());
  // Give the loop a beat to register the first session, then the
  // second connection must be turned away at the door.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  int second = ConnectRaw(srv.port());
  EXPECT_TRUE(ReadsEof(second));
  close(second);
  // The quiet first session is reaped by the idle timer.
  EXPECT_TRUE(ReadsEof(first));
  close(first);
  EXPECT_GE(srv.stats().sessions_rejected, 1u);
  EXPECT_GE(srv.stats().idle_closes, 1u);
  srv.Stop();
}

TEST(ServerIntegrationTest, AbortedClientMidFlushClosedAndCounted) {
  const Corpus& corpus = SharedCorpus();
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer);
  DtServer srv(&tamer);
  ASSERT_TRUE(srv.Start().ok());

  // A client with a tiny receive window pipelines far more response
  // bytes than the kernel will buffer, so the server's flush backs up
  // on EAGAIN with a non-empty outbox — then the client vanishes.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 1024;
  ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf), 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  RequestEnvelope env;
  env.request.op = QueryOp::kFind;
  env.request.collection = "entity";
  env.request.predicate = Predicate::And({});  // every document
  std::string burst;
  for (uint64_t i = 1; i <= 48; ++i) {
    env.id = i;
    std::string frame;
    ASSERT_TRUE(EncodeFrame(EncodeRequestEnvelope(env), kDefaultMaxFrameSize,
                            &frame)
                    .ok());
    burst += frame;
  }
  SendAll(fd, burst);
  // Let responses pile into the server-side outbox (this client never
  // reads), then abort with an RST instead of a FIN: SO_LINGER {1,0}.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg), 0);
  close(fd);

  // The dead peer surfaces as a fatal errno (ECONNRESET/EPIPE) on the
  // next flush or read; the server must close the session immediately
  // and count it — never hang, spin, or crash.
  bool counted = false;
  for (int i = 0; i < 150 && !counted; ++i) {
    counted = srv.stats().peer_disconnects >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(counted) << "peer_disconnects never incremented";

  // Collateral check: a well-behaved client is unaffected.
  auto cli = DtClient::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(cli.ok());
  QueryRequest req;
  req.op = QueryOp::kCount;
  req.collection = "entity";
  req.group_path = "type";
  auto r = (*cli)->Call(req);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  srv.Stop();
}

TEST(ServerIntegrationTest, DurableFacadeStatsAndShutdownFlush) {
  TempPath dir("srv_durable");
  fusion::DataTamerOptions opts;
  opts.durability.dir = dir.path();
  // kAsync acknowledges before fsync — the Stop() flush is what makes
  // the served writes durable, which is exactly what this test pins.
  opts.durability.durability = storage::Durability::kAsync;
  opts.durability.checkpoint_wal_bytes = 0;
  {
    auto dt = fusion::DataTamer::Open(opts);
    ASSERT_TRUE(dt.ok()) << dt.status().ToString();
    const Corpus& corpus = SharedCorpus();
    corpus.Ingest(dt->get());

    DtServer srv(dt->get());
    ASSERT_TRUE(srv.Start().ok());
    auto cli = DtClient::Connect("127.0.0.1", srv.port());
    ASSERT_TRUE(cli.ok());
    QueryRequest req;
    req.op = QueryOp::kCount;
    req.collection = "entity";
    req.group_path = "type";
    auto r = (*cli)->Call(req);
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    ServerStats stats = srv.stats();
    EXPECT_TRUE(stats.durability.enabled);
    EXPECT_EQ(stats.durability.mode, storage::Durability::kAsync);
    EXPECT_GT(stats.durability.wal_appends, 0u);
    srv.Stop();  // flushes the WAL before reporting stopped
  }
  // Reopen: everything the server acknowledged is on disk.
  auto dt2 = fusion::DataTamer::Open(opts);
  ASSERT_TRUE(dt2.ok()) << dt2.status().ToString();
  QueryRequest all;
  all.collection = "entity";
  all.predicate = Predicate::And({});
  auto found = (*dt2)->Execute(all);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_GT(found->ids.size(), 0u);
}

}  // namespace
}  // namespace dt::server
