/// The durable ingest commit (`ingest` ctest label; runs in the
/// sanitizer and TSan CI lanes): one `IngestRecords` batch is one WAL
/// commit — a single group-commit fsync under kGroup, a sync per append
/// under kStrict, none under kAsync — and it is acknowledged only after
/// that commit. A WAL fault (RLIMIT_FSIZE 0 in a forked child) fails
/// the batch it hits; every later ingest, in process or as a kIngest
/// over a `DtServer`, is refused with kUnavailable carrying the cause.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "datagen/dedup_labels.h"
#include "dedup/record.h"
#include "fusion/data_tamer.h"
#include "query/request.h"
#include "server/client.h"
#include "server/server.h"
#include "test_files.h"

namespace dt::fusion {
namespace {

using dedup::DedupRecord;
using storage::Durability;
using storage::DurabilityStats;

std::vector<DedupRecord> Corpus(int64_t num_pairs) {
  datagen::DedupLabelOptions opts;
  opts.num_pairs = num_pairs;
  opts.seed = 5;
  std::vector<DedupRecord> records;
  for (const auto& p : datagen::GenerateLabeledPairs(
           textparse::EntityType::kPerson, opts)) {
    records.push_back(p.a);
    records.push_back(p.b);
  }
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<int64_t>(i);
  }
  return records;
}

DataTamerOptions DurableOpts(const std::string& dir, Durability mode) {
  DataTamerOptions opts;
  opts.durability.dir = dir;
  opts.durability.durability = mode;
  opts.durability.checkpoint_wal_bytes = 0;  // no background rotation
  return opts;
}

/// WAL counters that one 10-record `IngestRecords` call adds, measured
/// after a warm-up batch has enrolled the ingest collections.
struct BatchDelta {
  uint64_t appends = 0;
  uint64_t syncs = 0;
  uint64_t group_batches = 0;
};

BatchDelta MeasureOneBatch(Durability mode, const std::string& tag) {
  TempPath dir(tag);
  auto tamer = DataTamer::Open(DurableOpts(dir.path(), mode));
  EXPECT_TRUE(tamer.ok()) << tamer.status().ToString();
  if (!tamer.ok()) return {};
  const std::vector<DedupRecord> corpus = Corpus(10);
  std::vector<DedupRecord> warm(corpus.begin(), corpus.begin() + 10);
  std::vector<DedupRecord> batch(corpus.begin() + 10, corpus.begin() + 20);
  EXPECT_TRUE((*tamer)->IngestRecords(std::move(warm)).ok());
  const DurabilityStats before = (*tamer)->durability_stats();
  auto r = (*tamer)->IngestRecords(std::move(batch));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  const DurabilityStats after = (*tamer)->durability_stats();
  return {after.wal_appends - before.wal_appends,
          after.wal_syncs - before.wal_syncs,
          after.wal_group_batches - before.wal_group_batches};
}

TEST(IngestCommitTest, GroupBatchCostsOneSync) {
  const BatchDelta d = MeasureOneBatch(Durability::kGroup, "commit_group");
  // Each record logs itself and upserts at least one fused entity.
  EXPECT_GE(d.appends, 20u);
  EXPECT_EQ(d.syncs, 1u);
  EXPECT_EQ(d.group_batches, 1u);
}

TEST(IngestCommitTest, StrictBatchSyncsEveryAppend) {
  const BatchDelta d = MeasureOneBatch(Durability::kStrict, "commit_strict");
  EXPECT_GE(d.appends, 20u);
  EXPECT_EQ(d.syncs, d.appends);
}

TEST(IngestCommitTest, AsyncBatchSyncsNothing) {
  const BatchDelta d = MeasureOneBatch(Durability::kAsync, "commit_async");
  EXPECT_GE(d.appends, 20u);
  EXPECT_EQ(d.syncs, 0u);
}

/// Child exit codes of the fault scenario (0 = every check held).
enum FaultExit : int {
  kFaultOk = 0,
  kOpenFailed = 10,
  kWarmIngestFailed,
  kServerFailed,
  kRlimitFailed,
  kFaultedBatchAcked,
  kFaultedBatchNotIoError,
  kHealthStillOk,
  kLaterIngestNotUnavailable,
  kLaterIngestLostCause,
  kLaterIngestMutated,
  kWireIngestNotUnavailable,
};

/// The forked child: a durable kGroup facade served read-write, then
/// every WAL write fails with EFBIG.
[[noreturn]] void RunFaultChild(const std::string& dir) {
  const std::vector<DedupRecord> corpus = Corpus(12);
  auto opened = DataTamer::Open(DurableOpts(dir, Durability::kGroup));
  if (!opened.ok()) _exit(kOpenFailed);
  DataTamer& tamer = **opened;
  std::vector<DedupRecord> warm(corpus.begin(), corpus.begin() + 4);
  if (!tamer.IngestRecords(std::move(warm)).ok()) _exit(kWarmIngestFailed);
  server::DtServer srv(&tamer);
  if (!srv.Start().ok()) _exit(kServerFailed);
  auto cli = server::DtClient::Connect("127.0.0.1", srv.port());
  if (!cli.ok()) _exit(kServerFailed);

  // The fault injector: no file may grow, and the signal that would
  // report it is ignored, so every WAL write() fails with EFBIG.
  std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit lim = {0, 0};
  if (setrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(kRlimitFailed);

  std::vector<DedupRecord> faulted(corpus.begin() + 4, corpus.begin() + 14);
  auto first = tamer.IngestRecords(std::move(faulted));
  if (first.ok()) _exit(kFaultedBatchAcked);
  if (!first.status().IsIOError()) {
    std::fprintf(stderr, "faulted batch: %s\n",
                 first.status().ToString().c_str());
    _exit(kFaultedBatchNotIoError);
  }
  const Status cause = tamer.durability_health();
  if (cause.ok()) _exit(kHealthStillOk);

  const int64_t ingested = tamer.ingest_stats().records_ingested;
  const DurabilityStats wal = tamer.durability_stats();
  std::vector<DedupRecord> later(corpus.begin() + 14, corpus.begin() + 18);
  auto refused = tamer.IngestRecords(std::move(later));
  if (refused.ok() || !refused.status().IsUnavailable()) {
    _exit(kLaterIngestNotUnavailable);
  }
  if (refused.status().message().find(cause.message()) == std::string::npos) {
    std::fprintf(stderr, "refusal: %s\n",
                 refused.status().ToString().c_str());
    _exit(kLaterIngestLostCause);
  }
  // Refused before touching the consolidator or any collection: no
  // record counted, no WAL append attempted.
  if (tamer.ingest_stats().records_ingested != ingested ||
      tamer.durability_stats().wal_appends != wal.wal_appends) {
    _exit(kLaterIngestMutated);
  }

  query::QueryRequest req;
  req.op = query::QueryOp::kIngest;
  req.ingest_records.assign(corpus.begin() + 18, corpus.begin() + 20);
  auto wire = (*cli)->Call(req);
  if (wire.ok() || !wire.status().IsUnavailable()) {
    std::fprintf(stderr, "wire kIngest: %s\n",
                 wire.ok() ? "OK" : wire.status().ToString().c_str());
    _exit(kWireIngestNotUnavailable);
  }
  _exit(kFaultOk);
}

TEST(IngestCommitTest, WalFaultFailsTheBatchAndRefusesLaterIngests) {
  TempPath dir("commit_fault");
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) RunFaultChild(dir.path());
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), kFaultOk)
      << "fault child failed check " << WEXITSTATUS(status)
      << " (see FaultExit)";
}

}  // namespace
}  // namespace dt::fusion
