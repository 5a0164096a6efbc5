/// \file workloads.h
/// \brief The benchmark's inputs: the seeded demo corpus, the request
/// pools of the seven request classes, the seeded record stream, and
/// the fixed settings of each workload.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datagen/ftables_gen.h"
#include "datagen/webtext_gen.h"
#include "dedup/record.h"
#include "fusion/data_tamer.h"
#include "harness.h"
#include "wire.h"

namespace dtb {

/// The request classes. The first three are light reads (the Table V/VI
/// entity lookups), the last four heavy ones (Table IV and friends).
enum Cls : int {
  kPoint,
  kOrdered,
  kPageBounded,
  kTopDiscussed,
  kCount,
  kTopK,
  kPageUnbounded,
  kNumClasses
};
extern const char* const kClassNames[kNumClasses];

/// Fixed settings of one workload.
struct WorkloadConfig {
  const char* name;
  /// Demo corpus size (text fragments) and FTABLES structured sources.
  int64_t fragments;
  int sources;
  /// Read mix: the analytics classes, else the lookup classes.
  bool analytics_reads;
  /// Serve the corpus from a durable facade and stream the records into
  /// it beside the fixed-rate reads (ingest_mixed). Otherwise the corpus
  /// is served read-only from memory and the same stream goes to a
  /// separate, empty durable server after the reads (the write probe).
  bool mixed;
};

const WorkloadConfig* FindWorkload(const std::string& name);
const std::vector<WorkloadConfig>& AllWorkloads();

inline constexpr int kServerWorkers = 4;
inline constexpr int kSaturationConns = 4;
/// The ingest stream: records, in batches, one batch in flight.
inline constexpr int64_t kStreamRecords = 12000;
inline constexpr size_t kIngestBatch = 10;
/// Reads beside the stream: connections and their combined rate,
/// requests/s. The rate is part of the benchmark definition (a faster
/// server shows as lower latency at the same rate, never as another
/// schedule). It is half the saturation rate beside the stream on a
/// slow host. In a closed loop the two connections get one read each
/// answered per ingest batch (~2,400 per stream, whatever its length):
/// 340-410 reads/s on a 4-core x86 host in steady stretches, down to
/// ~200 reads/s in slow ones, where the stream took twice as long. A
/// rate above the saturation rate grows a backlog, and latency would
/// measure the backlog.
inline constexpr int kStreamReadConns = 2;
inline constexpr double kStreamReadRate = 100;
inline constexpr int kBlockCap = 64;
inline constexpr uint64_t kCheckpointWalBytes = 3u << 19;  // 1.5 MiB
/// ingest_mixed requires at least this many checkpoints mid-stream.
inline constexpr int64_t kMinStreamCheckpoints = 3;
inline constexpr int kSetupReps = 3;
/// Streams per untraced run, each into a fresh durable directory and
/// then reopened `kReopensPerStream` times. Stream metrics are medians
/// over the streams; recovery times are the fastest reopen of the run.
inline constexpr int kStreamReps = 3;
inline constexpr int kReopensPerStream = 3;

/// Facade options every workload uses: collection sizing scaled to the
/// corpus and the consolidation block cap. Durable when `dir` is set,
/// with durability `mode`.
dt::fusion::DataTamerOptions FacadeOptions(
    const std::string& dir,
    dt::storage::Durability mode = dt::storage::Durability::kGroup);

// ---- corpus ------------------------------------------------------------

/// The generated demo inputs. The facade never sees the generators,
/// only the fragments and tables.
struct Corpus {
  std::unique_ptr<dt::datagen::WebTextGenerator> webgen;
  dt::textparse::Gazetteer gazetteer;
  std::vector<dt::datagen::GeneratedFragment> fragments;
  std::vector<dt::datagen::GeneratedSource> sources;
};

Corpus GenerateCorpus(uint64_t seed, int64_t fragments, int sources);

struct CorpusTimes {
  double text_ingest_s = 0;
  double index_build_s = 0;
  double structured_ingest_s = 0;
};

/// Feeds the corpus through the text and structured pipelines and
/// builds the standard indexes. `corpus.gazetteer` must outlive
/// `tamer`.
dt::Status IngestCorpus(const Corpus& corpus, dt::fusion::DataTamer* tamer,
                        CorpusTimes* times);

// ---- requests ----------------------------------------------------------

/// One pool entry. Page classes name the first page of a chain; the
/// chain's resumed pages are added when the pool is materialized.
struct ItemSpec {
  Cls cls = kPoint;
  dt::query::QueryRequest req;
};

/// A request pool and one pass over it: `pass` lists item indexes,
/// repeats included, in seeded order.
struct PoolSpec {
  std::vector<ItemSpec> items;
  std::vector<int> pass;
};

PoolSpec MakeLookupPool(uint64_t seed, const dt::textparse::Gazetteer& gaz);
PoolSpec MakeAnalyticsPool(uint64_t seed);

/// Canonical bytes of a pool (requests and pass order).
std::string SpecBytes(const PoolSpec& spec);

/// A pool made concrete against one facade: every request with its
/// expected answer, page chains unrolled into pages that carry their
/// resume tokens, and the pass in send order.
struct Pool {
  std::vector<WireOp> ops;
  std::vector<int> pass;
};

/// Executes every request of `spec` in process. Page chains are
/// followed token by token and their stitched ids must equal the
/// one-shot `find`; a difference is a mismatch in `ledger`.
dt::Status Materialize(const PoolSpec& spec, const dt::fusion::DataTamer& tamer,
                       Pool* pool, Ledger* ledger);

// ---- records -------------------------------------------------------------

/// `n` labeled-pair records (duplicates adjacent), ids and ingest
/// sequence numbers 1..n.
std::vector<dt::dedup::DedupRecord> MakeRecordStream(uint64_t seed, int64_t n);

/// Codec bytes of each record, concatenated.
std::string StreamBytes(const std::vector<dt::dedup::DedupRecord>& records);

/// The stream as `kIngest` requests of `kIngestBatch` records.
std::vector<WireOp> IngestBatches(
    const std::vector<dt::dedup::DedupRecord>& records);

}  // namespace dtb
