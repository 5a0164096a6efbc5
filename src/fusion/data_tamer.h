/// \file data_tamer.h
/// \brief The extended Data Tamer facade — Fig. 1 end to end.
///
/// Owns the storage substrates (document store for text-derived data,
/// relational catalog for structured sources), the bottom-up global
/// schema, the cleaning/transformation engines and the consolidation
/// pipeline, and exposes the demo's query surface (top-discussed,
/// entity lookup pre/post fusion).

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "clean/cleaning.h"
#include "clean/transforms.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dedup/consolidation.h"
#include "dedup/streaming.h"
#include "ingest/source_registry.h"
#include "match/global_schema.h"
#include "match/synonyms.h"
#include "query/query.h"
#include "query/request.h"
#include "relational/catalog.h"
#include "storage/document_store.h"
#include "storage/recovery.h"
#include "storage/inverted_index.h"
#include "textparse/domain_parser.h"

namespace dt::fusion {

/// Facade configuration.
struct DataTamerOptions {
  /// Storage options for dt.instance / dt.entity (benches scale the
  /// extent sizes with the corpus).
  storage::CollectionOptions collection_options;
  match::GlobalSchemaOptions schema_options;
  clean::CleaningOptions cleaning_options;
  dedup::ConsolidationOptions consolidation_options;
  /// Run the cleaner on structured sources at ingest.
  bool clean_structured_sources = true;
  /// Apply built-in normalizing transforms (currency -> USD, dates ->
  /// m/d/yyyy-preserving ISO) to recognized columns at ingest.
  bool auto_transform = true;
  /// Merge priority of structured vs text-derived records.
  int structured_trust = 10;
  int text_trust = 1;
  /// EUR->USD rate for the currency transform.
  double eur_usd_rate = 1.30;
  /// The facade's one thread budget: 1 = serial, <= 0 = all hardware
  /// threads. Above 1 the constructor builds one pool of this width,
  /// and every parallel stage runs on it: batch and streaming
  /// consolidation, snapshot encode/decode and the full-scan fallback
  /// of `Execute`. Output is identical for every value.
  int num_threads = 1;
  /// Crash-safe durability (WAL + incremental checkpoints). Only
  /// honored by `DataTamer::Open`: set `durability.dir` to a
  /// directory and every committed mutation is write-ahead logged
  /// per `durability.durability`; `Open` replays that state back.
  /// The plain constructor ignores this (in-memory facade).
  storage::DurabilityOptions durability;
};

/// Decides a reviewed attribute: return the chosen global attribute
/// index, or -1 to create a new attribute. Wired to the expert-sourcing
/// loop by the caller (the facade stays oracle-free).
using ReviewResolver = std::function<int(
    const match::AttributeMatchResult&, const match::GlobalSchema&)>;

/// Counters of the continuous-ingest path (streaming consolidation).
/// The engine-level totals mirror `dedup::StreamingStats` (including a
/// recovery `Seed`'s bulk scoring); the cluster upsert/remove counts
/// are what the facade pushed through the fused collection's normal
/// mutation path (WAL, snapshots and index stats ride along).
struct IngestStats {
  int64_t records_ingested = 0;
  int64_t pairs_scored = 0;
  int64_t candidates_generated = 0;
  int64_t clusters_upserted = 0;
  int64_t clusters_removed = 0;
  int64_t retracted_matches = 0;
  int64_t rebuilds = 0;
  int64_t resident_clusters = 0;
  /// Records restored into the resident state from the persisted
  /// dt.dedup_record log (recovery / first use after a snapshot load).
  int64_t seeded_records = 0;
  /// dt.fused docs the last reconcile against the record log dropped,
  /// rewrote or inserted: 0 after a clean reopen, non-zero when a
  /// crash left dt.fused behind the log (or it was changed out of
  /// band).
  int64_t fused_repaired = 0;
};

/// What one `IngestRecord(s)` call changed.
struct IngestResult {
  int64_t ingested = 0;
  int64_t clusters_upserted = 0;
  int64_t clusters_removed = 0;
};

/// Running counts of what the pipeline has processed.
struct PipelineStats {
  int64_t fragments_ingested = 0;
  int64_t entities_extracted = 0;
  int64_t structured_tables = 0;
  int64_t structured_rows = 0;
  clean::CleaningReport cleaning;
};

/// \brief The end-to-end system.
///
/// The const read surface keeps no lazy state of its own: text indexes
/// live in the collections' storage versions (built on a collection's
/// first text read, published under that collection's writer mutex),
/// the worker pool is built by the constructor, and the scan counters
/// are atomics. What still needs external serialization: every
/// non-const call (ingest, `LoadSnapshot`, `SetGazetteer`,
/// `CreateStandardIndexes`, `Checkpoint`, ...) against every other
/// call, const ones included, because it creates or replaces
/// collections and facade members the reads dereference. Concurrent
/// const calls share only the collections and the pool, but no test
/// covers them yet, so `DtServer` still runs reads one at a time.
/// (Parallelism *inside* one call runs on the one pool that
/// `DataTamerOptions::num_threads` sizes; no stage builds its own.)
class DataTamer {
 public:
  explicit DataTamer(DataTamerOptions opts = {});

  /// \brief Opens a durable facade: recovers the state under
  /// `opts.durability.dir` (checkpoints + WAL replay — see
  /// storage/recovery.h) when one exists, and attaches the write-ahead
  /// log so every committed mutation is durable per
  /// `opts.durability.durability`. With durability disabled (empty dir
  /// or mode kNone) this degrades to the plain in-memory constructor.
  static Result<std::unique_ptr<DataTamer>> Open(DataTamerOptions opts);

  /// Detaches and flushes the write-ahead log (durable facades).
  ~DataTamer();

  // ---- Text pipeline (unstructured arrow of Fig. 1) ----

  /// Installs the domain parser's dictionary (must outlive the facade).
  void SetGazetteer(const textparse::Gazetteer* gazetteer);

  /// \brief Parses one text fragment and stores it: the fragment into
  /// dt.instance, its mentions into dt.entity. Returns the instance id.
  /// Fails unless a gazetteer is installed.
  Result<storage::DocId> IngestTextFragment(std::string_view text,
                                            const std::string& feed,
                                            int64_t timestamp);

  /// Creates the production index set: dt.instance on source (1 user
  /// index), dt.entity on type, name, surface, confidence, instance_id,
  /// award_winning, source (7 user indexes + _id = 8 as in Table II).
  Status CreateStandardIndexes();

  // ---- Structured pipeline ----

  /// \brief Cleans, transforms, registers and schema-integrates a
  /// structured source (one FTABLES table). Review-band attributes go
  /// through `resolver` when provided, else conservatively become new
  /// global attributes. Returns the integration report.
  Result<match::IntegrationReport> IngestStructuredTable(
      relational::Table table, const ReviewResolver& resolver = nullptr);

  // ---- Semi-structured pipeline (the third arrow of Fig. 1) ----

  /// \brief Ingests hierarchical documents: flattens them into a table
  /// named `source_name` (object arrays unnest; see ingest::Flatten)
  /// and routes it through the structured pipeline (clean, transform,
  /// schema-match, register).
  Result<match::IntegrationReport> IngestSemiStructuredSource(
      const std::string& source_name,
      const std::vector<storage::DocValue>& documents,
      const ReviewResolver& resolver = nullptr);

  /// Convenience overload: parses newline-delimited JSON first.
  Result<match::IntegrationReport> IngestJsonLines(
      const std::string& source_name, std::string_view json_lines,
      const ReviewResolver& resolver = nullptr);

  // ---- Continuous ingest (streaming consolidation) ----

  /// \brief Absorbs one dedup record into the live entity set at
  /// O(blocking-candidate-neighborhood) cost: the record is appended
  /// to the persistent dt.dedup_record log (the durable source of
  /// truth), scored only against its blocking neighbors, and exactly
  /// the affected composite entities are re-merged and upserted into
  /// dt.fused through the normal mutation path — WAL, snapshots,
  /// page-token staleness and index stats all ride along. The fused
  /// entity set stays byte-identical (up to dense cluster-id
  /// renumbering) to a from-scratch batch `Consolidate` over the full
  /// record log. A zero `ingest_seq` is assigned from the facade's
  /// monotonic counter.
  Result<IngestResult> IngestRecord(dedup::DedupRecord record);

  /// Ingests a batch in order (same semantics per record). On mid-
  /// batch failure the records already applied stay applied — the
  /// persisted log is the source of truth and reopening reconciles
  /// dt.fused against it.
  ///
  /// On a durable facade the batch is one WAL commit: its appends are
  /// written as they happen and, under kGroup, covered by one fsync at
  /// the end; the call returns OK only after that commit. A WAL fault
  /// during the batch is its return value (the IOError); once durability
  /// is lost, every later call returns kUnavailable with that cause and
  /// changes nothing.
  Result<IngestResult> IngestRecords(std::vector<dedup::DedupRecord> records);

  /// \brief `Execute` plus the mutating ops: routes kIngest through
  /// `IngestRecords` and delegates every read op to `Execute`. This is
  /// what a read-write `DtServer` serves, so a kIngest is acknowledged
  /// only after its batch commit.
  Result<query::QueryResponse> ExecuteMutable(const query::QueryRequest& req);

  /// \brief Keyword search over the *fused* composite entities
  /// maintained by streaming ingest (conjunctive TF-IDF like
  /// `SearchFragments`, over each entity's synthesized text). The
  /// first call builds dt.fused's text index; the collection's writes
  /// maintain it from then on (no rebuild per query).
  std::vector<storage::SearchHit> SearchEntities(std::string_view keywords,
                                                 int k = 10) const;

  /// \brief The full entity set of the streaming consolidator, dense
  /// cluster ids in batch order — byte-identical to
  /// `Consolidate` over the persisted record log. (Non-const: first
  /// use after recovery seeds the resident state from the log.)
  Result<std::vector<dedup::CompositeEntity>> IngestedEntities();

  const IngestStats& ingest_stats() const { return ingest_stats_; }

  // ---- Fusion queries (the demo of §V) ----

  /// \brief The unified query entry point: dispatches a serializable
  /// `QueryRequest` (kFind / kFindPage / kExplain / kCount / kTopK /
  /// kTopDiscussed) and returns the serializable response, whose
  /// `stats` report what the execution touched. This is what the RPC
  /// server executes — a request decoded off the wire runs
  /// byte-identically to the in-process call. Reads route through the
  /// cost-aware planner (secondary indexes including compound ones,
  /// sort/limit push-down, parallel scan fallback on the facade's one
  /// pool); a TextContains on dt.instance's "text" builds that
  /// collection's text index on first use and rides it. A request's
  /// `num_threads` of 1 scans serially; 0, or any count up to the
  /// facade's budget (`options().num_threads`, resolved), scans on the
  /// facade's pool. A negative thread count, one past the budget or a
  /// negative `k` is kInvalidArgument.
  Result<query::QueryResponse> Execute(const query::QueryRequest& req) const;

  /// \brief Table IV: top-k most discussed entities of `entity_type`
  /// in the web text, optionally restricted to award winners. Routed
  /// through the query planner: after `CreateStandardIndexes` the type
  /// predicate drives an index scan instead of a collection scan.
  std::vector<query::CountRow> TopDiscussed(const std::string& entity_type,
                                            int64_t k,
                                            bool award_winning_only) const;

  /// \brief Point query on the fused data: all information known about
  /// the named entity, as a two-column (ATTRIBUTE, VALUE) table.
  ///
  /// With `include_structured` false the result only reflects the web
  /// text (Table V); with true it consolidates text-derived and
  /// structured records into an enriched composite (Table VI).
  Result<relational::Table> QueryEntity(const std::string& entity_type,
                                        const std::string& name,
                                        bool include_structured) const;

  /// \brief Keyword search over the ingested text fragments (how the
  /// §V user explores WEBINSTANCE before knowing entity names).
  /// Conjunctive TF-IDF ranking over dt.instance's text index, which
  /// the first text read builds and the collection's writes maintain.
  std::vector<storage::SearchHit> SearchFragments(std::string_view keywords,
                                                  int k = 10) const;

  /// \brief Consolidates all structured rows plus text entities of
  /// `entity_type` into composite entities (the full entity-
  /// consolidation pass, used by benches and examples). Parallel runs
  /// ride the facade's one shared worker pool, not a per-call pool.
  Result<std::vector<dedup::CompositeEntity>> ConsolidateAll(
      const std::string& entity_type,
      dedup::ConsolidationStats* stats = nullptr) const;

  // ---- Snapshot persistence (the storage layer's cold-start path) ----

  /// \brief Persists the document store (dt.instance, dt.entity and
  /// any other collections) to `path` as one binary snapshot file.
  /// Encodes on the facade's pool; save -> load -> save is
  /// byte-identical.
  Status SaveSnapshot(const std::string& path) const;

  /// \brief Replaces the document store with the snapshot at `path`:
  /// documents, ids and secondary indexes come back as saved, and
  /// `TopDiscussed`/`QueryEntity`/`SearchFragments` serve the loaded
  /// data unchanged. The relational catalog, source registry and
  /// global schema are NOT part of the snapshot; they reset to empty
  /// so the facade reflects exactly the loaded store (re-ingest
  /// structured sources after loading). On error the facade is left
  /// untouched.
  Status LoadSnapshot(const std::string& path);

  // ---- Durability (crash safety; only live after `Open`) ----

  /// Folds the WAL into incremental per-collection checkpoints (only
  /// dirty collections are re-encoded). No-op success when the facade
  /// is not durable.
  Status Checkpoint();

  /// Forces every acknowledged mutation onto disk regardless of the
  /// durability mode (how kAsync callers bound their loss window).
  /// Const: flushing writes no facade state (the server calls this on
  /// its borrowed const facade at shutdown).
  Status FlushDurability() const;

  /// First WAL I/O failure, sticky; OK while healthy or not durable.
  Status durability_health() const;

  /// WAL/checkpoint/recovery counters (`enabled` false when the
  /// facade is in-memory).
  storage::DurabilityStats durability_stats() const;

  bool durable() const { return wal_manager_ != nullptr; }

  storage::Collection* instance_collection() { return instance_; }
  const storage::Collection* instance_collection() const { return instance_; }
  storage::Collection* entity_collection() { return entity_; }
  const storage::Collection* entity_collection() const { return entity_; }
  relational::Catalog& catalog() { return catalog_; }
  const relational::Catalog& catalog() const { return catalog_; }
  match::GlobalSchema& global_schema() { return *global_schema_; }
  const match::GlobalSchema& global_schema() const { return *global_schema_; }
  ingest::SourceRegistry& registry() { return registry_; }
  const PipelineStats& stats() const { return stats_; }
  const DataTamerOptions& options() const { return opts_; }

 private:
  /// Builds dedup records for `entity_type` whose name matches `name`
  /// (empty name = all) from both text and structured sides.
  std::vector<dedup::DedupRecord> CollectRecords(
      const std::string& entity_type, const std::string& name) const;

  // ---- streaming-ingest internals ----

  /// Lazily creates the dt.dedup_record / dt.fused collections (re-
  /// attaching the WAL when durable so the new lineages are logged),
  /// seeds the resident consolidator from the persisted record log,
  /// and reconciles dt.fused against it (heals a crash that landed
  /// between the record append and the fused upsert). The repairs are
  /// one WAL commit, whose failure is the returned status.
  Status EnsureStreaming();

  /// Applies one ingest delta to dt.fused: removed cluster keys drop
  /// their docs, upserted keys re-merge and insert/update (a text index
  /// on dt.fused, once built, follows these writes in storage).
  Status ApplyClusterDelta(
      const dedup::StreamingConsolidator::IngestDelta& delta);

  /// Rebuilds the cluster-key -> DocId map from the consolidator + the
  /// persisted fused docs, repairing any divergence (the record log
  /// wins). Docs that already match are left untouched, so a clean
  /// reopen mutates nothing.
  Status ReconcileFusedDocs();

  /// The fused doc for one cluster: the composite entity encoding plus
  /// the synthesized "text" field `SearchEntities` indexes.
  storage::DocValue FusedEntityDoc(size_t cluster_key) const;

  /// Installs `store` as the facade's document store (recovery and
  /// snapshot-load share this): recreates missing standard
  /// collections, re-resolves the cached pointers and resets every
  /// piece of derived state to reflect exactly the replaced store.
  void ReplaceStore(storage::DocumentStore store);

  relational::Table ApplyIngestTransforms(relational::Table table);

  DataTamerOptions opts_;
  std::unique_ptr<match::SynonymDictionary> synonyms_;
  std::unique_ptr<match::GlobalSchema> global_schema_;
  storage::DocumentStore store_;
  storage::Collection* instance_ = nullptr;
  storage::Collection* entity_ = nullptr;
  relational::Catalog catalog_;
  ingest::SourceRegistry registry_;
  clean::TransformRegistry transforms_;
  const textparse::Gazetteer* gazetteer_ = nullptr;
  std::unique_ptr<textparse::DomainParser> parser_;
  PipelineStats stats_;
  int64_t ingest_seq_ = 0;
  // ---- streaming-ingest state (see EnsureStreaming) ----
  // The consolidator's resident corpus mirrors the persisted
  // dt.dedup_record log in ascending-id order; cluster_doc_ maps each
  // stable cluster key to its dt.fused doc. All rebuilt lazily from
  // the store after recovery or a snapshot load.
  storage::Collection* record_coll_ = nullptr;
  storage::Collection* fused_coll_ = nullptr;
  std::unique_ptr<dedup::StreamingConsolidator> streaming_;
  std::map<size_t, storage::DocId> cluster_doc_;
  IngestStats ingest_stats_;
  // One pool for every parallel scan, snapshot and consolidation this
  // facade runs, built by the constructor when `num_threads` resolves
  // above 1 (null otherwise); never built per operation.
  std::unique_ptr<ThreadPool> worker_pool_;
  // Declared after store_ so destruction detaches the WAL observers
  // (and flushes the log) while the collections are still alive.
  std::unique_ptr<storage::WalManager> wal_manager_;
};

}  // namespace dt::fusion
