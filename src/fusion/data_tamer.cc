#include "fusion/data_tamer.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/strutil.h"
#include "ingest/flatten.h"
#include "ingest/json.h"
#include "ingest/type_infer.h"
#include "match/name_matcher.h"
#include "storage/snapshot.h"

namespace dt::fusion {

using relational::Table;
using relational::Value;
using storage::DocValue;

DataTamer::DataTamer(DataTamerOptions opts)
    : opts_(opts),
      synonyms_(std::make_unique<match::SynonymDictionary>(
          match::SynonymDictionary::Default())),
      global_schema_(std::make_unique<match::GlobalSchema>(
          opts.schema_options, synonyms_.get())),
      store_("dt"),
      transforms_(clean::TransformRegistry::Builtins(opts.eur_usd_rate)) {
  const int threads = ResolveNumThreads(opts_.num_threads);
  if (threads > 1) worker_pool_ = std::make_unique<ThreadPool>(threads);
  instance_ =
      store_.CreateCollection("instance", opts_.collection_options)
          .ValueOrDie();
  entity_ =
      store_.CreateCollection("entity", opts_.collection_options).ValueOrDie();
}

DataTamer::~DataTamer() = default;

Result<std::unique_ptr<DataTamer>> DataTamer::Open(DataTamerOptions opts) {
  auto dt = std::make_unique<DataTamer>(opts);
  const storage::DurabilityOptions& dopts = dt->opts_.durability;
  if (dopts.dir.empty() || dopts.durability == storage::Durability::kNone) {
    return dt;  // durability disabled: plain in-memory facade
  }
  std::unique_ptr<storage::DocumentStore> recovered;
  DT_ASSIGN_OR_RETURN(dt->wal_manager_,
                      storage::WalManager::Open(dopts, "dt", &recovered));
  if (recovered != nullptr) {
    dt->ReplaceStore(std::move(*recovered));
  }
  DT_RETURN_NOT_OK(dt->wal_manager_->Attach(&dt->store_));
  return dt;
}

void DataTamer::ReplaceStore(storage::DocumentStore store) {
  store_ = std::move(store);
  // The standard collections can be missing from recovered state (a
  // crash before their create records reached disk under kAsync);
  // recreate them so the facade invariant holds.
  instance_ = store_.GetOrCreateCollection("instance",
                                           opts_.collection_options);
  entity_ = store_.GetOrCreateCollection("entity", opts_.collection_options);
  // Only the document store is persisted: the structured side resets
  // to empty so the facade reflects exactly the replaced store
  // (re-ingest structured sources afterwards).
  catalog_ = relational::Catalog();
  registry_ = ingest::SourceRegistry();
  global_schema_ = std::make_unique<match::GlobalSchema>(opts_.schema_options,
                                                         synonyms_.get());
  ingest_seq_ = 0;
  stats_ = PipelineStats{};
  stats_.fragments_ingested = instance_->count();
  stats_.entities_extracted = entity_->count();
  // Streaming-ingest state is derived from the store too: drop it and
  // let the next ingest/search re-seed from the replaced record log.
  record_coll_ = nullptr;
  fused_coll_ = nullptr;
  streaming_.reset();
  cluster_doc_.clear();
  ingest_stats_ = IngestStats{};
}

Status DataTamer::Checkpoint() {
  if (wal_manager_ == nullptr) return Status::OK();
  return wal_manager_->Checkpoint();
}

Status DataTamer::FlushDurability() const {
  if (wal_manager_ == nullptr) return Status::OK();
  return wal_manager_->Flush();
}

Status DataTamer::durability_health() const {
  if (wal_manager_ == nullptr) return Status::OK();
  return wal_manager_->health();
}

storage::DurabilityStats DataTamer::durability_stats() const {
  if (wal_manager_ == nullptr) return storage::DurabilityStats{};
  return wal_manager_->stats();
}

void DataTamer::SetGazetteer(const textparse::Gazetteer* gazetteer) {
  gazetteer_ = gazetteer;
  parser_ = std::make_unique<textparse::DomainParser>(gazetteer_);
}

Result<storage::DocId> DataTamer::IngestTextFragment(std::string_view text,
                                                     const std::string& feed,
                                                     int64_t timestamp) {
  if (parser_ == nullptr) {
    return Status::InvalidArgument(
        "no gazetteer installed; call SetGazetteer first");
  }
  textparse::ParsedFragment frag = parser_->Parse(text, feed, timestamp);
  DocValue instance_doc = textparse::DomainParser::ToInstanceDoc(frag);
  storage::DocId instance_id = instance_->Insert(std::move(instance_doc));
  for (auto& entity_doc : textparse::DomainParser::ToEntityDocs(
           frag, static_cast<int64_t>(instance_id))) {
    entity_->Insert(std::move(entity_doc));
    ++stats_.entities_extracted;
  }
  ++stats_.fragments_ingested;
  return instance_id;
}

Status DataTamer::CreateStandardIndexes() {
  // dt.instance keeps only the default _id index (Table I: nindexes=1).
  // dt.entity gets 7 user indexes + _id = 8 (Table II: nindexes=8).
  for (const char* path : {"type", "name", "surface", "confidence",
                           "instance_id", "award_winning", "source"}) {
    DT_RETURN_NOT_OK(entity_->CreateIndex(path));
  }
  return Status::OK();
}

Table DataTamer::ApplyIngestTransforms(Table table) {
  // Per-column semantic detection drives the normalizing transforms:
  // money converges on "$..." USD renderings, dates on m/d/yyyy.
  std::vector<std::string> attrs;
  for (const auto& a : table.schema().attributes()) attrs.push_back(a.name);
  for (const auto& attr : attrs) {
    std::vector<std::string> cells;
    for (const auto& v : table.Column(attr)) {
      if (!v.is_null()) cells.push_back(v.ToString());
    }
    auto semantic = ingest::DetectColumnSemanticType(cells);
    const char* transform = nullptr;
    if (semantic == ingest::SemanticType::kCurrency) transform = "eur_to_usd";
    if (semantic == ingest::SemanticType::kDate) transform = "us_date";
    if (semantic == ingest::SemanticType::kPhone) {
      transform = "normalize_phone";
    }
    if (transform == nullptr) continue;
    auto fn = transforms_.Get(transform);
    if (!fn.ok()) continue;
    auto transformed = clean::ApplyTransform(table, attr, *fn);
    if (transformed.ok()) table = std::move(transformed).ValueOrDie();
  }
  return table;
}

Result<match::IntegrationReport> DataTamer::IngestStructuredTable(
    Table table, const ReviewResolver& resolver) {
  if (table.source_id().empty()) {
    table.set_source_id("structured/" + std::to_string(stats_.structured_tables));
  }
  // Clean.
  if (opts_.clean_structured_sources) {
    clean::CleaningReport report;
    DT_ASSIGN_OR_RETURN(table,
                        clean::CleanTable(table, opts_.cleaning_options,
                                          &report));
    stats_.cleaning.cells_examined += report.cells_examined;
    stats_.cleaning.nulls_canonicalized += report.nulls_canonicalized;
    stats_.cleaning.whitespace_fixed += report.whitespace_fixed;
    stats_.cleaning.numeric_repaired += report.numeric_repaired;
    stats_.cleaning.outliers_flagged += report.outliers_flagged;
    stats_.cleaning.outliers_dropped += report.outliers_dropped;
  }
  // Transform.
  if (opts_.auto_transform) {
    table = ApplyIngestTransforms(std::move(table));
  }
  // Register provenance.
  ingest::DataSource source;
  source.id = table.source_id();
  source.name = table.name();
  source.kind = ingest::SourceKind::kStructured;
  // Earlier sources outrank later ones at merge time: the first source
  // is the curated reference that seeded the global schema, and the
  // curator vets sources in the order they are onboarded.
  source.trust_priority = std::max(
      opts_.text_trust + 1,
      opts_.structured_trust - static_cast<int>(stats_.structured_tables));
  source.records_ingested = table.num_rows();
  Status reg = registry_.Register(source);
  if (!reg.ok() && !reg.IsAlreadyExists()) return reg;

  // Schema integration.
  auto results = global_schema_->MatchTable(table);
  std::map<std::string, match::GlobalSchema::ReviewResolution> resolutions;
  if (resolver != nullptr) {
    for (const auto& res : results) {
      if (res.decision == match::MatchDecision::kNeedsReview) {
        resolutions[res.source_attr] = {resolver(res, *global_schema_)};
      }
    }
  }
  DT_ASSIGN_OR_RETURN(auto mapping,
                      global_schema_->IntegrateTable(table, results,
                                                     resolutions));
  (void)mapping;
  stats_.structured_rows += table.num_rows();
  ++stats_.structured_tables;
  DT_RETURN_NOT_OK(catalog_.AddTable(std::move(table)).status());
  return global_schema_->reports().back();
}

Result<match::IntegrationReport> DataTamer::IngestSemiStructuredSource(
    const std::string& source_name,
    const std::vector<storage::DocValue>& documents,
    const ReviewResolver& resolver) {
  DT_ASSIGN_OR_RETURN(relational::Table table,
                      ingest::FlattenToTable(source_name, documents));
  table.set_source_id("semistructured/" + source_name);
  // Register under the semi-structured kind before the structured
  // pipeline sees it (which would otherwise register it as structured).
  ingest::DataSource source;
  source.id = table.source_id();
  source.name = source_name;
  source.kind = ingest::SourceKind::kSemiStructured;
  source.trust_priority = std::max(
      opts_.text_trust + 1,
      opts_.structured_trust - static_cast<int>(stats_.structured_tables));
  source.records_ingested = table.num_rows();
  DT_RETURN_NOT_OK(registry_.Register(source));
  return IngestStructuredTable(std::move(table), resolver);
}

Result<match::IntegrationReport> DataTamer::IngestJsonLines(
    const std::string& source_name, std::string_view json_lines,
    const ReviewResolver& resolver) {
  DT_ASSIGN_OR_RETURN(auto docs, ingest::ParseJsonLines(json_lines));
  return IngestSemiStructuredSource(source_name, docs, resolver);
}

std::vector<query::CountRow> DataTamer::TopDiscussed(
    const std::string& entity_type, int64_t k, bool award_winning_only) const {
  query::QueryRequest req;
  req.op = query::QueryOp::kTopDiscussed;
  req.entity_type = entity_type;
  req.k = k;
  req.award_winning_only = award_winning_only;
  req.num_threads = 0;  // the facade's whole budget
  Result<query::QueryResponse> resp = Execute(req);
  if (!resp.ok()) return {};
  return std::move(resp->groups);
}

namespace {

/// True when `pred` holds a TextContains leaf on `path` anywhere.
bool MentionsText(const query::PredicatePtr& pred, const std::string& path) {
  if (pred == nullptr) return false;
  if (pred->kind() == query::PredicateKind::kTextContains) {
    return pred->path() == path;
  }
  for (const query::PredicatePtr& child : pred->children()) {
    if (MentionsText(child, path)) return true;
  }
  return false;
}

}  // namespace

Result<query::QueryResponse> DataTamer::Execute(
    const query::QueryRequest& req) const {
  if (req.op == query::QueryOp::kIngest) {
    // Reads never mutate: the const surface rejects the mutating op
    // instead of silently executing it (read-only servers rely on
    // this).
    return Status::InvalidArgument(
        "ingest is a mutating op; route it through ExecuteMutable");
  }
  // Requests come off the wire: a thread count past the facade's
  // budget is refused rather than silently narrowed.
  const int budget = ResolveNumThreads(opts_.num_threads);
  if (req.num_threads < 0 || req.num_threads > budget) {
    return Status::InvalidArgument(
        "num_threads " + std::to_string(req.num_threads) +
        " outside [0, " + std::to_string(budget) + "]");
  }
  if ((req.op == query::QueryOp::kTopK ||
       req.op == query::QueryOp::kTopDiscussed) &&
      req.k < 0) {
    return Status::InvalidArgument("negative k " + std::to_string(req.k));
  }
  query::FindOptions opts;
  opts.limit = req.limit;
  opts.order_by = req.order_by;
  opts.order_desc = req.order_desc;
  opts.page_size = req.page_size;
  opts.resume_token = req.resume_token;
  opts.use_indexes = req.use_indexes;
  // 1 asks for a serial scan; any other admitted count rides the
  // facade's one pool.
  if (req.num_threads != 1) opts.pool = worker_pool_.get();
  query::ExecStats exec_stats;
  opts.stats = &exec_stats;

  const std::string coll_name = req.op == query::QueryOp::kTopDiscussed
                                    ? std::string("entity")
                                    : req.collection;
  DT_ASSIGN_OR_RETURN(const storage::Collection* coll,
                      store_.GetCollection(coll_name));
  // One version handle per request: the whole execution sees one
  // immutable storage version however the collection mutates. A
  // fragment keyword read pins a version carrying the text index
  // (built on first use), so TEXT plans and resumed pages read the
  // postings of exactly that version.
  const storage::CollectionView view =
      coll_name == "instance" && MentionsText(req.predicate, "text")
          ? coll->GetViewWithTextIndex("text")
          : coll->GetView();

  query::QueryResponse resp;
  switch (req.op) {
    case query::QueryOp::kFind: {
      DT_ASSIGN_OR_RETURN(resp.ids, query::Find(view, req.predicate, opts));
      break;
    }
    case query::QueryOp::kFindPage: {
      DT_ASSIGN_OR_RETURN(query::FindResult page,
                          query::FindPage(view, req.predicate, opts));
      resp.ids = std::move(page.ids);
      resp.next_token = std::move(page.next_token);
      break;
    }
    case query::QueryOp::kExplain: {
      resp.explain = query::ExplainFind(view, req.predicate, opts);
      // The second planning pass only reifies the structured form; it
      // must not double-count into the planning stats.
      query::FindOptions no_stats = opts;
      no_stats.stats = nullptr;
      resp.plan = query::PlanFind(view, req.predicate, no_stats).ToDocValue();
      break;
    }
    case query::QueryOp::kCount:
      resp.groups = query::CountByField(view, req.group_path, req.predicate,
                                        opts);
      break;
    case query::QueryOp::kTopK:
      resp.groups =
          query::TopKByCount(view, req.group_path, req.k, req.predicate, opts);
      break;
    case query::QueryOp::kTopDiscussed: {
      query::PredicatePtr pred =
          query::Predicate::Eq("type", DocValue::Str(req.entity_type));
      if (req.award_winning_only) {
        pred = query::Predicate::And(
            {std::move(pred),
             query::Predicate::Eq("award_winning", DocValue::Str("true"))});
      }
      // Rides the shared bounded top-k machinery (see executor.h's
      // TopKCursor / BoundedTopK) over the planner-routed group counts.
      resp.groups = query::TopKByCount(view, "name", req.k, pred, opts);
      break;
    }
    case query::QueryOp::kIngest:
      break;  // rejected above
  }
  resp.stats = exec_stats;
  return resp;
}

namespace {
std::string NormalizeName(std::string_view s) {
  return ToLower(NormalizeWhitespace(s));
}

/// The global attribute carrying the entity-name concept: among the
/// candidates similar to "name", prefer the one integrating the most
/// sources (the founding bottom-up name attribute), not a stray
/// single-source attribute that happens to be called "name".
int NameConceptIndex(const match::GlobalSchema& schema,
                     const match::SynonymDictionary* synonyms) {
  int best = -1;
  size_t best_provenance = 0;
  for (int g = 0; g < schema.num_attributes(); ++g) {
    double s =
        match::NameSimilarity(schema.attribute(g).name, "name", synonyms);
    if (s < 0.5) continue;
    size_t prov = schema.attribute(g).provenance.size();
    if (best < 0 || prov > best_provenance) {
      best = g;
      best_provenance = prov;
    }
  }
  return best;
}
}  // namespace

std::vector<dedup::DedupRecord> DataTamer::CollectRecords(
    const std::string& entity_type, const std::string& name) const {
  std::vector<dedup::DedupRecord> records;
  const std::string want = NormalizeName(name);
  int64_t next_id = 1;

  // ---- Text side: one record per distinct canonical entity name. ----
  struct TextEntity {
    std::set<int64_t> instance_ids;
    std::string canonical;
  };
  std::unordered_map<std::string, TextEntity> by_name;
  // One view per collection: the type scan, the entity fetches and the
  // fragment fetches each read a single storage version.
  const storage::CollectionView entities = entity_->GetView();
  const storage::CollectionView instances = instance_->GetView();
  // The type restriction routes through the planner, so after
  // CreateStandardIndexes this walk is an index scan over exactly the
  // entities of `entity_type`, not a full collection pass. The name
  // comparison stays in code: it matches on the *normalized* form,
  // which no index key carries.
  query::FindOptions find_opts;
  find_opts.pool = worker_pool_.get();
  auto type_ids = query::Find(
      entities, query::Predicate::Eq("type", DocValue::Str(entity_type)),
      find_opts);
  RethrowIfError(type_ids.status());  // scan bodies cannot fail short of OOM
  for (storage::DocId id : *type_ids) {
    const DocValue* doc = entities.Get(id);
    if (doc == nullptr) continue;
    const DocValue* ename = doc->Find("name");
    if (ename == nullptr || !ename->is_string()) continue;
    std::string norm = NormalizeName(ename->string_value());
    if (!want.empty() && norm != want) continue;
    auto& te = by_name[norm];
    te.canonical = ename->string_value();
    const DocValue* iid = doc->Find("instance_id");
    if (iid != nullptr && iid->is_int()) {
      te.instance_ids.insert(iid->int_value());
    }
  }
  for (auto& [norm, te] : by_name) {
    dedup::DedupRecord rec;
    rec.id = next_id++;
    rec.entity_type = entity_type;
    rec.source_id = "webtext";
    rec.trust_priority = opts_.text_trust;
    rec.ingest_seq = ingest_seq_;
    rec.fields["name"] = te.canonical;
    // TEXT_FEED: concatenated fragments mentioning the entity (cap 3).
    std::string feed;
    int taken = 0;
    for (int64_t iid : te.instance_ids) {
      const DocValue* inst = instances.Get(static_cast<storage::DocId>(iid));
      if (inst == nullptr) continue;
      const DocValue* text = inst->Find("text");
      if (text == nullptr || !text->is_string()) continue;
      if (!feed.empty()) feed += " ... ";
      feed += text->string_value();
      if (++taken >= 3) break;
    }
    if (!feed.empty()) rec.fields["TEXT_FEED"] = feed;
    records.push_back(std::move(rec));
  }

  // ---- Structured side: one record per row naming the entity. ----
  int gname = NameConceptIndex(*global_schema_, synonyms_.get());
  if (gname >= 0) {
    int64_t seq = 0;
    for (const auto& table_name : catalog_.TableNames()) {
      const Table* table = catalog_.GetTable(table_name).ValueOrDie();
      ++seq;
      // Locate this table's source attribute for the name concept and
      // the global mapping of every attribute.
      int name_col = -1;
      std::vector<int> global_of(table->schema().num_attributes(), -1);
      for (int c = 0; c < table->schema().num_attributes(); ++c) {
        int g = global_schema_->MappingOf(
            table->name(), table->schema().attribute(c).name);
        global_of[c] = g;
        if (g == gname) name_col = c;
      }
      if (name_col < 0) continue;
      int trust = opts_.structured_trust;
      auto src = registry_.Get(table->source_id());
      if (src.ok()) trust = src->trust_priority;
      for (int64_t r = 0; r < table->num_rows(); ++r) {
        const Value& nv = table->row(r)[name_col];
        if (nv.is_null()) continue;
        std::string norm = NormalizeName(nv.ToString());
        if (want.empty() ? norm.empty() : norm != want) continue;
        dedup::DedupRecord rec;
        rec.id = next_id++;
        rec.entity_type = entity_type;
        rec.source_id = table->source_id();
        rec.trust_priority = trust;
        rec.ingest_seq = seq;
        rec.fields["name"] = nv.ToString();
        for (int c = 0; c < table->schema().num_attributes(); ++c) {
          if (global_of[c] < 0) continue;
          const Value& v = table->row(r)[c];
          if (v.is_null()) continue;
          rec.fields[global_schema_->attribute(global_of[c]).name] =
              v.ToString();
        }
        records.push_back(std::move(rec));
      }
    }
  }
  return records;
}

Status DataTamer::SaveSnapshot(const std::string& path) const {
  return storage::SaveSnapshot(store_, path, worker_pool_.get());
}

Status DataTamer::LoadSnapshot(const std::string& path) {
  DT_ASSIGN_OR_RETURN(std::unique_ptr<storage::DocumentStore> loaded,
                      storage::LoadSnapshot(path, worker_pool_.get()));
  // Validate before committing so a bad file leaves the facade usable.
  for (const char* required : {"instance", "entity"}) {
    if (!loaded->GetCollection(required).ok()) {
      return Status::Corruption(std::string("snapshot misses the ") +
                                required + " collection");
    }
  }
  // A durable facade must unhook its WAL observers from the dying
  // collections first, and re-baseline afterwards: the loaded snapshot
  // may rewind a lineage the log is ahead of, so the checkpoint below
  // makes the loaded state THE durable state (and prunes stale
  // segments that would otherwise replay over it).
  if (wal_manager_ != nullptr) wal_manager_->DetachAll();
  ReplaceStore(std::move(*loaded));
  if (wal_manager_ != nullptr) {
    DT_RETURN_NOT_OK(wal_manager_->Attach(&store_));
    DT_RETURN_NOT_OK(wal_manager_->Checkpoint());
  }
  return Status::OK();
}

std::vector<storage::SearchHit> DataTamer::SearchFragments(
    std::string_view keywords, int k) const {
  const storage::CollectionView view = instance_->GetViewWithTextIndex("text");
  return view.TextIndexOn("text")->Search(keywords, k);
}

Result<std::vector<dedup::CompositeEntity>> DataTamer::ConsolidateAll(
    const std::string& entity_type, dedup::ConsolidationStats* stats) const {
  auto records = CollectRecords(entity_type, "");
  return dedup::Consolidate(records, opts_.consolidation_options, stats,
                            worker_pool_.get());
}

// ---- Continuous ingest (streaming consolidation) -----------------------

namespace {

/// Deterministic searchable rendering of a composite entity: its field
/// values in field-name order (includes the name). What dt.fused's
/// "text" carries and its text index tokenizes.
std::string FusedText(const dedup::CompositeEntity& entity) {
  std::string text;
  for (const auto& [field, value] : entity.fields) {
    if (value.empty()) continue;
    if (!text.empty()) text += ' ';
    text += value;
  }
  return text;
}

}  // namespace

DocValue DataTamer::FusedEntityDoc(size_t cluster_key) const {
  dedup::CompositeEntity entity = streaming_->EntityOf(cluster_key);
  DocValue doc = dedup::CompositeEntityToDoc(entity);
  doc.Add("text", DocValue::Str(FusedText(entity)));
  return doc;
}

Status DataTamer::EnsureStreaming() {
  if (streaming_ != nullptr) return Status::OK();
  const bool had_records = store_.GetCollection("dedup_record").ok();
  const bool had_fused = store_.GetCollection("fused").ok();
  record_coll_ =
      store_.GetOrCreateCollection("dedup_record", opts_.collection_options);
  fused_coll_ = store_.GetOrCreateCollection("fused", opts_.collection_options);
  if (wal_manager_ != nullptr && (!had_records || !had_fused)) {
    // Collections created after Attach are invisible to the WAL
    // observers; re-attaching enrolls the new lineages (a fresh
    // collection costs one create-collection record). Safe here: the
    // facade is documented externally serialized.
    DT_RETURN_NOT_OK(wal_manager_->Attach(&store_));
  }
  streaming_ = std::make_unique<dedup::StreamingConsolidator>(
      opts_.consolidation_options);
  // Rebuild the resident state from the persisted record log (ascending
  // id = original arrival order), the durable source of truth.
  const storage::CollectionView record_log = record_coll_->GetView();
  std::vector<dedup::DedupRecord> persisted;
  persisted.reserve(static_cast<size_t>(record_log.count()));
  Status decode = Status::OK();
  record_log.ForEach([&](storage::DocId, const DocValue& doc) {
    if (!decode.ok()) return;
    Result<dedup::DedupRecord> rec = dedup::DedupRecordFromDoc(doc);
    if (!rec.ok()) {
      decode = rec.status();
      return;
    }
    ingest_seq_ = std::max(ingest_seq_, rec->ingest_seq);
    persisted.push_back(std::move(*rec));
  });
  DT_RETURN_NOT_OK(decode);
  if (!persisted.empty()) {
    DT_RETURN_NOT_OK(
        streaming_->Seed(std::move(persisted), worker_pool_.get()));
    ingest_stats_.seeded_records =
        static_cast<int64_t>(streaming_->records().size());
  }
  // A clean reopen writes nothing; whatever reconcile does repair
  // commits as one batch (one fsync under kGroup). On failure the next
  // call starts over, so a repair that did not commit is never
  // reported as success.
  storage::WalManager::CommitScope commit(wal_manager_.get());
  Status st = ReconcileFusedDocs();
  if (st.ok()) st = commit.Commit();
  if (!st.ok()) streaming_.reset();
  return st;
}

Status DataTamer::ReconcileFusedDocs() {
  // Expected fused state, derived from the record log.
  std::map<size_t, DocValue> expected;
  for (size_t key : streaming_->ClusterKeys()) {
    expected.emplace(key, FusedEntityDoc(key));
  }
  // Walk the persisted fused docs: adopt matching ones, queue
  // divergent ones for repair and orphans for removal. A crash can
  // land between the record append and the fused upsert; replay then
  // reproduces only the logged prefix, and the log wins.
  cluster_doc_.clear();
  std::vector<storage::DocId> drop;
  std::vector<std::pair<storage::DocId, size_t>> repair;
  fused_coll_->GetView().ForEach([&](storage::DocId id, const DocValue& doc) {
    const DocValue* key_field = doc.Find("cluster_id");
    if (key_field == nullptr || !key_field->is_int() ||
        key_field->int_value() < 0) {
      drop.push_back(id);
      return;
    }
    const size_t key = static_cast<size_t>(key_field->int_value());
    auto it = expected.find(key);
    if (it == expected.end() || cluster_doc_.count(key) > 0) {
      drop.push_back(id);
      return;
    }
    cluster_doc_[key] = id;
    // Storage stamps every doc with its own id as a trailing "_id"
    // field; expect exactly that, so a doc that matches costs nothing.
    it->second.Add("_id", DocValue::Int(static_cast<int64_t>(id)));
    if (!doc.Equals(it->second)) repair.emplace_back(id, key);
  });
  const size_t missing = expected.size() - cluster_doc_.size();
  ingest_stats_.fused_repaired =
      static_cast<int64_t>(drop.size() + repair.size() + missing);
  for (storage::DocId id : drop) {
    DT_RETURN_NOT_OK(fused_coll_->Remove(id));
  }
  for (const auto& [id, key] : repair) {
    DT_RETURN_NOT_OK(fused_coll_->Update(id, std::move(expected.at(key))));
  }
  for (auto& [key, doc] : expected) {
    if (cluster_doc_.count(key) > 0) continue;
    cluster_doc_[key] = fused_coll_->Insert(std::move(doc));
  }
  return Status::OK();
}

Status DataTamer::ApplyClusterDelta(
    const dedup::StreamingConsolidator::IngestDelta& delta) {
  for (size_t key : delta.removed) {
    auto it = cluster_doc_.find(key);
    // Keys the engine merged away within a single ingest (e.g. the new
    // record's transient singleton) never had a doc; skip them.
    if (it == cluster_doc_.end()) continue;
    DT_RETURN_NOT_OK(fused_coll_->Remove(it->second));
    cluster_doc_.erase(it);
    ++ingest_stats_.clusters_removed;
  }
  for (size_t key : delta.upserted) {
    DocValue doc = FusedEntityDoc(key);
    auto it = cluster_doc_.find(key);
    if (it != cluster_doc_.end()) {
      DT_RETURN_NOT_OK(fused_coll_->Update(it->second, std::move(doc)));
    } else {
      cluster_doc_[key] = fused_coll_->Insert(std::move(doc));
    }
    ++ingest_stats_.clusters_upserted;
  }
  return Status::OK();
}

Result<IngestResult> DataTamer::IngestRecords(
    std::vector<dedup::DedupRecord> records) {
  if (wal_manager_ != nullptr) {
    Status health = wal_manager_->health();
    if (!health.ok()) {
      return Status::Unavailable("ingest refused, durability lost: " +
                                 health.ToString());
    }
  }
  // One WAL commit for the whole batch (record log, fused upserts and a
  // first call's collection enrollment alike).
  storage::WalManager::CommitScope commit(wal_manager_.get());
  DT_RETURN_NOT_OK(EnsureStreaming());
  IngestResult out;
  for (dedup::DedupRecord& rec : records) {
    if (rec.ingest_seq == 0) rec.ingest_seq = ++ingest_seq_;
    // The record log append commits first: it is the durable source of
    // truth the fused upsert below (and any crash recovery) derives
    // from.
    record_coll_->Insert(dedup::DedupRecordToDoc(rec));
    DT_ASSIGN_OR_RETURN(dedup::StreamingConsolidator::IngestDelta delta,
                        streaming_->Ingest(std::move(rec), worker_pool_.get()));
    DT_RETURN_NOT_OK(ApplyClusterDelta(delta));
    ++out.ingested;
    out.clusters_upserted += static_cast<int64_t>(delta.upserted.size());
    out.clusters_removed += static_cast<int64_t>(delta.removed.size());
  }
  ingest_stats_.records_ingested += out.ingested;
  const dedup::StreamingStats& ss = streaming_->stats();
  ingest_stats_.pairs_scored = ss.pairs_scored;
  ingest_stats_.candidates_generated = ss.candidates_generated;
  ingest_stats_.retracted_matches = ss.retracted_matches;
  ingest_stats_.rebuilds = ss.rebuilds;
  ingest_stats_.resident_clusters =
      static_cast<int64_t>(streaming_->num_clusters());
  DT_RETURN_NOT_OK(commit.Commit());
  return out;
}

Result<IngestResult> DataTamer::IngestRecord(dedup::DedupRecord record) {
  std::vector<dedup::DedupRecord> one;
  one.push_back(std::move(record));
  return IngestRecords(std::move(one));
}

Result<query::QueryResponse> DataTamer::ExecuteMutable(
    const query::QueryRequest& req) {
  if (req.op != query::QueryOp::kIngest) return Execute(req);
  DT_ASSIGN_OR_RETURN(IngestResult r, IngestRecords(req.ingest_records));
  query::QueryResponse resp;
  resp.ingested = r.ingested;
  resp.ingest_clusters_upserted = r.clusters_upserted;
  resp.ingest_clusters_removed = r.clusters_removed;
  return resp;
}

std::vector<storage::SearchHit> DataTamer::SearchEntities(
    std::string_view keywords, int k) const {
  Result<const storage::Collection*> coll = store_.GetCollection("fused");
  if (!coll.ok()) return {};  // nothing ingested yet
  const storage::CollectionView fused = (*coll)->GetViewWithTextIndex("text");
  return fused.TextIndexOn("text")->Search(keywords, k);
}

Result<std::vector<dedup::CompositeEntity>> DataTamer::IngestedEntities() {
  DT_RETURN_NOT_OK(EnsureStreaming());
  return streaming_->Entities(worker_pool_.get());
}

Result<Table> DataTamer::QueryEntity(const std::string& entity_type,
                                     const std::string& name,
                                     bool include_structured) const {
  std::vector<dedup::DedupRecord> records = CollectRecords(entity_type, name);
  if (!include_structured) {
    records.erase(std::remove_if(records.begin(), records.end(),
                                 [](const dedup::DedupRecord& r) {
                                   return r.source_id != "webtext";
                                 }),
                  records.end());
  }
  if (records.empty()) {
    return Status::NotFound("no data for " + entity_type + " '" + name + "'");
  }
  // All collected records describe the same normalized name; merge them
  // into one composite directly.
  std::vector<size_t> all(records.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  dedup::CompositeEntity composite = dedup::MergeCluster(
      records, all, 0, opts_.consolidation_options.merge_policy);

  // Render as (ATTRIBUTE, VALUE) rows: name concept first (labelled by
  // the global name attribute when one exists), then global attributes
  // in schema order, then the text-pipeline TEXT_FEED.
  std::string name_label = "NAME";
  std::set<std::string> emitted = {"name"};
  relational::Schema schema(
      {{"ATTRIBUTE", relational::ValueType::kString},
       {"VALUE", relational::ValueType::kString}});
  Table out("query_" + name, schema);
  // Find the global name-attribute label.
  int gname = NameConceptIndex(*global_schema_, synonyms_.get());
  if (gname >= 0) name_label = global_schema_->attribute(gname).name;
  auto it_name = composite.fields.find("name");
  std::string display =
      it_name != composite.fields.end() ? it_name->second : name;
  DT_RETURN_NOT_OK(out.Append(
      {Value::Str(name_label), Value::Str(display)}));
  emitted.insert(name_label);
  for (int g = 0; g < global_schema_->num_attributes(); ++g) {
    const std::string& attr = global_schema_->attribute(g).name;
    auto it = composite.fields.find(attr);
    if (it == composite.fields.end() || emitted.count(attr) > 0) continue;
    DT_RETURN_NOT_OK(out.Append({Value::Str(attr), Value::Str(it->second)}));
    emitted.insert(attr);
  }
  for (const auto& [field, value] : composite.fields) {
    if (emitted.count(field) > 0) continue;
    DT_RETURN_NOT_OK(out.Append({Value::Str(field), Value::Str(value)}));
  }
  return out;
}

}  // namespace dt::fusion
