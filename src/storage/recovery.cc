#include "storage/recovery.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <utility>

#include "common/logging.h"
#include "storage/codec.h"
#include "storage/snapshot.h"

namespace dt::storage {

namespace {

/// MANIFEST kind byte (store snapshots are 1, collections 2).
constexpr uint8_t kKindManifest = 3;
constexpr const char* kManifestName = "MANIFEST";

std::string JoinPath(const std::string& dir, const std::string& name) {
  return dir.empty() ? name : dir + "/" + name;
}

std::string SegmentName(uint64_t seq) {
  return "wal-" + std::to_string(seq) + ".log";
}

/// True for "wal-<digits>.log"; fills the sequence number.
bool ParseSegmentName(const std::string& name, uint64_t* seq) {
  if (name.size() < 9 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  uint64_t v = 0;
  size_t digits = 0;
  for (size_t i = 4; i + 4 < name.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    if (v > (1ull << 60)) return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
    ++digits;
  }
  if (digits == 0) return false;
  *seq = v;
  return true;
}

/// True for "coll-*.dtb" (a checkpoint snapshot this manager wrote).
bool IsCheckpointName(const std::string& name) {
  return name.size() > 9 && name.compare(0, 5, "coll-") == 0 &&
         name.compare(name.size() - 4, 4, ".dtb") == 0;
}

/// Directory entries of `dir` (regular names only; empty on error —
/// recovery treats an unreadable directory as empty and fails later
/// on the file that matters).
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.empty() ? "." : dir.c_str());
  if (d == nullptr) return out;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name != "." && name != "..") out.push_back(std::move(name));
  }
  ::closedir(d);
  return out;
}

/// Encodes the WAL payload for a committed mutation straight from the
/// observer event — same byte layout as `EncodeWalRecord`, minus the
/// DocValue copy a `WalRecord` would force.
Status EncodeMutationPayload(const std::string& collection,
                             uint64_t incarnation, const MutationEvent& ev,
                             std::string* payload) {
  BinaryWriter w(payload);
  switch (ev.op) {
    case MutationEvent::Op::kInsert:
      w.PutU8(static_cast<uint8_t>(WalRecord::Op::kInsert));
      break;
    case MutationEvent::Op::kUpdate:
      w.PutU8(static_cast<uint8_t>(WalRecord::Op::kUpdate));
      break;
    case MutationEvent::Op::kRemove:
      w.PutU8(static_cast<uint8_t>(WalRecord::Op::kRemove));
      break;
    case MutationEvent::Op::kCreateIndex:
      w.PutU8(static_cast<uint8_t>(WalRecord::Op::kCreateIndex));
      break;
  }
  w.PutString(collection);
  w.PutU64(incarnation);
  w.PutU64(ev.epoch);
  switch (ev.op) {
    case MutationEvent::Op::kInsert:
    case MutationEvent::Op::kUpdate:
      w.PutU64(ev.id);
      DT_RETURN_NOT_OK(EncodeDocValue(*ev.doc, payload));
      break;
    case MutationEvent::Op::kRemove:
      w.PutU64(ev.id);
      break;
    case MutationEvent::Op::kCreateIndex:
      PutIndexSpec(&w, *ev.index_paths);
      break;
  }
  return Status::OK();
}

}  // namespace

WalManager::WalManager(DurabilityOptions opts, std::string db_name)
    : opts_(std::move(opts)), db_name_(std::move(db_name)) {}

Result<std::unique_ptr<WalManager>> WalManager::Open(
    const DurabilityOptions& opts, const std::string& db_name,
    std::unique_ptr<DocumentStore>* recovered) {
  recovered->reset();
  if (opts.dir.empty() || opts.durability == Durability::kNone) {
    return Status::InvalidArgument(
        "durability is disabled (empty dir or mode none); do not open a "
        "WalManager");
  }
  auto mgr =
      std::unique_ptr<WalManager>(new WalManager(opts, db_name));
  DT_RETURN_NOT_OK(mgr->Recover(recovered));
  mgr->StartCheckpointThread();
  return mgr;
}

WalManager::~WalManager() {
  {
    std::lock_guard<std::mutex> lock(ckpt_thread_mu_);
    stop_ = true;
  }
  ckpt_cv_.notify_all();
  if (ckpt_thread_.joinable()) ckpt_thread_.join();
  DetachAll();
  // Final durability point (matters for kAsync); failures here have
  // no caller to report to.
  Status st = Flush();
  if (!st.ok()) {
    DT_LOG(Error) << "WAL flush on shutdown failed: " << st.ToString();
  }
}

// ---- manifest ----------------------------------------------------------

Status WalManager::WriteManifestLocked() {
  std::string buf;
  AppendCodecHeader(&buf);
  BinaryWriter w(&buf);
  w.PutU8(kKindManifest);
  w.PutString(db_name_);
  w.PutU64(manifest_floor_);
  w.PutU32(static_cast<uint32_t>(manifest_.size()));
  for (const auto& [name, e] : manifest_) {
    w.PutString(name);
    w.PutString(e.file);
    w.PutU64(e.incarnation);
    w.PutU64(e.epoch);
  }
  return AtomicWriteFile(JoinPath(opts_.dir, kManifestName), buf);
}

Status WalManager::ReadManifestIfPresent(bool* found) {
  *found = false;
  const std::string path = JoinPath(opts_.dir, kManifestName);
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return Status::OK();  // fresh dir
  std::string buf;
  DT_RETURN_NOT_OK(ReadFileToString(path, &buf));
  BinaryReader r(buf);
  DT_RETURN_NOT_OK(ReadCodecHeader(&r));
  uint8_t kind = 0;
  DT_RETURN_NOT_OK(r.ReadU8(&kind));
  if (kind != kKindManifest) {
    return Status::Corruption("not a durability MANIFEST (kind " +
                              std::to_string(kind) + ")");
  }
  DT_RETURN_NOT_OK(r.ReadString(&db_name_));
  DT_RETURN_NOT_OK(r.ReadU64(&manifest_floor_));
  uint32_t count = 0;
  DT_RETURN_NOT_OK(r.ReadU32(&count));
  // Each entry costs >= 2 string length prefixes + 16 bytes.
  if (count > r.remaining() / 24) {
    return Status::Corruption("implausible MANIFEST entry count " +
                              std::to_string(count));
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    ManifestEntry e;
    DT_RETURN_NOT_OK(r.ReadString(&name));
    DT_RETURN_NOT_OK(r.ReadString(&e.file));
    DT_RETURN_NOT_OK(r.ReadU64(&e.incarnation));
    DT_RETURN_NOT_OK(r.ReadU64(&e.epoch));
    // A checkpoint filename is always a plain name inside the
    // durability dir; a path component means the file is bad.
    if (e.file.empty() || e.file.find('/') != std::string::npos) {
      return Status::Corruption("implausible checkpoint filename '" +
                                e.file + "' in MANIFEST");
    }
    manifest_[name] = std::move(e);
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes in MANIFEST");
  }
  *found = true;
  return Status::OK();
}

// ---- recovery ----------------------------------------------------------

Status WalManager::Recover(std::unique_ptr<DocumentStore>* recovered) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (::mkdir(opts_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create durability dir " + opts_.dir +
                           ": " + std::string(strerror(errno)));
  }
  // A saver (checkpoint or manifest write) that died mid-flight leaves
  // temp files behind; they are unreferenced garbage by construction
  // (the rename never landed).
  SweepStaleTempFiles(opts_.dir);

  bool have_manifest = false;
  DT_RETURN_NOT_OK(ReadManifestIfPresent(&have_manifest));

  std::vector<uint64_t> segs;
  for (const std::string& name : ListDir(opts_.dir)) {
    uint64_t s = 0;
    if (ParseSegmentName(name, &s)) segs.push_back(s);
  }
  std::sort(segs.begin(), segs.end());
  const bool have_state = have_manifest || !segs.empty();

  auto store = std::make_unique<DocumentStore>(db_name_);
  for (const auto& [name, e] : manifest_) {
    DT_ASSIGN_OR_RETURN(
        std::unique_ptr<Collection> coll,
        LoadCollectionSnapshot(JoinPath(opts_.dir, e.file)));
    if (coll->incarnation() != e.incarnation ||
        coll->mutation_epoch() != e.epoch) {
      return Status::Corruption("checkpoint " + e.file +
                                " disagrees with its MANIFEST entry for " +
                                name);
    }
    Status st = store->AdoptCollection(name, std::move(coll));
    if (!st.ok()) {
      return Status::Corruption("invalid MANIFEST: " + st.ToString());
    }
    known_lineage_[name] = e.incarnation;
  }

  // Replay every segment at or past the floor, in sequence order.
  // Records below a collection's current epoch are the prefix its
  // checkpoint already folded in; the one exactly above applies; a
  // gap means un-synced log bytes were lost (power loss under
  // kAsync) — replay stops at the last consistent prefix.
  bool stopped = false;
  bool torn_header = false;  // the newest segment's header is torn
  for (uint64_t s : segs) {
    if (s < manifest_floor_) continue;  // folded; pruned next checkpoint
    std::vector<WalRecord> recs;
    WalReadStats rstats;
    Status read = ReadWalSegmentFile(JoinPath(opts_.dir, SegmentName(s)),
                                     &recs, &rstats);
    if (!read.ok()) {
      // A bad *file header* is normally corruption — but the newest
      // segment is the one a crash can cut short mid-header (the
      // header write precedes its fsync), so there it is just a torn
      // tail holding zero records.
      if (s != segs.back()) return read;
      std::string img;
      recovered_torn_bytes_ +=
          ReadFileToString(JoinPath(opts_.dir, SegmentName(s)), &img).ok()
              ? img.size()
              : 0;
      DT_LOG(Warning) << "WAL segment " << SegmentName(s)
                      << " has a torn file header; treating as empty";
      ++recovered_segments_;
      torn_header = true;
      continue;
    }
    ++recovered_segments_;
    recovered_torn_bytes_ += rstats.torn_bytes;
    if (stopped) {
      recovered_skipped_ += recs.size();
      continue;
    }
    for (size_t i = 0; i < recs.size(); ++i) {
      WalRecord& rec = recs[i];
      if (rec.op == WalRecord::Op::kCreateCollection) {
        if (store->GetCollection(rec.collection).ok()) {
          // The checkpoint already captured this collection (or a
          // successor lineage took the name); the record is stale.
          ++recovered_skipped_;
          continue;
        }
        CollectionOptions copts;
        copts.num_shards = static_cast<int>(rec.num_shards);
        copts.initial_extent_size_bytes =
            static_cast<int64_t>(rec.initial_extent_size_bytes);
        copts.max_extent_size_bytes =
            static_cast<int64_t>(rec.max_extent_size_bytes);
        auto coll = std::make_unique<Collection>(rec.ns, copts);
        coll->RestoreLineage(rec.incarnation, 0);
        Status st = store->AdoptCollection(rec.collection, std::move(coll));
        if (!st.ok()) {
          return Status::Corruption("WAL create-collection replay: " +
                                    st.ToString());
        }
        known_lineage_[rec.collection] = rec.incarnation;
        ++recovered_records_;
        continue;
      }
      if (rec.op == WalRecord::Op::kDropCollection) {
        auto res = store->GetCollection(rec.collection);
        if (!res.ok() || res.ValueOrDie()->incarnation() != rec.incarnation) {
          ++recovered_skipped_;
          continue;
        }
        (void)store->DropCollection(rec.collection);
        known_lineage_.erase(rec.collection);
        ++recovered_records_;
        continue;
      }
      // Document/index mutations.
      auto res = store->GetCollection(rec.collection);
      if (!res.ok() ||
          res.ValueOrDie()->incarnation() != rec.incarnation) {
        ++recovered_skipped_;  // stale lineage (dropped/re-created)
        continue;
      }
      Collection* coll = res.ValueOrDie();
      const uint64_t cur = coll->mutation_epoch();
      if (rec.epoch <= cur) {
        ++recovered_skipped_;  // already inside the checkpoint
        continue;
      }
      if (rec.epoch != cur + 1) {
        recovery_gap_ = true;
        stopped = true;
        recovered_skipped_ += recs.size() - i;
        DT_LOG(Warning) << "WAL replay stopped at an epoch gap in "
                        << rec.collection << " (have " << cur << ", record "
                        << rec.epoch << "); recovering the prefix";
        break;
      }
      Status st;
      switch (rec.op) {
        case WalRecord::Op::kInsert:
          st = coll->RestoreDocument(rec.id, std::move(rec.doc));
          break;
        case WalRecord::Op::kUpdate:
          st = coll->Update(rec.id, std::move(rec.doc));
          break;
        case WalRecord::Op::kRemove:
          st = coll->Remove(rec.id);
          break;
        case WalRecord::Op::kCreateIndex:
          st = coll->CreateIndex(rec.index_paths);
          break;
        default:
          st = Status::Corruption("unexpected WAL op");
          break;
      }
      if (!st.ok() || coll->mutation_epoch() != rec.epoch) {
        // A checksummed record that does not apply means checkpoint
        // and log disagree — that is corruption, not a torn tail.
        return Status::Corruption(
            "WAL record (epoch " + std::to_string(rec.epoch) + " of " +
            rec.collection + ") failed to apply: " +
            (st.ok() ? "epoch mismatch after apply" : st.ToString()));
      }
      ++recovered_records_;
    }
  }

  // Open the live segment past everything seen. A torn-header segment
  // holds no record and is rewritten as the live one: left behind a
  // newer segment, the next recovery would take it for corruption.
  const uint64_t next = segs.empty() ? 0 : segs.back() + (torn_header ? 0 : 1);
  seq_ = std::max<uint64_t>(next, std::max<uint64_t>(manifest_floor_, 1));
  DT_ASSIGN_OR_RETURN(
      std::unique_ptr<WalWriter> w,
      WalWriter::Create(JoinPath(opts_.dir, SegmentName(seq_)),
                        opts_.durability));
  {
    std::lock_guard<std::mutex> lk(writer_mu_);
    writer_ = std::move(w);
  }
  if (!have_manifest) {
    // Baseline manifest: replay next time must still start at the
    // oldest surviving segment.
    manifest_floor_ = segs.empty() ? seq_ : std::min(segs.front(), seq_);
    DT_RETURN_NOT_OK(WriteManifestLocked());
  }
  if (have_state) {
    *recovered = std::move(store);
  }
  return Status::OK();
}

// ---- attach / observers ------------------------------------------------

void WalManager::DetachAllLocked() {
  for (auto& [name, coll] : attached_) {
    coll->SetMutationObserver({});
  }
  attached_.clear();
}

void WalManager::DetachAll() {
  std::lock_guard<std::mutex> lock(state_mu_);
  DetachAllLocked();
}

Status WalManager::Attach(DocumentStore* store) {
  std::lock_guard<std::mutex> lock(state_mu_);
  DetachAllLocked();
  bool needs_checkpoint = false;
  for (const std::string& name : store->CollectionNames()) {
    Collection* coll = store->GetCollection(name).ValueOrDie();
    auto it = known_lineage_.find(name);
    const bool known =
        it != known_lineage_.end() && it->second == coll->incarnation();
    if (!known) {
      if (coll->mutation_epoch() == 0) {
        // Fresh collection: one create record enrolls the lineage.
        WalRecord rec;
        rec.op = WalRecord::Op::kCreateCollection;
        rec.collection = name;
        rec.incarnation = coll->incarnation();
        rec.ns = coll->ns();
        const CollectionOptions& copts = coll->options();
        rec.num_shards = static_cast<uint32_t>(copts.num_shards);
        rec.initial_extent_size_bytes =
            static_cast<uint64_t>(copts.initial_extent_size_bytes);
        rec.max_extent_size_bytes =
            static_cast<uint64_t>(copts.max_extent_size_bytes);
        std::string payload;
        DT_RETURN_NOT_OK(EncodeWalRecord(rec, &payload));
        DT_RETURN_NOT_OK(AppendPayload(payload));
        known_lineage_[name] = coll->incarnation();
      } else {
        // A collection with history the log knows nothing about (a
        // snapshot loaded over this durable store): it needs a full
        // baseline checkpoint below.
        needs_checkpoint = true;
      }
    }
    attached_[name] = coll;
  }
  // Lineages the durable state still tracks but the store no longer
  // has: log their drop so recovery does not resurrect them.
  std::vector<std::pair<std::string, uint64_t>> dropped;
  for (const auto& [name, inc] : known_lineage_) {
    if (attached_.find(name) == attached_.end()) dropped.push_back({name, inc});
  }
  for (const auto& [name, inc] : dropped) {
    WalRecord rec;
    rec.op = WalRecord::Op::kDropCollection;
    rec.collection = name;
    rec.incarnation = inc;
    std::string payload;
    DT_RETURN_NOT_OK(EncodeWalRecord(rec, &payload));
    DT_RETURN_NOT_OK(AppendPayload(payload));
    known_lineage_.erase(name);
  }
  for (auto& [name, coll] : attached_) {
    const std::string coll_name = name;
    const uint64_t incarnation = coll->incarnation();
    coll->SetMutationObserver([this, coll_name,
                               incarnation](const MutationEvent& ev) {
      std::string payload;
      Status st = EncodeMutationPayload(coll_name, incarnation, ev, &payload);
      if (st.ok()) st = AppendPayload(payload);
      if (!st.ok()) SetUnhealthy(st);
    });
  }
  if (needs_checkpoint) DT_RETURN_NOT_OK(CheckpointLocked());
  return health();
}

namespace {

/// The innermost open commit scope of the calling thread.
thread_local WalManager::CommitScope* t_commit_scope = nullptr;

}  // namespace

WalManager::CommitScope::CommitScope(WalManager* mgr)
    : mgr_(mgr), outer_(t_commit_scope) {
  t_commit_scope = this;
}

WalManager::CommitScope::~CommitScope() {
  if (!pending_.empty()) (void)Commit();
  t_commit_scope = outer_;
}

Status WalManager::CommitScope::Commit() {
  if (mgr_ == nullptr) return Status::OK();
  for (const auto& [writer, seq] : pending_) {
    Status st = writer->WaitDurable(seq);
    if (!st.ok()) mgr_->SetUnhealthy(st);
  }
  pending_.clear();
  return mgr_->health();
}

Status WalManager::AppendPayload(std::string_view payload) {
  std::shared_ptr<WalWriter> w;
  {
    std::lock_guard<std::mutex> lk(writer_mu_);
    w = writer_;
  }
  if (w == nullptr) {
    return Status::Internal("WAL manager has no live segment");
  }
  // Only kGroup defers: kStrict promises a sync per append, and kAsync
  // has no sync to defer.
  CommitScope* scope =
      opts_.durability == Durability::kGroup ? t_commit_scope : nullptr;
  Status st;
  if (scope != nullptr && scope->mgr_ == this) {
    Result<uint64_t> seq = w->Write(payload);
    st = seq.status();
    if (seq.ok()) {
      auto& pending = scope->pending_;
      if (!pending.empty() && pending.back().first == w) {
        pending.back().second = *seq;
      } else {
        pending.emplace_back(w, *seq);
      }
    }
  } else {
    st = w->Append(payload);
  }
  if (!st.ok()) {
    SetUnhealthy(st);
    return st;
  }
  if (opts_.checkpoint_wal_bytes > 0 &&
      w->bytes_written() >= opts_.checkpoint_wal_bytes) {
    ckpt_cv_.notify_one();
  }
  return st;
}

void WalManager::SetUnhealthy(const Status& st) {
  std::lock_guard<std::mutex> lock(health_mu_);
  if (health_.ok()) {
    health_ = st;
    DT_LOG(Error) << "durability lost: " << st.ToString();
  }
}

Status WalManager::health() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_;
}

// ---- checkpoints -------------------------------------------------------

Status WalManager::RotateSegmentLocked() {
  const uint64_t next_seq = seq_ + 1;
  DT_ASSIGN_OR_RETURN(
      std::unique_ptr<WalWriter> fresh,
      WalWriter::Create(JoinPath(opts_.dir, SegmentName(next_seq)),
                        opts_.durability));
  std::shared_ptr<WalWriter> retired;
  {
    std::lock_guard<std::mutex> lk(writer_mu_);
    retired = std::move(writer_);
    writer_ = std::move(fresh);
  }
  seq_ = next_seq;
  if (retired != nullptr) {
    // The retiring segment stays replay-relevant until the manifest
    // floor passes it; make its tail durable now.
    DT_RETURN_NOT_OK(retired->Sync());
    WalWriterStats s = retired->stats();
    retired_writer_stats_.appends += s.appends;
    retired_writer_stats_.bytes += s.bytes;
    retired_writer_stats_.syncs += s.syncs;
    retired_writer_stats_.group_batches += s.group_batches;
  }
  return Status::OK();
}

Status WalManager::CheckpointLocked() {
  DT_RETURN_NOT_OK(health());
  // Rotate FIRST: every record appended from here on lands in (or
  // after) the new floor segment, so a mutation racing the snapshot
  // encodes below is either inside the snapshot (epoch <= the view's)
  // or replayable from a surviving segment — never only in a segment
  // this checkpoint prunes.
  DT_RETURN_NOT_OK(RotateSegmentLocked());
  const uint64_t new_floor = seq_;
  std::map<std::string, ManifestEntry> next;
  for (auto& [name, coll] : attached_) {
    CollectionView view = coll->GetView();
    auto it = manifest_.find(name);
    if (it != manifest_.end() &&
        it->second.incarnation == view.incarnation() &&
        it->second.epoch == view.mutation_epoch()) {
      // Clean since its last checkpoint: reuse the file, zero I/O —
      // this is what keeps checkpoint cost proportional to the write
      // rate instead of the corpus size.
      next[name] = it->second;
      ++ckpt_reused_;
      continue;
    }
    ManifestEntry e;
    e.incarnation = view.incarnation();
    e.epoch = view.mutation_epoch();
    e.file = "coll-" + std::to_string(new_floor) + "-" +
             std::to_string(next.size()) + ".dtb";
    std::string buf;
    DT_RETURN_NOT_OK(EncodeCollectionSnapshot(view, nullptr, &buf));
    DT_RETURN_NOT_OK(AtomicWriteFile(JoinPath(opts_.dir, e.file), buf));
    next[name] = std::move(e);
    ++ckpt_written_;
  }
  // The manifest swap is the commit point: a crash before the rename
  // leaves the previous manifest + all segments, which replays to the
  // same state.
  manifest_ = std::move(next);
  manifest_floor_ = new_floor;
  for (const auto& [name, e] : manifest_) {
    known_lineage_[name] = e.incarnation;
  }
  DT_RETURN_NOT_OK(WriteManifestLocked());
  PruneLocked();
  ++checkpoints_;
  return Status::OK();
}

Status WalManager::Checkpoint() {
  std::lock_guard<std::mutex> lock(state_mu_);
  return CheckpointLocked();
}

void WalManager::PruneLocked() {
  std::set<std::string> live;
  for (const auto& [name, e] : manifest_) live.insert(e.file);
  for (const std::string& name : ListDir(opts_.dir)) {
    uint64_t s = 0;
    if (ParseSegmentName(name, &s)) {
      if (s < manifest_floor_) {
        (void)std::remove(JoinPath(opts_.dir, name).c_str());
      }
    } else if (IsCheckpointName(name) && live.find(name) == live.end()) {
      (void)std::remove(JoinPath(opts_.dir, name).c_str());
    }
  }
}

// ---- flush / stats -----------------------------------------------------

Status WalManager::Flush() {
  std::shared_ptr<WalWriter> w;
  {
    std::lock_guard<std::mutex> lk(writer_mu_);
    w = writer_;
  }
  if (w == nullptr) return health();
  Status st = w->Sync();
  if (!st.ok()) SetUnhealthy(st);
  return st;
}

uint64_t WalManager::wal_bytes() const {
  std::lock_guard<std::mutex> lk(writer_mu_);
  return writer_ != nullptr ? writer_->bytes_written() : 0;
}

DurabilityStats WalManager::stats() const {
  DurabilityStats out;
  out.enabled = true;
  out.mode = opts_.durability;
  std::lock_guard<std::mutex> lock(state_mu_);
  WalWriterStats w = retired_writer_stats_;
  std::shared_ptr<WalWriter> cur;
  {
    std::lock_guard<std::mutex> lk(writer_mu_);
    cur = writer_;
  }
  if (cur != nullptr) {
    WalWriterStats c = cur->stats();
    w.appends += c.appends;
    w.bytes += c.bytes;
    w.syncs += c.syncs;
    w.group_batches += c.group_batches;
  }
  out.wal_appends = w.appends;
  out.wal_bytes = w.bytes;
  out.wal_syncs = w.syncs;
  out.wal_group_batches = w.group_batches;
  out.checkpoints = checkpoints_;
  out.checkpoint_collections_written = ckpt_written_;
  out.checkpoint_collections_reused = ckpt_reused_;
  out.recovered_segments = recovered_segments_;
  out.recovered_records = recovered_records_;
  out.recovered_skipped = recovered_skipped_;
  out.recovered_torn_bytes = recovered_torn_bytes_;
  out.recovery_gap = recovery_gap_;
  return out;
}

void WalManager::StartCheckpointThread() {
  if (opts_.checkpoint_wal_bytes == 0) return;
  ckpt_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(ckpt_thread_mu_);
    while (!stop_) {
      // The condvar is a hint (AppendPayload pokes it past the
      // high-water mark); the timeout bounds how stale the hint can
      // get without one.
      ckpt_cv_.wait_for(lk, std::chrono::milliseconds(200));
      if (stop_) break;
      if (wal_bytes() < opts_.checkpoint_wal_bytes) continue;
      lk.unlock();
      Status st = Checkpoint();
      if (!st.ok()) {
        DT_LOG(Warning) << "background checkpoint failed: " << st.ToString();
      }
      lk.lock();
    }
  });
}

}  // namespace dt::storage
