/// \file document_store.h
/// \brief Named registry of sharded document collections (the "dt"
/// database of the paper: dt.instance, dt.entity, ...).
///
/// The registry itself (create/drop/lookup) is not synchronized —
/// establish the collection set before going multi-threaded. The
/// collections it hands out are: readers take epoch-pinned
/// `CollectionView` handles (see collection.h) and may run
/// concurrently with each collection's internally serialized writers.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/collection.h"

namespace dt::storage {

/// \brief A database holding named collections.
class DocumentStore {
 public:
  /// \param db_name Prefix used to build collection namespaces
  ///        ("dt" -> "dt.instance").
  explicit DocumentStore(std::string db_name = "dt")
      : db_name_(std::move(db_name)) {}

  /// Creates a collection; fails with AlreadyExists on a name clash.
  Result<Collection*> CreateCollection(const std::string& name,
                                       CollectionOptions opts = {});

  /// Returns the collection, or NotFound.
  Result<Collection*> GetCollection(const std::string& name);
  Result<const Collection*> GetCollection(const std::string& name) const;

  /// Installs an externally constructed collection under `name`
  /// (snapshot loading keeps the collection's original ns/options this
  /// way); AlreadyExists on a name clash.
  Status AdoptCollection(const std::string& name,
                         std::unique_ptr<Collection> coll);

  /// Returns the collection if present, else creates it.
  Collection* GetOrCreateCollection(const std::string& name,
                                    CollectionOptions opts = {});

  /// Drops a collection; NotFound if absent.
  Status DropCollection(const std::string& name);

  /// Names of all collections, sorted.
  std::vector<std::string> CollectionNames() const;

  const std::string& db_name() const { return db_name_; }

 private:
  std::string db_name_;
  std::map<std::string, std::unique_ptr<Collection>> collections_;
};

}  // namespace dt::storage
