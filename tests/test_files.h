/// \file test_files.h
/// \brief Scratch paths and whole-file I/O shared by the persistence
/// tests (snapshots, statistics, WAL, recovery, ingest parity).

#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

namespace dt {

/// A per-process scratch path under gtest's temp dir, for a file or a
/// directory tree. Anything left at the path is removed on
/// construction and on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& tag)
      : path_(::testing::TempDir() + "dt_" + tag + "_" +
              std::to_string(::getpid())) {
    RemoveAll();
  }
  ~TempPath() { RemoveAll(); }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  const std::string& path() const { return path_; }

 private:
  void RemoveAll() const {
    const std::string cmd = "rm -rf '" + path_ + "'";
    (void)!std::system(cmd.c_str());
  }

  std::string path_;
};

/// The whole content of `path` ("" when it cannot be read).
inline std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Replaces the content of `path` with `bytes`.
inline void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace dt
