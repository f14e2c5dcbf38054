#ifndef VC_COMMON_ENV_H_
#define VC_COMMON_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace vc {

/// \brief Filesystem abstraction (rocksdb::Env analogue).
///
/// The storage manager performs all persistence through an `Env`, which lets
/// tests and benchmarks run against an in-memory filesystem (`NewMemEnv`)
/// while production uses the real one (`Env::Default`). Paths use '/'
/// separators; directories are created non-recursively except where noted.
class Env {
 public:
  virtual ~Env() = default;

  /// Process-wide POSIX filesystem environment (not owned by caller).
  static Env* Default();

  /// Replaces `path` with `contents`; a reader sees the old file or the
  /// whole new one, never a prefix. What each Env guarantees:
  /// - `Env::Default()` writes `<path>.tmp`, then renames it over `path`.
  ///   The rename is atomic on POSIX filesystems; nothing is fsynced, so a
  ///   power loss may lose a write that returned OK. A failed write can
  ///   leave the `.tmp` file behind, never a torn `path`.
  /// - `NewMemEnv()` swaps the contents under its lock.
  /// The catalog's commit point is this call on `metadata.v<N>.vcmf`.
  virtual Status WriteFile(const std::string& path, Slice contents) = 0;

  /// Appends `contents` to `path`, creating it if absent.
  virtual Status AppendFile(const std::string& path, Slice contents) = 0;

  /// Reads the whole file.
  virtual Result<std::vector<uint8_t>> ReadFile(const std::string& path) = 0;

  /// Reads `length` bytes starting at `offset`. Short reads are errors.
  virtual Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                                     uint64_t offset,
                                                     uint64_t length) = 0;

  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  /// Creates a directory and any missing parents.
  virtual Status CreateDirs(const std::string& path) = 0;

  /// Lists immediate children (names only, no paths) of a directory.
  /// Returns NotFound when `path` is not an existing directory and IOError
  /// when listing it fails; an implementation may instead list a missing
  /// directory as empty.
  virtual Result<std::vector<std::string>> ListDir(const std::string& path) = 0;

  /// Recursively removes a directory tree (used by DROP and tests).
  virtual Status RemoveDirRecursive(const std::string& path) = 0;
};

/// Creates a fresh in-memory Env. Each call returns an isolated filesystem.
std::unique_ptr<Env> NewMemEnv();

}  // namespace vc

#endif  // VC_COMMON_ENV_H_
