#include "common/env.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>

namespace vc {

namespace fs = std::filesystem;

namespace {

std::string ErrnoMessage(const std::string& path, const char* op) {
  return std::string(op) + " '" + path + "': " + std::strerror(errno);
}

/// POSIX-backed environment using <filesystem> and stdio.
class PosixEnv final : public Env {
 public:
  Status WriteFile(const std::string& path, Slice contents) override {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return Status::IOError(ErrnoMessage(tmp, "open"));
      out.write(reinterpret_cast<const char*>(contents.data()),
                static_cast<std::streamsize>(contents.size()));
      if (!out) return Status::IOError(ErrnoMessage(tmp, "write"));
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) return Status::IOError("rename '" + tmp + "': " + ec.message());
    return Status::OK();
  }

  Status AppendFile(const std::string& path, Slice contents) override {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out) return Status::IOError(ErrnoMessage(path, "open"));
    out.write(reinterpret_cast<const char*>(contents.data()),
              static_cast<std::streamsize>(contents.size()));
    if (!out) return Status::IOError(ErrnoMessage(path, "append"));
    return Status::OK();
  }

  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return Status::NotFound("file '" + path + "'");
    auto size = in.tellg();
    in.seekg(0);
    std::vector<uint8_t> data(static_cast<size_t>(size));
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(size));
    if (!in) return Status::IOError(ErrnoMessage(path, "read"));
    return data;
  }

  Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                             uint64_t offset,
                                             uint64_t length) override {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("file '" + path + "'");
    in.seekg(static_cast<std::streamoff>(offset));
    std::vector<uint8_t> data(length);
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(length));
    if (static_cast<uint64_t>(in.gcount()) != length) {
      return Status::OutOfRange("short read from '" + path + "'");
    }
    return data;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    std::error_code ec;
    auto size = fs::file_size(path, ec);
    if (ec) return Status::NotFound("file '" + path + "'");
    return static_cast<uint64_t>(size);
  }

  bool FileExists(const std::string& path) override {
    std::error_code ec;
    return fs::exists(path, ec);
  }

  Status DeleteFile(const std::string& path) override {
    std::error_code ec;
    if (!fs::remove(path, ec) || ec) {
      return Status::IOError("delete '" + path + "'" +
                             (ec ? ": " + ec.message() : ""));
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) return Status::IOError("rename '" + from + "': " + ec.message());
    return Status::OK();
  }

  Status CreateDirs(const std::string& path) override {
    std::error_code ec;
    fs::create_directories(path, ec);
    if (ec) return Status::IOError("mkdir '" + path + "': " + ec.message());
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    std::error_code ec;
    std::vector<std::string> names;
    for (auto it = fs::directory_iterator(path, ec);
         !ec && it != fs::directory_iterator(); it.increment(ec)) {
      names.push_back(it->path().filename().string());
    }
    // A missing directory (or a path that is not one) is an answer, not a
    // failure: callers tell "nothing there yet" from a failed listing.
    if (ec == std::errc::no_such_file_or_directory ||
        ec == std::errc::not_a_directory) {
      return Status::NotFound("list '" + path + "': " + ec.message());
    }
    if (ec) return Status::IOError("list '" + path + "': " + ec.message());
    return names;
  }

  Status RemoveDirRecursive(const std::string& path) override {
    std::error_code ec;
    fs::remove_all(path, ec);
    if (ec) return Status::IOError("rmdir '" + path + "': " + ec.message());
    return Status::OK();
  }
};

/// In-memory environment: a flat map from path to contents. Directories are
/// implicit (a path "exists" as a directory if any file lives under it), which
/// is sufficient for the storage layer's layout.
class MemEnv final : public Env {
 public:
  Status WriteFile(const std::string& path, Slice contents) override {
    std::lock_guard<std::mutex> lock(mu_);
    files_[path] = contents.ToVector();
    return Status::OK();
  }

  Status AppendFile(const std::string& path, Slice contents) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto& file = files_[path];
    file.insert(file.end(), contents.data(), contents.data() + contents.size());
    return Status::OK();
  }

  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("file '" + path + "'");
    return it->second;
  }

  Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                             uint64_t offset,
                                             uint64_t length) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("file '" + path + "'");
    if (offset + length > it->second.size()) {
      return Status::OutOfRange("short read from '" + path + "'");
    }
    return std::vector<uint8_t>(it->second.begin() + offset,
                                it->second.begin() + offset + length);
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("file '" + path + "'");
    return static_cast<uint64_t>(it->second.size());
  }

  bool FileExists(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.count(path) > 0) return true;
    return HasChildLocked(path);
  }

  Status DeleteFile(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.erase(path) == 0) {
      return Status::IOError("delete '" + path + "': not found");
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(from);
    if (it == files_.end()) {
      return Status::IOError("rename '" + from + "': not found");
    }
    files_[to] = std::move(it->second);
    files_.erase(it);
    return Status::OK();
  }

  Status CreateDirs(const std::string&) override { return Status::OK(); }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    std::string prefix = path;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    std::vector<std::string> names;
    std::string last;
    for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      std::string rest = it->first.substr(prefix.size());
      std::string child = rest.substr(0, rest.find('/'));
      if (child != last) {
        names.push_back(child);
        last = child;
      }
    }
    return names;
  }

  Status RemoveDirRecursive(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    std::string prefix = path;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    for (auto it = files_.lower_bound(prefix); it != files_.end();) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      it = files_.erase(it);
    }
    return Status::OK();
  }

 private:
  bool HasChildLocked(const std::string& path) {
    std::string prefix = path;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    auto it = files_.lower_bound(prefix);
    return it != files_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;
  }

  std::mutex mu_;
  std::map<std::string, std::vector<uint8_t>> files_;
};

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

std::unique_ptr<Env> NewMemEnv() { return std::make_unique<MemEnv>(); }

}  // namespace vc
