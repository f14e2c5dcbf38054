#ifndef VC_TESTS_TEST_ENV_H_
#define VC_TESTS_TEST_ENV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"

namespace vc {

/// An Env that forwards every call to `base`; tests override the calls
/// they observe or fail.
class ForwardingEnv : public Env {
 public:
  explicit ForwardingEnv(Env* base) : base_(base) {}

  Status WriteFile(const std::string& path, Slice contents) override {
    return base_->WriteFile(path, contents);
  }
  Status AppendFile(const std::string& path, Slice contents) override {
    return base_->AppendFile(path, contents);
  }
  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                             uint64_t offset,
                                             uint64_t length) override {
    return base_->ReadFileRange(path, offset, length);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  Status RemoveDirRecursive(const std::string& path) override {
    return base_->RemoveDirRecursive(path);
  }

 private:
  Env* base_;
};

/// Fails every ListDir with IOError while armed — a transient I/O error
/// while listing a directory that does exist.
class FailingListEnv : public ForwardingEnv {
 public:
  using ForwardingEnv::ForwardingEnv;

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    if (armed) return Status::IOError("list '" + path + "': injected");
    return ForwardingEnv::ListDir(path);
  }

  bool armed = false;
};

/// Fails every WriteFile of a catalog metadata file (`metadata.v*`) with
/// IOError while armed — a commit whose cells landed but whose commit
/// point did not.
class FailingMetadataWriteEnv : public ForwardingEnv {
 public:
  using ForwardingEnv::ForwardingEnv;

  Status WriteFile(const std::string& path, Slice contents) override {
    const size_t slash = path.rfind('/');
    const std::string_view file =
        std::string_view(path).substr(slash == std::string::npos ? 0
                                                                 : slash + 1);
    if (armed && file.starts_with("metadata.v")) {
      return Status::IOError("write '" + path + "': injected");
    }
    return ForwardingEnv::WriteFile(path, contents);
  }

  bool armed = false;
};

}  // namespace vc

#endif  // VC_TESTS_TEST_ENV_H_
