#include "view/catalog.h"

#include <algorithm>

#include "query/parser.h"

namespace vc {

namespace {
const char kSuffix[] = ".vcq";
}  // namespace

ViewCatalog::ViewCatalog(Env* env, std::string root)
    : env_(env), dir_(std::move(root)) {
  if (!dir_.empty() && dir_.back() != '/') dir_ += '/';
  dir_ += "views";
}

std::string ViewCatalog::PathFor(const std::string& name) const {
  return dir_ + "/" + name + kSuffix;
}

Status ViewCatalog::Save(const ViewDefinition& def) {
  // Round-trip through the parser so only valid definitions ever persist.
  Result<ViewDefinition> valid = ParseViewDefinition(Slice(def.Serialize()));
  if (!valid.ok()) return valid.status();
  VC_RETURN_IF_ERROR(env_->CreateDirs(dir_));
  std::string text = valid->Serialize();
  return env_->WriteFile(PathFor(def.name), Slice(text));
}

Result<ViewDefinition> ViewCatalog::Load(const std::string& name) const {
  if (!env_->FileExists(PathFor(name))) {
    return Status::NotFound("no view '" + name + "'");
  }
  std::vector<uint8_t> bytes;
  VC_ASSIGN_OR_RETURN(bytes, env_->ReadFile(PathFor(name)));
  ViewDefinition def;
  VC_ASSIGN_OR_RETURN(def, ParseViewDefinition(Slice(bytes)));
  if (def.name != name) {
    return Status::Corruption("view file '" + name + "' defines '" +
                              def.name + "'");
  }
  return def;
}

Result<std::vector<std::string>> ViewCatalog::List() const {
  std::vector<std::string> names;
  Result<std::vector<std::string>> entries = env_->ListDir(dir_);
  if (!entries.ok()) {
    if (entries.status().IsNotFound()) return names;  // no directory yet
    return entries.status();
  }
  for (const std::string& entry : *entries) {
    const size_t suffix_len = sizeof(kSuffix) - 1;
    if (entry.size() <= suffix_len ||
        entry.compare(entry.size() - suffix_len, suffix_len, kSuffix) != 0) {
      continue;
    }
    names.push_back(entry.substr(0, entry.size() - suffix_len));
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status ViewCatalog::Drop(const std::string& name) {
  if (!env_->FileExists(PathFor(name))) {
    return Status::NotFound("no view '" + name + "'");
  }
  return env_->DeleteFile(PathFor(name));
}

Result<std::vector<MaterializedViewInfo>> ViewCatalog::Candidates(
    const StorageManager& storage) const {
  std::vector<MaterializedViewInfo> out;
  std::vector<std::string> names;
  VC_ASSIGN_OR_RETURN(names, List());
  for (const std::string& name : names) {
    Result<ViewDefinition> def = Load(name);
    if (!def.ok()) continue;
    if (def->source_version == 0 || def->segments == 0) continue;
    Result<VideoMetadata> source = storage.GetVideo(def->source);
    if (!source.ok() || source->version != def->source_version) continue;
    if (!storage.GetVideo(def->name).ok()) continue;
    Result<Query> query = ParseQuery(Slice(def->query));
    if (!query.ok()) continue;
    MaterializedViewInfo info;
    info.name = def->name;
    info.source = def->source;
    info.source_version = def->source_version;
    info.segments = def->segments;
    info.query = *std::move(query);
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace vc
