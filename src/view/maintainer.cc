#include "view/maintainer.h"

#include <utility>

#include "common/crc32.h"
#include "query/cost_model.h"
#include "query/executor.h"
#include "query/parser.h"

namespace vc {

struct ViewMaintainer::Registration {
  std::string name;
  Query query;  ///< As registered (subscribe or store outermost).
  std::string source;
  bool is_view = false;
  std::string defining_text;  ///< Canonical store-sink text (views only).
  uint32_t maintained_version = 0;
  /// DataDir of the source timeline maintained so far. Live checkpoints
  /// share one data directory, so append-only growth keeps this constant;
  /// a re-ingest starts a new directory and invalidates every slice
  /// already processed — maintenance latches an error instead of serving
  /// the old timeline's bytes as the new version's.
  std::string maintained_data_dir;
  size_t next_slice = 0;  ///< First defining-plan slice not yet processed.
  /// Open streaming writer of the view video; one per incremental run,
  /// archived (Commit) when the source archives. Dropping it uncommitted
  /// (RefreshView) abandons the invisible version's cells.
  std::unique_ptr<StorageManager::VideoWriter> writer;
  std::vector<StandingQueryResult> results;
  Status error;  ///< First maintenance error; latched.
};

namespace {

/// Walks the chain under the sink and returns the single Scan leaf's video;
/// rejects shapes incremental maintenance cannot serve.
Result<std::string> SingleScanSource(const LogicalNode* node) {
  while (node != nullptr) {
    switch (node->kind) {
      case LogicalOpKind::kScan:
        return node->video;
      case LogicalOpKind::kUnion:
        return Status::InvalidArgument(
            "standing queries take a single scan, not a union");
      case LogicalOpKind::kStore:
      case LogicalOpKind::kToFile:
      case LogicalOpKind::kSubscribe:
        return Status::InvalidArgument(
            std::string(LogicalOpName(node->kind)) +
            " cannot appear inside a standing query");
      default:
        node = node->inputs.empty() ? nullptr : node->inputs[0].get();
    }
  }
  return Status::InvalidArgument("standing query has no scan");
}

}  // namespace

ViewMaintainer::ViewMaintainer(VisualCloud* db)
    : db_(db),
      catalog_(db->storage()->env(), db->storage()->root()) {
  db_->AddObserver(this);
}

ViewMaintainer::~ViewMaintainer() { db_->RemoveObserver(this); }

ViewMaintainer::Registration* ViewMaintainer::Find(const std::string& name) {
  for (const auto& reg : registrations_) {
    if (reg->name == name) return reg.get();
  }
  return nullptr;
}

Result<std::string> ViewMaintainer::Register(Slice query_text) {
  Result<Query> parsed = ParseQuery(query_text);
  if (!parsed.ok()) return parsed.status();
  const LogicalNode* root = parsed->root().get();
  if (root == nullptr || root->kind != LogicalOpKind::kSubscribe) {
    return Status::InvalidArgument(
        "standing queries end in subscribe(<name>)");
  }
  const std::string name = root->target;
  const LogicalNode* inner = root->inputs[0].get();
  bool is_view = false;
  std::string defining_text;
  if (inner->kind == LogicalOpKind::kStore) {
    if (inner->target != name) {
      return Status::InvalidArgument("standing query '" + name +
                                     "' stores into '" + inner->target +
                                     "'; the names must match");
    }
    is_view = true;
    // Canonical text always ends " | subscribe(<name>)"; strip it to get
    // the store-sink defining query.
    const std::string full = parsed->ToString();
    const std::string suffix = " | subscribe(" + name + ")";
    if (full.size() <= suffix.size() ||
        full.compare(full.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      return Status::Internal("canonical standing-query text mismatch");
    }
    defining_text = full.substr(0, full.size() - suffix.size());
  } else if (inner->kind != LogicalOpKind::kEncode) {
    return Status::InvalidArgument(
        "standing queries need an encode (or encode|store) sink before "
        "subscribe");
  }
  std::lock_guard<std::mutex> lock(mu_);
  VC_RETURN_IF_ERROR(RegisterLocked(name, *parsed, is_view, defining_text));
  return name;
}

Status ViewMaintainer::CreateView(const std::string& name,
                                  Slice defining_query) {
  ViewDefinition def;
  VC_ASSIGN_OR_RETURN(def, MakeViewDefinition(name, defining_query));
  Result<Query> parsed = ParseQuery(Slice(def.query));
  if (!parsed.ok()) return parsed.status();
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterLocked(name, *parsed, /*is_view=*/true, def.query);
}

Status ViewMaintainer::RegisterLocked(const std::string& name,
                                      const Query& query, bool is_view,
                                      const std::string& defining_text) {
  if (Find(name) != nullptr) {
    return Status::InvalidArgument("standing query '" + name +
                                   "' already registered");
  }
  const LogicalNode* sink = query.root().get();
  if (sink->kind == LogicalOpKind::kSubscribe) sink = sink->inputs[0].get();
  std::string source;
  VC_ASSIGN_OR_RETURN(
      source, SingleScanSource(sink->kind == LogicalOpKind::kStore
                                   ? sink->inputs[0].get()
                                   : sink));
  if (is_view) {
    ViewDefinition def;
    VC_ASSIGN_OR_RETURN(def, MakeViewDefinition(name, Slice(defining_text)));
    VC_RETURN_IF_ERROR(catalog_.Save(def));
  }
  auto reg = std::make_unique<Registration>();
  reg->name = name;
  reg->query = query;
  reg->source = std::move(source);
  reg->is_view = is_view;
  reg->defining_text = defining_text;
  registrations_.push_back(std::move(reg));
  return Status::OK();
}

Status ViewMaintainer::MaintainLocked(Registration* reg) {
  if (!reg->error.ok()) return reg->error;
  auto latch = [&](const Status& status) {
    reg->error = status;
    if (status_.ok()) status_ = status;
    return status;
  };

  StorageManager* storage = db_->storage();
  Result<VideoMetadata> source = storage->GetVideo(reg->source);
  if (!source.ok()) return Status::OK();  // source not ingested yet
  if (source->version == reg->maintained_version) return Status::OK();
  if (reg->maintained_version != 0 &&
      source->DataDir() != reg->maintained_data_dir) {
    return latch(Status::Aborted(
        "source '" + reg->source + "' v" + std::to_string(source->version) +
        " is not append-only growth of the maintained timeline; '" +
        reg->name + "' needs a full refresh"));
  }

  // Re-plan against the new snapshot. Predicates are segment-local, so
  // already-processed slices come out identical and new segments append
  // new slices — the basis of incremental == full-recompute byte identity.
  OptimizeOptions options;
  options.scan_override = &*source;
  const CostModel pinned_model;
  options.cost_model = &pinned_model;
  Result<PhysicalPlan> planned = Optimize(reg->query, storage, options);
  if (!planned.ok()) return latch(planned.status());
  PhysicalPlan& plan = *planned;
  const ScanPlan& scan = plan.scans[0];

  bool appended = false;
  for (size_t i = reg->next_slice; i < scan.slices.size(); ++i) {
    // One encode-sink execution over exactly this slice: the same piece
    // the one-shot plan builds for it (pieces are per segment slice).
    PhysicalPlan piece_plan;
    ScanPlan single;
    single.metadata = scan.metadata;
    single.slices.push_back(scan.slices[i]);
    piece_plan.scans.push_back(std::move(single));
    piece_plan.sink = SinkKind::kEncode;
    piece_plan.encode_qp = plan.encode_qp;
    piece_plan.qp_explicit = plan.qp_explicit;
    piece_plan.transcode_free = scan.slices[i].stitch;
    Result<QueryResult> result = ExecutePlan(piece_plan, storage);
    if (!result.ok()) return latch(result.status());

    std::vector<uint8_t> bytes = result->encoded.Serialize();
    StandingQueryResult emit;
    emit.index = static_cast<int>(i);
    emit.source_segment = scan.slices[i].segment;
    emit.source_version = source->version;
    emit.bytes = bytes.size();
    emit.checksum = Crc32(Slice(bytes));
    emit.cells_scanned = result->cells_scanned;

    if (reg->is_view) {
      if (reg->writer == nullptr) {
        Result<std::unique_ptr<StorageManager::VideoWriter>> writer =
            storage->NewVideoWriter(DerivedVideoMetadata(
                reg->name, scan.metadata, StoreLadderFor(plan)));
        if (!writer.ok()) return latch(writer.status());
        reg->writer = *std::move(writer);
      }
      Result<std::vector<std::vector<uint8_t>>> cells = SplitPieceToCells(
          result->encoded, scan.metadata.tile_rows, scan.metadata.tile_cols);
      if (!cells.ok()) return latch(cells.status());
      Status added = reg->writer->AddSegment(
          static_cast<uint32_t>(result->encoded.frames.size()), *cells);
      if (!added.ok()) return latch(added);
      emit.view_segment = static_cast<int>(i);
      appended = true;
    }
    reg->results.push_back(std::move(emit));
    reg->next_slice = i + 1;
  }

  if (reg->is_view && reg->writer != nullptr) {
    // Publish: checkpoint while the source streams (append-only growth
    // continues), archive when the source archived. Archival happens even
    // with nothing appended this pass — the source's final commit may add
    // no segments (the last one was already published as a checkpoint),
    // but the view must still follow it out of the streaming state.
    if (source->streaming) {
      if (appended) {
        Result<uint32_t> version = reg->writer->CommitCheckpoint();
        if (!version.ok()) return latch(version.status());
      }
    } else {
      Result<uint32_t> version = reg->writer->Commit();
      if (!version.ok()) return latch(version.status());
      reg->writer.reset();
    }
  }
  if (reg->is_view && reg->next_slice > 0) {
    ViewDefinition def;
    def.name = reg->name;
    def.source = reg->source;
    def.source_version = source->version;
    def.segments = static_cast<int>(reg->next_slice);
    def.query = reg->defining_text;
    Status saved = catalog_.Save(def);
    if (!saved.ok()) return latch(saved);
  }
  reg->maintained_version = source->version;
  reg->maintained_data_dir = source->DataDir();
  return Status::OK();
}

Status ViewMaintainer::Maintain(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Registration* reg = Find(name);
  if (reg == nullptr) {
    return Status::NotFound("no standing query '" + name + "'");
  }
  return MaintainLocked(reg);
}

Status ViewMaintainer::MaintainAll() {
  std::lock_guard<std::mutex> lock(mu_);
  Status first;
  for (const auto& reg : registrations_) {
    Status status = MaintainLocked(reg.get());
    if (first.ok() && !status.ok()) first = status;
  }
  return first;
}

Status ViewMaintainer::RefreshView(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Registration* reg = Find(name);
  if (reg == nullptr) {
    ViewDefinition def;
    VC_ASSIGN_OR_RETURN(def, catalog_.Load(name));
    Result<Query> parsed = ParseQuery(Slice(def.query));
    if (!parsed.ok()) return parsed.status();
    VC_RETURN_IF_ERROR(
        RegisterLocked(name, *parsed, /*is_view=*/true, def.query));
    reg = Find(name);
  }
  if (!reg->is_view) {
    return Status::InvalidArgument("'" + name +
                                   "' is a standing query, not a view");
  }
  reg->writer.reset();
  reg->next_slice = 0;
  reg->maintained_version = 0;
  reg->maintained_data_dir.clear();
  reg->results.clear();
  reg->error = Status::OK();
  return MaintainLocked(reg);
}

void ViewMaintainer::OnCommit(const std::string& name, uint32_t version,
                              bool final) {
  (void)version;
  (void)final;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& reg : registrations_) {
    if (reg->source != name) continue;
    // Errors are latched in reg->error / status(); commits keep flowing.
    Status status = MaintainLocked(reg.get());
    (void)status;
  }
}

std::vector<std::string> ViewMaintainer::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(registrations_.size());
  for (const auto& reg : registrations_) names.push_back(reg->name);
  return names;
}

Result<std::vector<StandingQueryResult>> ViewMaintainer::Results(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& reg : registrations_) {
    if (reg->name == name) return reg->results;
  }
  return Status::NotFound("no standing query '" + name + "'");
}

Status ViewMaintainer::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace vc
