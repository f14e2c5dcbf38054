#ifndef VC_VIEW_MAINTAINER_H_
#define VC_VIEW_MAINTAINER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/visualcloud.h"
#include "query/algebra.h"
#include "view/catalog.h"

namespace vc {

/// What one standing-query execution over one new source segment produced.
/// `bytes`/`checksum` describe the serialized encoded result for exactly
/// that segment — the unit the determinism guarantees cover: for a fixed
/// registration timeline they are byte-identical across reruns, node
/// counts, and prefetch modes (`source_version` reflects catch-up batching
/// and may differ between timelines).
struct StandingQueryResult {
  int index = 0;             ///< Emission number (defining-plan slice index).
  int source_segment = 0;    ///< Source segment the emission covers.
  uint32_t source_version = 0;  ///< Source version current at execution.
  uint64_t bytes = 0;        ///< Serialized encoded result size.
  uint32_t checksum = 0;     ///< CRC-32 of the serialized encoded result.
  int cells_scanned = 0;
  int view_segment = -1;     ///< Segment appended to the view video; -1 for
                             ///< plain (non-materializing) standing queries.
};

/// \brief Runs standing queries incrementally as the catalog commits.
///
/// Registers itself as a CatalogObserver on construction: every checkpoint
/// or final commit of a video triggers maintenance of the standing queries
/// scanning it. Maintenance re-optimizes the registered query against the
/// new snapshot and executes only the defining-plan slices not yet
/// processed, one encode-sink execution per slice — the async cell path,
/// same bytes the one-shot plan would produce for that slice. Because live
/// commits happen inside the server's deterministic (time, seq) scheduler,
/// per-segment results inherit its determinism.
///
/// A standing query whose inner chain sinks into `store(<name>)` is a
/// *materialized view*: each emission's piece is split back into per-tile
/// cells (homomorphically, so the view's cells are byte-identical to a
/// full recompute, and a stitched segment's cells are byte copies of the
/// source cells) and appended to derived catalog video `<name>` — a
/// streaming checkpoint per maintenance batch while the source streams,
/// an archived commit when the source closes. The definition and progress
/// persist in the ViewCatalog, whose Candidates() feed the optimizer's
/// view-matching rewrite.
///
/// Incremental maintenance assumes append-only source growth — live
/// checkpoint versions extending one shared data directory. A re-ingest
/// (new data directory, old slices invalid) is detected and latched as an
/// error rather than silently advancing; RefreshView recovers with a full
/// recompute.
///
/// Thread-safety: all entry points (including OnCommit) serialize on one
/// mutex. OnCommit fires on the committing thread; maintenance work —
/// decode, stitch, view writes — runs inline there. The first maintenance
/// error is latched in status() and fails the next Maintain call for that
/// registration; commits keep flowing regardless.
class ViewMaintainer : public CatalogObserver {
 public:
  /// Registers with `db` (must outlive this maintainer).
  explicit ViewMaintainer(VisualCloud* db);
  ~ViewMaintainer() override;

  ViewMaintainer(const ViewMaintainer&) = delete;
  ViewMaintainer& operator=(const ViewMaintainer&) = delete;

  /// Registers a standing query: `scan(...) | ... | subscribe(<name>)`.
  /// The inner chain must end in `encode` (plain standing query) or
  /// `encode | store(<name>)` (materialized view; the store target must
  /// equal the subscribe name, and the definition is persisted). Returns
  /// the registration name. Does not execute anything — call Maintain for
  /// catch-up, or let commits drive it.
  Result<std::string> Register(Slice query_text);

  /// Registers materialized view `name` from its defining query
  /// (`scan(...) | ... | encode | store(<name>)`) and persists the
  /// definition. Equivalent to Register with a subscribe wrapper.
  Status CreateView(const std::string& name, Slice defining_query);

  /// Catch-up: processes every committed-but-unprocessed slice of `name`.
  Status Maintain(const std::string& name);

  /// Full recompute of view `name` from the view catalog: re-registers if
  /// needed, discards incremental progress, and re-derives every slice
  /// into a fresh view version. The result is byte-identical to what
  /// incremental maintenance accumulates (satellite-tested).
  Status RefreshView(const std::string& name);

  /// CatalogObserver: maintains every registration scanning `name`.
  void OnCommit(const std::string& name, uint32_t version,
                bool final) override;

  /// Registration names, in registration order.
  std::vector<std::string> Names() const;

  /// Per-segment results emitted so far for `name` (copy).
  Result<std::vector<StandingQueryResult>> Results(
      const std::string& name) const;

  /// First maintenance error since construction (OK when healthy).
  Status status() const;

  ViewCatalog* catalog() { return &catalog_; }

 private:
  struct Registration;

  Registration* Find(const std::string& name);
  Status RegisterLocked(const std::string& name, const Query& query,
                        bool is_view, const std::string& defining_text);
  Status MaintainLocked(Registration* reg);

  VisualCloud* db_;
  ViewCatalog catalog_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Registration>> registrations_;
  Status status_;
};

}  // namespace vc

#endif  // VC_VIEW_MAINTAINER_H_
